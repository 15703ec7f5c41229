package planner

import (
	"strings"
	"sync"
	"testing"

	"partsvc/internal/netmon"
	"partsvc/internal/topology"
)

// diffSummary renders a diff into a canonical comparable form.
func diffSummary(d *Diff) string {
	if d == nil {
		return "<nil>"
	}
	out := "new=" + d.New.String()
	for _, p := range d.Install {
		out += "|install:" + p.Key()
	}
	for _, p := range d.Remove {
		out += "|remove:" + p.Key()
	}
	for _, p := range d.Evicted {
		out += "|evicted:" + p.Key()
	}
	return out
}

// TestFingerprintsStableAcrossInstances builds the same world twice from
// scratch and asserts request fingerprints land on identical strings,
// while a changed request lands elsewhere. This is the property that
// makes one WaveMemo shareable between planner instances.
func TestFingerprintsStableAcrossInstances(t *testing.T) {
	_, _, _, reqA := rewireWorld(t)
	_, _, _, reqB := rewireWorld(t)

	if fa, fb := reqA.Fingerprint(), reqB.Fingerprint(); fa != fb {
		t.Fatalf("identical requests fingerprint apart:\n%s\n%s", fa, fb)
	}

	other := reqA
	other.User = "Mallory"
	if other.Fingerprint() == reqA.Fingerprint() {
		t.Fatal("different users must fingerprint apart")
	}
}

// TestWaveMemoSharedMatchesIndependent is the satellite equivalence
// check: two planner instances over identical worlds, one answering
// through a shared WaveMemo (second session hits the first session's
// entry), must produce byte-identical replan diffs to the same planners
// running independently.
func TestWaveMemoSharedMatchesIndependent(t *testing.T) {
	degrade := func(mon *netmon.Monitor) {
		if err := mon.ReportLink(topology.SDGateway, topology.SeaGW, 1500, 1, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Independent baseline: each instance replans on its own.
	p1, m1, dep1, req1 := rewireWorld(t)
	degrade(m1)
	want1, err := p1.Replan(dep1, req1)
	if err != nil {
		t.Fatal(err)
	}

	// Shared path: two fresh instances of the same world share one memo.
	pa, ma, depA, reqA := rewireWorld(t)
	pb, mb, depB, reqB := rewireWorld(t)
	degrade(ma)
	degrade(mb)
	memo := NewWaveMemo()
	replanVia := func(pl *Planner, dep *Deployment, req Request) *Diff {
		rc := pl.Net.Routes()
		pl.PinRoutes(rc)
		defer pl.PinRoutes(nil)
		key := req.Fingerprint() + "#" + shapeOf(dep)
		diff, _, _, err := memo.Do(key, func() (*Diff, Stats, error) {
			d, err := pl.Replan(dep, req)
			return d, pl.Stats(), err
		})
		if err != nil {
			t.Fatal(err)
		}
		return diff
	}
	gotA := replanVia(pa, depA, reqA)
	gotB := replanVia(pb, depB, reqB)

	if hits, misses := memo.Counters(); hits != 1 || misses != 1 {
		t.Fatalf("identical sessions must share one computation: hits=%d misses=%d", hits, misses)
	}
	if sa, sb := diffSummary(gotA), diffSummary(gotB); sa != sb {
		t.Fatalf("memo hit diverged from memo miss:\n%s\n%s", sa, sb)
	}
	if sw, sa := diffSummary(want1), diffSummary(gotA); sw != sa {
		t.Fatalf("shared-memo diff diverged from independent replan:\n%s\n%s", sw, sa)
	}

	// The hit shares the miss's diff: a planned Diff is immutable, so the
	// members of a wave group commit the one value.
	if gotA != gotB {
		t.Fatal("memo hit must share the computed diff, not copy it")
	}
}

// shapeOf renders a deployment's placement keys in order, the way the
// fleet names a session's current deployment in its wave key.
func shapeOf(dep *Deployment) string {
	if dep == nil {
		return ""
	}
	keys := make([]string, len(dep.Placements))
	for i, p := range dep.Placements {
		keys[i] = p.Key()
	}
	return strings.Join(keys, " -> ")
}

// TestWaveMemoComputesOnceUnderContention hammers one key from many
// goroutines and asserts exactly one compute ran, with everyone else
// blocking for (and sharing) its result.
func TestWaveMemoComputesOnceUnderContention(t *testing.T) {
	memo := NewWaveMemo()
	var mu sync.Mutex
	computes := 0
	const callers = 32
	var wg sync.WaitGroup
	diffs := make([]*Diff, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			d, _, _, err := memo.Do("k", func() (*Diff, Stats, error) {
				mu.Lock()
				computes++
				mu.Unlock()
				return &Diff{New: &Deployment{Placements: []Placement{{Component: "X", Node: "n"}}}}, Stats{}, nil
			})
			if err != nil {
				t.Error(err)
			}
			diffs[slot] = d
		}(i)
	}
	wg.Wait()
	if computes != 1 {
		t.Fatalf("compute ran %d times, want 1", computes)
	}
	hits, misses := memo.Counters()
	if misses != 1 || hits != callers-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", hits, misses, callers-1)
	}
	for i, d := range diffs {
		if d == nil || len(d.New.Placements) != 1 {
			t.Fatalf("caller %d got %v", i, d)
		}
		if d != diffs[0] {
			t.Fatalf("caller %d got its own copy of the diff; every caller shares the computed one", i)
		}
	}
	if n := len(memo.entries); n != 1 {
		t.Fatalf("%d keys computed, want 1", n)
	}
}
