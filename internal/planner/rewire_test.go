package planner

import (
	"fmt"
	"reflect"
	"testing"

	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

// rewireWorld bootstraps the fig8/case-study planning state: the NY
// primary, a warm San Diego chain, and a Seattle deployment whose
// interior wiring crosses the SD–Seattle link.
func rewireWorld(t *testing.T) (*Planner, *netmon.Monitor, *Deployment, Request) {
	t.Helper()
	net := topology.CaseStudy()
	mon := netmon.New(net)
	pl := New(spec.MailService(), net)
	primary, err := pl.PrimaryPlacement(spec.CompMailServer, topology.NYServer)
	if err != nil {
		t.Fatal(err)
	}
	pl.AddExisting(primary)
	warm := Request{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50}
	warmDep, err := pl.Plan(warm)
	if err != nil {
		t.Fatal(err)
	}
	pl.AddExisting(warmDep.Placements...)
	req := Request{Interface: spec.IfaceClient, ClientNode: topology.SeaClient, User: "Carol", RateRPS: 50}
	dep, err := pl.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	pl.AddExisting(dep.Placements...)
	return pl, mon, dep, req
}

func existingKeys(pl *Planner) map[string]bool {
	keys := map[string]bool{}
	for _, p := range pl.Existing {
		keys[p.Key()] = true
	}
	return keys
}

// sameDeploymentKeys reports whether two deployments place the same
// instances (same placement-key sets).
func sameDeploymentKeys(a, b *Deployment) bool {
	if a == nil || b == nil || len(a.Placements) != len(b.Placements) {
		return false
	}
	keys := map[string]bool{}
	for _, p := range a.Placements {
		keys[p.Key()] = true
	}
	for _, p := range b.Placements {
		if !keys[p.Key()] {
			return false
		}
	}
	return true
}

// TestReplanRewireNoopOnStableNetwork: when nothing changed, the one
// search of a settled replan must conclude that the session's wiring is
// still optimal, return a no-op diff, and leave the reuse set exactly as
// it found it.
func TestReplanRewireNoopOnStableNetwork(t *testing.T) {
	pl, _, dep, req := rewireWorld(t)
	before := existingKeys(pl)
	diff, err := pl.Replan(dep, req)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Unchanged() || len(diff.Evicted) != 0 {
		t.Fatalf("stable network must be a no-op, got install=%d remove=%d evicted=%d",
			len(diff.Install), len(diff.Remove), len(diff.Evicted))
	}
	after := existingKeys(pl)
	if len(after) != len(before) {
		t.Fatalf("reuse set changed size: %d -> %d", len(before), len(after))
	}
	for k := range before {
		if !after[k] {
			t.Errorf("reuse entry %s lost by the settled replan", k)
		}
	}
}

// TestReplanRewireMovesDegradedWiring: degrading the SD–Seattle link
// evicts nothing (revalidation is validity-scoped), and a plain plan
// still cuts at the Seattle view, whose recorded upstream predates the
// change. The settled replan prices the session's own wiring under
// current routes, so it must move the chain off the degraded link. Its
// diff has buildDiff's one meaning: the instances whose wiring changes
// are installed afresh under the same keys, and Remove lists every old
// placement the new chain no longer holds — the shared tail included,
// which the session releases and which stays registered for the
// session that holds it. Restoring the link moves the session back onto
// its original wiring.
func TestReplanRewireMovesDegradedWiring(t *testing.T) {
	pl, mon, dep, req := rewireWorld(t)
	tail := dep.Placements[len(dep.Placements)-1]
	onSD := false
	for _, p := range dep.Placements {
		if p.Node == topology.SDClient {
			onSD = true
		}
	}
	if !onSD {
		t.Fatalf("Seattle chain should wire through sd-2: %s", dep)
	}
	link, _ := pl.Net.Link(topology.SDGateway, topology.SeaGW)
	baseLat, baseBW := link.LatencyMS, link.BandwidthMbps
	if err := mon.ReportLink(topology.SDGateway, topology.SeaGW, 1500, 1, nil); err != nil {
		t.Fatal(err)
	}
	plain := New(spec.MailService(), pl.Net)
	plain.AddExisting(pl.Existing...)
	if stale, err := plain.Plan(req); err != nil || !buildDiff(dep, stale).Unchanged() {
		t.Fatalf("a plain plan must still keep the chain (err %v): %s; the test checks nothing", err, stale)
	}
	diff, err := pl.Replan(dep, req)
	if err != nil {
		t.Fatal(err)
	}
	if diff.Unchanged() {
		t.Fatal("degraded interior link must trigger a rewire")
	}
	if len(diff.Evicted) != 0 {
		t.Fatalf("a degrade evicts nothing, got %v", diff.Evicted)
	}
	for _, p := range diff.New.Placements {
		if p.Node == topology.SDClient && p.Component == spec.CompDecryptor {
			t.Fatalf("rewired chain still decrypts behind the degraded link: %s", diff.New)
		}
	}
	held := map[string]bool{}
	for _, p := range diff.New.Placements {
		held[p.Key()] = true
	}
	var wantRemove []string
	for _, p := range dep.Placements {
		if !held[p.Key()] {
			wantRemove = append(wantRemove, p.Key())
		}
	}
	var gotRemove []string
	for _, p := range diff.Remove {
		gotRemove = append(gotRemove, p.Key())
	}
	if !reflect.DeepEqual(gotRemove, wantRemove) {
		t.Errorf("Remove = %v, want the old placements the new chain does not hold: %v", gotRemove, wantRemove)
	}
	if held[tail.Key()] {
		t.Errorf("the rewired chain still ends at the shared tail %s: %s", tail.Key(), diff.New)
	}
	// Every own instance the new chain keeps under its key is wired
	// differently, so the engine reinstalls it: it must be an install.
	for _, p := range diff.New.Placements {
		if p.Reused && p.Node == topology.SeaClient {
			t.Errorf("%s is re-wired but marked reused: %s", p.Key(), diff.New)
		}
	}
	// The shared tail (another session's view) must survive in the
	// reuse set even though the rewired chain no longer uses it.
	if !existingKeys(pl)[tail.Key()] {
		t.Fatalf("shared tail %s dropped from the reuse set", tail.Key())
	}

	// Adopt the move as the loop does: what the session installed for
	// itself and released leaves the reuse set, what it reused from
	// another session stays, and the new chain is registered.
	for _, p := range dep.Placements {
		if !p.Reused && !held[p.Key()] {
			pl.DropExistingByKey(p.Key())
		}
	}
	pl.AddExisting(diff.New.Placements...)
	if err := mon.ReportLink(topology.SDGateway, topology.SeaGW, baseLat, baseBW, nil); err != nil {
		t.Fatal(err)
	}
	back, err := pl.Replan(diff.New, req)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDeploymentKeys(back.New, dep) {
		t.Errorf("restoring the link must restore the wiring:\n  original: %s\n  now:      %s", dep, back.New)
	}
}

// TestSettledReplanSearchesOnce: a settled session's replan is one
// search. The three Figure 6 sessions are adapted, one planner for all,
// to an unchanged network, to a degrade of each inter-site link under a
// deployed chain and to its restore: every Replan runs at most one full
// search, counted in Stats. The steps must reach the search and move
// some session, or they check nothing.
func TestSettledReplanSearchesOnce(t *testing.T) {
	net := topology.CaseStudy()
	mon := netmon.New(net)
	pl := New(spec.MailService(), net)
	primary, err := pl.PrimaryPlacement(spec.CompMailServer, topology.NYServer)
	if err != nil {
		t.Fatal(err)
	}
	pl.AddExisting(primary)
	reqs := []Request{
		{Interface: spec.IfaceClient, ClientNode: topology.NYClient, User: "Alice", RateRPS: 50},
		{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50},
		{Interface: spec.IfaceClient, ClientNode: topology.SeaClient, User: "Carol", RateRPS: 50},
	}
	deps := make([]*Deployment, len(reqs))
	for i, req := range reqs {
		deps[i] = planOrFail(t, pl, req)
		pl.AddExisting(deps[i].Placements...)
	}
	searched, moved := 0, 0
	adapt := func(step string) {
		t.Helper()
		for i, req := range reqs {
			searches := pl.layers.FullSearches
			diff, err := pl.Replan(deps[i], req)
			if err != nil {
				t.Fatalf("%s, session %d: %v", step, i, err)
			}
			n := pl.Stats().FullSearches - searches
			if n > 1 {
				t.Errorf("%s, session %d: Replan ran %d full searches, want at most 1", step, i, n)
			}
			searched += n
			if !diff.Unchanged() {
				moved++
				pl.AddExisting(diff.New.Placements...)
				deps[i] = diff.New
			}
		}
	}
	adapt("unchanged network")
	for _, l := range [][2]netmodel.NodeID{{topology.SDGateway, topology.SeaGW}, {topology.NYServer, topology.SDGateway}} {
		link, ok := net.Link(l[0], l[1])
		if !ok {
			t.Fatalf("no link %s~%s", l[0], l[1])
		}
		base := link.LatencyMS
		for _, lat := range []float64{base + 800, base} {
			if err := mon.ReportLink(l[0], l[1], lat, -1, nil); err != nil {
				t.Fatal(err)
			}
			adapt(fmt.Sprintf("%s~%s at %.0f ms", l[0], l[1], lat))
		}
	}
	if searched == 0 || moved == 0 {
		t.Fatalf("%d searches, %d moves: the steps check nothing", searched, moved)
	}
	t.Logf("%d full searches and %d moves over %d replans", searched, moved, 5*len(reqs))
}

// TestFingerprintsStableAcrossInstances builds the same world twice from
// scratch and asserts request fingerprints land on identical strings,
// while a changed request lands elsewhere. This is the property that
// lets a replan wave plan a key once for every session that has it,
// whichever of its planners runs the key.
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
