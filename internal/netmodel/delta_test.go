package netmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"partsvc/internal/property"
)

// deltaTestNet builds a connected random network for delta testing:
// a ring (guaranteed connectivity) plus random chords.
func deltaTestNet(t *testing.T, nodes, chords int, seed int64) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := New()
	ids := make([]NodeID, nodes)
	for i := range ids {
		ids[i] = NodeID(fmt.Sprintf("n%03d", i))
		if err := n.AddNode(Node{ID: ids[i], Props: property.Set{}}); err != nil {
			t.Fatal(err)
		}
	}
	add := func(a, b NodeID) {
		if _, dup := n.Link(a, b); dup || a == b {
			return
		}
		err := n.AddLink(Link{
			A: a, B: b,
			LatencyMS:     float64(rng.Intn(50) + 1),
			BandwidthMbps: []float64{8, 20, 50, 100}[rng.Intn(4)],
			Props:         property.Set{"Confidentiality": property.Bool(rng.Intn(2) == 0)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range ids {
		add(ids[i], ids[(i+1)%nodes])
	}
	for c := 0; c < chords; c++ {
		add(ids[rng.Intn(nodes)], ids[rng.Intn(nodes)])
	}
	return n
}

// forceAllTrees materializes every single-source tree of the cache.
// reusedTrees counts the single-source trees next carries over from
// prev by pointer: the ones a copy-on-write delta did not rebuild.
func reusedTrees(prev, next *RouteCache) int {
	n := 0
	for src := range next.trees {
		if t := next.trees[src].Load(); t != nil && t == prev.trees[src].Load() {
			n++
		}
	}
	return n
}

func forceAllTrees(rc *RouteCache) {
	for _, from := range rc.NodeIDs() {
		for _, to := range rc.NodeIDs() {
			rc.Path(from, to)
		}
	}
}

// assertCachesEqual compares every pair's path, latency, bottleneck and
// environment between a delta-derived cache and a from-scratch rebuild.
func assertCachesEqual(t *testing.T, got, want *RouteCache, step int) {
	t.Helper()
	for _, from := range want.NodeIDs() {
		for _, to := range want.NodeIDs() {
			gp, genv, gok := got.PathEnv(from, to)
			wp, wenv, wok := want.PathEnv(from, to)
			if gok != wok {
				t.Fatalf("step %d: %s->%s reachability delta=%v full=%v", step, from, to, gok, wok)
			}
			if !gok {
				continue
			}
			if gp.LatencyMS != wp.LatencyMS {
				t.Fatalf("step %d: %s->%s latency delta=%v full=%v", step, from, to, gp.LatencyMS, wp.LatencyMS)
			}
			if gp.BottleneckMbps != wp.BottleneckMbps {
				t.Fatalf("step %d: %s->%s bottleneck delta=%v full=%v", step, from, to, gp.BottleneckMbps, wp.BottleneckMbps)
			}
			if len(gp.Nodes) != len(wp.Nodes) {
				t.Fatalf("step %d: %s->%s path delta=%v full=%v", step, from, to, gp.Nodes, wp.Nodes)
			}
			for i := range gp.Nodes {
				if gp.Nodes[i] != wp.Nodes[i] {
					t.Fatalf("step %d: %s->%s path delta=%v full=%v", step, from, to, gp.Nodes, wp.Nodes)
				}
			}
			if genv.Fingerprint() != wenv.Fingerprint() {
				t.Fatalf("step %d: %s->%s env delta=%q full=%q", step, from, to, genv.Fingerprint(), wenv.Fingerprint())
			}
		}
	}
}

// TestRouteCacheLinkDeltaEquivalence drives a long random sequence of
// link latency/bandwidth changes (improvements and degradations mixed)
// through InvalidateRoutesLinkDelta and asserts after every step that
// the delta-derived cache answers identically to a from-scratch rebuild
// of the same topology.
func TestRouteCacheLinkDeltaEquivalence(t *testing.T) {
	n := deltaTestNet(t, 24, 30, 7)
	rng := rand.New(rand.NewSource(99))
	links := n.Links()
	for step := 0; step < 60; step++ {
		forceAllTrees(n.Routes()) // give the delta trees to carry over
		l := links[rng.Intn(len(links))]
		switch rng.Intn(3) {
		case 0: // degrade latency
			l.LatencyMS += float64(rng.Intn(40) + 1)
		case 1: // improve latency
			l.LatencyMS = math.Max(1, l.LatencyMS-float64(rng.Intn(20)+1))
		default: // bandwidth only
			l.BandwidthMbps = []float64{8, 20, 50, 100}[rng.Intn(4)]
		}
		n.InvalidateRoutesLinkDelta(l.A, l.B)
		got := n.Routes()

		// Reference: a brand-new network with identical figures.
		ref := New()
		for _, node := range n.Nodes() {
			if err := ref.AddNode(*node); err != nil {
				t.Fatal(err)
			}
		}
		for _, link := range n.Links() {
			if err := ref.AddLink(*link); err != nil {
				t.Fatal(err)
			}
		}
		assertCachesEqual(t, got, ref.Routes(), step)
	}
}

// TestRouteCacheLinkDeltaReuse asserts the copy-on-write delta actually
// reuses trees: degrading a leaf-ish link must keep the trees of
// sources that never route through it, and an improving change must
// keep none.
func TestRouteCacheLinkDeltaReuse(t *testing.T) {
	n := deltaTestNet(t, 24, 30, 7)
	prev := n.Routes()
	forceAllTrees(prev)
	links := n.Links()
	l := links[0]

	l.LatencyMS += 500 // degrade: non-improving
	n.InvalidateRoutesLinkDelta(l.A, l.B)
	rc := n.Routes()
	if got := reusedTrees(prev, rc); got == 0 {
		t.Fatalf("degrading one of %d links reused no trees", len(links))
	} else if got >= rc.NumNodes() {
		t.Fatalf("reused %d of %d trees: the changed link's own trees must rebuild",
			got, rc.NumNodes())
	}

	forceAllTrees(rc)
	l.LatencyMS = 1 // improve: every tree is suspect
	n.InvalidateRoutesLinkDelta(l.A, l.B)
	if got := reusedTrees(rc, n.Routes()); got != 0 {
		t.Fatalf("improving change reused %d trees, want 0", got)
	}
}

// TestRouteCacheEpochPinning asserts that a handle pinned before a
// mutation keeps answering from its own epoch's topology — the contract
// in-flight replan waves rely on — while fresh handles see the change.
func TestRouteCacheEpochPinning(t *testing.T) {
	n := deltaTestNet(t, 8, 6, 3)
	pinned := n.Routes()
	from, to := pinned.NodeIDs()[0], pinned.NodeIDs()[4]
	before, ok := pinned.Path(from, to)
	if !ok {
		t.Fatal("no path in connected network")
	}
	for _, l := range n.Links() {
		l.LatencyMS += 1000
		n.InvalidateRoutesLinkDelta(l.A, l.B)
	}
	after, ok := pinned.Path(from, to)
	if !ok || after.LatencyMS != before.LatencyMS {
		t.Fatalf("pinned handle drifted: before %v after %v", before.LatencyMS, after.LatencyMS)
	}
	fresh, ok := n.Routes().Path(from, to)
	if !ok || fresh.LatencyMS == before.LatencyMS {
		t.Fatalf("fresh handle did not observe the change: %v", fresh.LatencyMS)
	}
	if pinned.Epoch() == n.Routes().Epoch() {
		t.Fatal("epoch did not advance")
	}
}
