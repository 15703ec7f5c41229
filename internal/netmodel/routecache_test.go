package netmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"partsvc/internal/property"
)

// randomNetwork builds a seeded random topology: n nodes, each link
// drawn with probability p, with random latencies (including a share of
// zero-latency links, which stress tie-breaking and path
// materialization order) and random link property sets. Disconnected
// pairs are expected and exercise the no-path agreement.
func randomNetwork(t *testing.T, n int, p float64, seed int64) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := New()
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(fmt.Sprintf("n%02d", i))
		if err := net.AddNode(Node{ID: ids[i]}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() > p {
				continue
			}
			lat := float64(rng.Intn(20)) // 0 included on purpose
			props := property.Set{
				"Confidentiality": property.Bool(rng.Intn(2) == 0),
			}
			if rng.Intn(2) == 0 {
				props["TrustLevel"] = property.Int(int64(1 + rng.Intn(5)))
			}
			err := net.AddLink(Link{
				A: ids[i], B: ids[j],
				LatencyMS:     lat,
				BandwidthMbps: float64(1 + rng.Intn(100)),
				Props:         props,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return net
}

// TestRouteCacheMatchesReference: on random topologies, the heap-based
// cached Dijkstra agrees with the linear reference implementation for
// every ordered pair — same reachability, same node sequence, same
// latency and bottleneck.
func TestRouteCacheMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		net := randomNetwork(t, 12, 0.25, seed)
		rc := net.Routes()
		nodes := net.Nodes()
		for _, from := range nodes {
			for _, to := range nodes {
				want, wantOK := net.shortestPathUncached(from.ID, to.ID)
				got, gotOK := rc.Path(from.ID, to.ID)
				if wantOK != gotOK {
					t.Fatalf("seed %d %s->%s: reachability cache=%v reference=%v",
						seed, from.ID, to.ID, gotOK, wantOK)
				}
				if !wantOK {
					continue
				}
				if len(got.Nodes) != len(want.Nodes) {
					t.Fatalf("seed %d %s->%s: path %v != reference %v",
						seed, from.ID, to.ID, got.Nodes, want.Nodes)
				}
				for i := range got.Nodes {
					if got.Nodes[i] != want.Nodes[i] {
						t.Fatalf("seed %d %s->%s: path %v != reference %v",
							seed, from.ID, to.ID, got.Nodes, want.Nodes)
					}
				}
				if got.LatencyMS != want.LatencyMS {
					t.Fatalf("seed %d %s->%s: latency %v != %v",
						seed, from.ID, to.ID, got.LatencyMS, want.LatencyMS)
				}
				if got.BottleneckMbps != want.BottleneckMbps {
					t.Fatalf("seed %d %s->%s: bottleneck %v != %v",
						seed, from.ID, to.ID, got.BottleneckMbps, want.BottleneckMbps)
				}
			}
		}
	}
}

// TestRouteCacheEnvMatchesPathEnv: the cached per-path environment
// equals the fold Path.Env computes link by link; loopback lookups
// return a nil environment (the caller substitutes its own).
func TestRouteCacheEnvMatchesPathEnv(t *testing.T) {
	net := randomNetwork(t, 10, 0.35, 42)
	rc := net.Routes()
	loop := property.Set{"Confidentiality": property.Bool(true)}
	for _, from := range net.Nodes() {
		for _, to := range net.Nodes() {
			path, env, ok := rc.PathEnv(from.ID, to.ID)
			if !ok {
				continue
			}
			if from.ID == to.ID {
				if env != nil {
					t.Fatalf("loopback %s: env must be nil, got %v", from.ID, env)
				}
				continue
			}
			want := path.Env(net, loop)
			if env.Fingerprint() != want.Fingerprint() {
				t.Fatalf("%s->%s: cached env %v != folded env %v", from.ID, to.ID, env, want)
			}
		}
	}
}

// TestRouteCacheEpochInvalidation: a topology mutation through a
// sanctioned mutator bumps the epoch, and the next Routes() call
// reflects the new shortest path.
func TestRouteCacheEpochInvalidation(t *testing.T) {
	n := diamond(t)
	before := n.Routes().Epoch()
	p, ok := n.ShortestPath("a", "d")
	if !ok || len(p.Nodes) != 3 || p.Nodes[1] != "b" {
		t.Fatalf("baseline path must be a-b-d, got %v", p.Nodes)
	}
	if n.Routes() != n.Routes() {
		t.Fatal("stable topology must reuse one cache instance")
	}

	// A new express node undercuts the a-b-d route.
	if err := n.AddNode(Node{ID: "e"}); err != nil {
		t.Fatal(err)
	}
	for _, l := range []Link{
		{A: "a", B: "e", LatencyMS: 0.25, BandwidthMbps: 100},
		{A: "e", B: "d", LatencyMS: 0.25, BandwidthMbps: 100},
	} {
		if err := n.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	if n.Routes().Epoch() == before {
		t.Fatal("mutators must bump the route epoch")
	}
	p, ok = n.ShortestPath("a", "d")
	if !ok || len(p.Nodes) != 3 || p.Nodes[1] != "e" {
		t.Fatalf("post-mutation path must be a-e-d, got %v", p.Nodes)
	}
	if p.LatencyMS != 0.5 {
		t.Fatalf("post-mutation latency must be 0.5, got %v", p.LatencyMS)
	}
}

// TestRouteCacheCounters: the first lookup touching a source is a miss
// (it builds that source's tree); subsequent lookups from the same
// source are hits, including loopback and unreachable answers.
func TestRouteCacheCounters(t *testing.T) {
	n := diamond(t)
	rc := n.Routes()
	if h, m := rc.Counters(); h != 0 || m != 0 {
		t.Fatalf("fresh cache must start at zero, got hits=%d misses=%d", h, m)
	}
	rc.Path("a", "d")
	if h, m := rc.Counters(); h != 0 || m != 1 {
		t.Fatalf("first lookup must miss once: hits=%d misses=%d", h, m)
	}
	rc.Path("a", "b")
	rc.Path("a", "c")
	rc.Path("a", "a")
	if h, m := rc.Counters(); h != 3 || m != 1 {
		t.Fatalf("same-source lookups must hit: hits=%d misses=%d", h, m)
	}
	rc.Path("b", "a")
	if h, m := rc.Counters(); h != 3 || m != 2 {
		t.Fatalf("new source must miss: hits=%d misses=%d", h, m)
	}
}

// TestRouteCacheUnknownNodes: lookups involving unknown nodes fail
// cleanly.
func TestRouteCacheUnknownNodes(t *testing.T) {
	n := diamond(t)
	rc := n.Routes()
	if _, ok := rc.Path("a", "zz"); ok {
		t.Fatal("unknown target must not resolve")
	}
	if _, ok := rc.Path("zz", "a"); ok {
		t.Fatal("unknown source must not resolve")
	}
	if _, _, ok := rc.PathEnv("zz", "zz"); ok {
		t.Fatal("unknown loopback must not resolve")
	}
}

// TestRouteCacheLoopback: loopback paths are single-node with infinite
// bottleneck, matching the reference.
func TestRouteCacheLoopback(t *testing.T) {
	n := diamond(t)
	p, ok := n.Routes().Path("c", "c")
	if !ok || !p.IsLoopback() || !math.IsInf(p.BottleneckMbps, 1) || p.LatencyMS != 0 {
		t.Fatalf("loopback path malformed: %+v ok=%v", p, ok)
	}
}
