package netmon

import (
	"testing"

	"partsvc/internal/netmodel"
	"partsvc/internal/property"
)

// triangle builds a 3-node network where a-b is direct but slow (10 ms)
// and a-c-b is the 2 ms detour the baseline route prefers.
func triangle(t *testing.T) *netmodel.Network {
	t.Helper()
	n := netmodel.New()
	for _, id := range []netmodel.NodeID{"a", "b", "c"} {
		if err := n.AddNode(netmodel.Node{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []netmodel.Link{
		{A: "a", B: "b", LatencyMS: 10, BandwidthMbps: 100},
		{A: "a", B: "c", LatencyMS: 1, BandwidthMbps: 100},
		{A: "c", B: "b", LatencyMS: 1, BandwidthMbps: 100},
	} {
		if err := n.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestReportLinkInvalidatesRoutes: a latency report through the monitor
// bumps the route epoch, and the next Routes() lookup returns the new
// shortest path — the cache never serves a pre-report route.
func TestReportLinkInvalidatesRoutes(t *testing.T) {
	net := triangle(t)
	m := New(net)

	p, ok := net.Routes().Path("a", "b")
	if !ok || len(p.Nodes) != 3 || p.LatencyMS != 2 {
		t.Fatalf("baseline must detour a-c-b at 2 ms, got %v (%.1f ms)", p.Nodes, p.LatencyMS)
	}
	epoch := net.Routes().Epoch()

	// The direct link speeds up past the detour.
	if err := m.ReportLink("a", "b", 0.5, -1, nil); err != nil {
		t.Fatal(err)
	}
	if net.Routes().Epoch() == epoch {
		t.Fatal("a latency change must bump the route epoch")
	}
	p, ok = net.Routes().Path("a", "b")
	if !ok || len(p.Nodes) != 2 || p.LatencyMS != 0.5 {
		t.Fatalf("post-report route must take the direct link, got %v (%.1f ms)", p.Nodes, p.LatencyMS)
	}

	// A no-op report (same values) must not churn the epoch: unchanged
	// networks keep their cache warm.
	epoch = net.Routes().Epoch()
	if err := m.ReportLink("a", "b", 0.5, -1, nil); err != nil {
		t.Fatal(err)
	}
	if net.Routes().Epoch() != epoch {
		t.Fatal("a no-op report must not invalidate routes")
	}
}

// TestSubscriberSeesFreshRoutes: subscribers run after invalidation, so
// an adaptation loop replanning from its callback observes post-change
// shortest paths.
func TestSubscriberSeesFreshRoutes(t *testing.T) {
	net := triangle(t)
	m := New(net)
	net.Routes().Path("a", "b") // warm the cache on the old topology

	var sawLatency float64
	m.Subscribe(func([]Change) {
		p, ok := net.Routes().Path("a", "b")
		if !ok {
			t.Error("route lost inside subscriber")
			return
		}
		sawLatency = p.LatencyMS
	})
	if err := m.ReportLink("a", "b", 0.25, -1, nil); err != nil {
		t.Fatal(err)
	}
	if sawLatency != 0.25 {
		t.Fatalf("subscriber must see the post-change route, saw %.2f ms", sawLatency)
	}
}

// TestReportNodePropsInvalidatesRoutes: node property reports also bump
// the epoch (translated properties can gate placements, and replanning
// paths must be rebuilt against the same epoch they validate under).
func TestReportNodePropsInvalidatesRoutes(t *testing.T) {
	net := triangle(t)
	m := New(net)
	epoch := net.Routes().Epoch()
	if err := m.ReportNodeProps("a", property.Set{"TrustLevel": property.Int(2)}); err != nil {
		t.Fatal(err)
	}
	if net.Routes().Epoch() == epoch {
		t.Fatal("a node property change must bump the route epoch")
	}
}
