package netmon_test

import (
	"testing"

	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/property"
)

// diamond builds a -- b -- c plus the longer detour a -- d -- c.
func diamond(t *testing.T) *netmodel.Network {
	t.Helper()
	net := netmodel.New()
	for _, id := range []netmodel.NodeID{"a", "b", "c", "d"} {
		if err := net.AddNode(netmodel.Node{ID: id, Props: property.Set{}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []netmodel.Link{
		{A: "a", B: "b", LatencyMS: 1, BandwidthMbps: 100},
		{A: "b", B: "c", LatencyMS: 1, BandwidthMbps: 100},
		{A: "a", B: "d", LatencyMS: 10, BandwidthMbps: 100},
		{A: "d", B: "c", LatencyMS: 10, BandwidthMbps: 100},
	} {
		l.Props = property.Set{}
		if err := net.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

// TestReportNodeDownNotifiesOnce: the down transition notifies exactly
// once (failure detectors confirm suspicions repeatedly), renders the
// liveness change correctly, and the up transition undoes it.
func TestReportNodeDownNotifiesOnce(t *testing.T) {
	net := diamond(t)
	mon := netmon.New(net)
	var got []netmon.Change
	mon.Subscribe(func(changes []netmon.Change) { got = append(got, changes...) })

	if err := mon.ReportNodeDown("b"); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].String() != "node b: up true -> false" {
		t.Fatalf("changes = %v, want one 'node b: up true -> false'", got)
	}
	node, _ := net.Node("b")
	if !node.Down {
		t.Fatal("node b must be marked down")
	}
	if err := mon.ReportNodeDown("b"); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("re-reporting a down node must not re-notify: %v", got)
	}
	if err := mon.ReportNodeUp("b"); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].String() != "node b: up false -> true" {
		t.Fatalf("changes = %v, want an up transition", got)
	}
	if node.Down {
		t.Fatal("node b must be back up")
	}
	if err := mon.ReportNodeDown("nope"); err == nil {
		t.Fatal("unknown node must error")
	}
}

// TestDownNodeDropsOutOfRouting: a down node's links vanish from both
// the cached and the direct shortest-path views; routes fall back to
// the detour and recover when the node returns.
func TestDownNodeDropsOutOfRouting(t *testing.T) {
	net := diamond(t)
	mon := netmon.New(net)

	path, ok := net.Routes().Path("a", "c")
	if !ok || len(path.Nodes) != 3 || path.Nodes[1] != "b" {
		t.Fatalf("initial route = %v, want a-b-c", path.Nodes)
	}
	if err := mon.ReportNodeDown("b"); err != nil {
		t.Fatal(err)
	}
	// The monitor invalidates the cache before notifying; a fresh Routes
	// handle routes around the down node.
	path, ok = net.Routes().Path("a", "c")
	if !ok || len(path.Nodes) != 3 || path.Nodes[1] != "d" {
		t.Fatalf("route with b down = %v (ok=%v), want a-d-c", path.Nodes, ok)
	}
	// No route at all to the dead node itself.
	if _, ok := net.Routes().Path("a", "b"); ok {
		t.Fatal("routes to a down node must not exist")
	}
	if err := mon.ReportNodeUp("b"); err != nil {
		t.Fatal(err)
	}
	path, ok = net.Routes().Path("a", "c")
	if !ok || len(path.Nodes) != 3 || path.Nodes[1] != "b" {
		t.Fatalf("route after recovery = %v, want a-b-c again", path.Nodes)
	}
}
