package smock

import (
	"testing"

	"partsvc/internal/planner"
)

// TestNodeServingSkipsLeavingInstances: an instance maps its address to
// its node while a session holds it, while it drains and while it is
// pinned; once Finalize hands it over for teardown it maps to nothing.
func TestNodeServingSkipsLeavingInstances(t *testing.T) {
	tab := NewTable()
	dep := &planner.Deployment{Placements: []planner.Placement{{Component: "C", Node: "n"}}}
	ids, _ := tab.Acquire(dep)
	tab.byID[ids[0]].Addr = "inst-c"
	tab.Adopt(planner.Placement{Component: "P", Node: "m"}, "inst-p")
	serving := func(addr string) string {
		node, ok := tab.NodeServing(addr)
		if !ok {
			return "-"
		}
		return string(node)
	}
	if got := serving("inst-c"); got != "n" {
		t.Fatalf("held instance maps to %s, want n", got)
	}
	gone := tab.Release(ids)
	if got := serving("inst-c"); got != "n" {
		t.Fatalf("draining instance maps to %s, want n", got)
	}
	if out := tab.Finalize(gone); len(out) != 1 {
		t.Fatalf("Finalize returned %v, want the released instance", out)
	}
	if got := serving("inst-c"); got != "-" {
		t.Fatalf("instance finalized for teardown maps to %s, want nothing", got)
	}
	if got := serving("inst-p"); got != "m" {
		t.Fatalf("pinned instance no session holds maps to %s, want m", got)
	}
	if got := serving("nosuch"); got != "-" {
		t.Fatalf("unknown address maps to %s", got)
	}
}

// TestAppendLiveSkipsBrokenChains: a pinned client keeps its upstream
// chain serving with no session holding it, so when a provider of that
// chain dies nothing repairs it. Its survivors must leave the reuse
// set, or a new plan anchors on them and forwards into nothing.
func TestAppendLiveSkipsBrokenChains(t *testing.T) {
	for _, loss := range []string{"torn down", "evicted"} {
		tab := NewTable()
		dep := &planner.Deployment{
			Placements: []planner.Placement{{Component: "C", Node: "a"}, {Component: "V", Node: "b"}, {Component: "P", Node: "c"}},
			Edges:      []planner.Edge{{From: 0, To: 1, Iface: "I"}, {From: 1, To: 2, Iface: "J"}},
		}
		tab.Record(dep)
		if live := tab.AppendLive(nil); len(live) != 3 {
			t.Fatalf("recorded chain: %d live instances, want 3", len(live))
		}
		provider := dep.Placements[2]
		if loss == "torn down" {
			tab.Remove(tab.cur[provider.Key()].ID)
		} else {
			tab.cur[provider.Key()].Refs = 1 // a session still holds it
			tab.Evict(provider.Key())
		}
		if live := tab.AppendLive(nil); len(live) != 0 {
			t.Fatalf("provider %s: %v still live, want none", loss, live)
		}
	}
}
