package smock

import (
	"fmt"
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

// TestEvictKillsSupersededInstances: a key's current instance is not
// the only one that runs it. A superseded instance keeps serving the
// sessions that hold it, and a draining one waits for Finalize; when
// the key is evicted, both are dead too. A client wired into the
// superseded instance then leaves the reuse set and is an orphan, and
// a superseded instance nothing but a pin holds is handed back for
// teardown.
func TestEvictKillsSupersededInstances(t *testing.T) {
	tab := NewTable()
	dep := &planner.Deployment{
		Placements: []planner.Placement{{Component: "C", Node: "a"}, {Component: "V", Node: "b"}, {Component: "P", Node: "c"}},
		Edges:      []planner.Edge{{From: 0, To: 1, Iface: "I"}, {From: 1, To: 2, Iface: "J"}},
	}
	tab.Record(dep)
	client, view, provider := dep.Placements[0].Key(), dep.Placements[1], dep.Placements[2].Key()
	first := tab.cur[view.Key()]
	first.Refs, tab.cur[client].Refs = 1, 1 // a session still holds the old chain
	// A plan wires the view anew: a fresh instance supersedes the first,
	// and a second fresh one supersedes it in turn, leaving it pinned
	// and unheld.
	supersede := func() *entry {
		tab.mu.Lock()
		defer tab.mu.Unlock()
		e := tab.mintLocked(view, map[string]string{"J": tab.cur[provider].ID})
		e.Pinned = true
		tab.enterLocked(e)
		return e
	}
	pinned := supersede()
	current := supersede()
	current.Refs = 1

	teardown := tab.Evict(view.Key())
	if want := []string{pinned.ID}; fmt.Sprint(teardown) != fmt.Sprint(want) {
		t.Errorf("Evict handed back %v for teardown, want %v", teardown, want)
	}
	for _, e := range []*entry{first, current} {
		if !e.Dead {
			t.Errorf("%s (%d references) survived the eviction of its key", e.ID, e.Refs)
		}
	}
	var live []string
	for _, p := range tab.AppendLive(nil) {
		live = append(live, p.Key())
	}
	if want := []string{provider}; fmt.Sprint(live) != fmt.Sprint(want) {
		t.Errorf("live after the eviction: %v, want %v", live, want)
	}
	if got, want := tab.OrphanedBy(nil), []string{client}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("OrphanedBy = %v, want the client wired into the superseded view: %v", got, want)
	}
}
