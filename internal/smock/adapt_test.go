package smock_test

import (
	"strings"
	"sync"
	"testing"

	"partsvc/internal/planner"
	"partsvc/internal/smock"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

// TestLookupDeregister: deregistering removes exactly the named entry,
// reports whether one existed, and re-registering replaces in place.
func TestLookupDeregister(t *testing.T) {
	l := smock.NewLookup()
	for _, e := range []smock.Entry{
		{Service: "mail", ServerAddr: "addr-1"},
		{Service: "video", ServerAddr: "addr-2"},
	} {
		if err := l.Register(e); err != nil {
			t.Fatal(err)
		}
	}
	if !l.Deregister("mail") {
		t.Fatal("deregistering a registered service must report true")
	}
	if l.Deregister("mail") {
		t.Fatal("deregistering twice must report false")
	}
	if got := l.Find("mail", nil); len(got) != 0 {
		t.Fatalf("deregistered service still found: %v", got)
	}
	if got := l.Find("video", nil); len(got) != 1 {
		t.Fatalf("unrelated service lost: %v", got)
	}
	// Replace-on-re-register: no duplicate entries, new address wins.
	if err := l.Register(smock.Entry{Service: "video", ServerAddr: "addr-3"}); err != nil {
		t.Fatal(err)
	}
	got := l.Find("video", nil)
	if len(got) != 1 || got[0].ServerAddr != "addr-3" {
		t.Fatalf("re-registration must replace: %v", got)
	}
}

// TestLookupDeregisterAddr: every entry bound to a torn-down address
// disappears at once, regardless of service name.
func TestLookupDeregisterAddr(t *testing.T) {
	l := smock.NewLookup()
	for _, e := range []smock.Entry{
		{Service: "mail-head-a", ServerAddr: "addr-1"},
		{Service: "mail-head-b", ServerAddr: "addr-1"},
		{Service: "video", ServerAddr: "addr-2"},
	} {
		if err := l.Register(e); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.DeregisterAddr(""); got != 0 {
		t.Fatalf("DeregisterAddr(\"\") = %d, want 0", got)
	}
	if got := l.DeregisterAddr("addr-1"); got != 2 {
		t.Fatalf("DeregisterAddr removed %d entries, want 2", got)
	}
	if got := l.Find("", nil); len(got) != 1 || got[0].Service != "video" {
		t.Fatalf("surviving entries = %v, want only video", got)
	}
}

// TestTeardownDeregistersLookup: tearing an instance down scrubs every
// lookup entry pointing at its address, so clients can never download a
// binding to a dead listener.
func TestTeardownDeregistersLookup(t *testing.T) {
	w := newWorld(t)
	w.engine.SetLookup(w.lookup)
	req := planner.Request{Interface: spec.IfaceClient, ClientNode: topology.NYClient, User: "Alice", RateRPS: 50}
	addr, dep, err := w.gs.Access(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.lookup.Register(smock.Entry{Service: "mail-head", ServerAddr: addr}); err != nil {
		t.Fatal(err)
	}
	if err := w.engine.Teardown(idOf(t, w.engine.Table(), dep.Placements[0])); err != nil {
		t.Fatal(err)
	}
	if got := w.lookup.Find("mail-head", nil); len(got) != 0 {
		t.Fatalf("lookup still resolves the torn-down head: %v", got)
	}
	// The pre-registered generic-server entry (a different address) must
	// survive.
	if got := w.lookup.Find("mail", nil); len(got) != 1 {
		t.Fatalf("unrelated lookup entry lost: %v", got)
	}
}

// idOf returns the ID of the one instance running p.
func idOf(t *testing.T, tab *smock.Table, p planner.Placement) string {
	t.Helper()
	var ids []string
	for _, inst := range tab.Instances() {
		if inst.Place.Key() == p.Key() {
			ids = append(ids, inst.ID)
		}
	}
	if len(ids) != 1 {
		t.Fatalf("%s runs as %v, want one instance", p, ids)
	}
	return ids[0]
}

// TestConcurrentApplySerialized is the -race regression for the per-
// engine apply lock: two goroutines repeatedly applying an
// evict-and-reinstall diff for the same placement must serialize whole
// diffs (never interleaving one goroutine's teardown with the other's
// install) and leave a consistent engine.
func TestConcurrentApplySerialized(t *testing.T) {
	w := newWorld(t)
	req := planner.Request{Interface: spec.IfaceClient, ClientNode: topology.NYClient, User: "Alice", RateRPS: 50}
	_, dep, err := w.gs.Access(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Placements) != 2 {
		t.Fatalf("NY chain should be client -> primary, got %s", dep)
	}
	head := dep.Placements[0] // MailClient@ny-2
	head.Reused = false
	diff := &planner.Diff{
		New:     &planner.Deployment{Placements: []planner.Placement{head, dep.Placements[1]}, Edges: dep.Edges},
		Install: []planner.Placement{head},
		Evicted: []planner.Placement{head},
	}
	const rounds = 20
	count0 := w.engine.InstanceCount()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := w.engine.Apply(diff, nil); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if got := w.engine.InstanceCount(); got != count0 {
		t.Fatalf("instance count = %d, want %d (reinstalls must not leak)", got, count0)
	}
	if _, ok := w.engine.AddrOf(head); !ok {
		t.Fatal("the reinstalled head must be live")
	}
}

// TestOrphanedBy: the table reports the current instances transitively
// wired through a dead provider as orphans; instances on other chains
// are not.
func TestOrphanedBy(t *testing.T) {
	w := newWorld(t)
	// Warm up San Diego, then deploy Seattle's chain, which runs
	// ... -> Encryptor@sea-2 -> Decryptor@sd-2 -> view@sd-2.
	warm := planner.Request{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50}
	_, warmDep, err := w.gs.Access(warm)
	if err != nil {
		t.Fatal(err)
	}
	req := planner.Request{Interface: spec.IfaceClient, ClientNode: topology.SeaClient, User: "Carol", RateRPS: 50}
	_, dep, err := w.gs.Access(req)
	if err != nil {
		t.Fatal(err)
	}
	// Everything placed on sd-2 dies — exactly what revalidation evicts
	// when the node goes down.
	var dead []planner.Placement
	for _, d := range []*planner.Deployment{warmDep, dep} {
		for _, p := range d.Placements {
			if p.Node == topology.SDClient {
				dead = append(dead, p)
			}
		}
	}
	if len(dead) == 0 {
		t.Fatalf("Seattle chain should traverse sd-2: %s", dep)
	}
	orphans := w.engine.Table().OrphanedBy(dead)
	want := map[string]bool{}
	for _, p := range dep.Placements {
		if p.Node == topology.SeaClient {
			want[p.Key()] = true
		}
	}
	if len(orphans) != len(want) {
		t.Fatalf("orphans = %v, want the %d sea-2 placements", orphans, len(want))
	}
	for _, key := range orphans {
		if !want[key] {
			t.Errorf("unexpected orphan %s", key)
		}
		if !strings.Contains(key, "sea-2") {
			t.Errorf("orphan %s is not on sea-2", key)
		}
	}
	// A dead set that nothing chains through orphans nothing.
	if got := w.engine.Table().OrphanedBy(nil); got != nil {
		t.Fatalf("OrphanedBy(nil) = %v, want nil", got)
	}
}
