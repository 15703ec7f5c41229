package adapt_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"partsvc/internal/adapt"
	"partsvc/internal/mail"
	"partsvc/internal/netmodel"
	"partsvc/internal/planner"
	"partsvc/internal/property"
	"partsvc/internal/smock"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
	"partsvc/internal/transport"
)

// eventLog collects a loop's events for tests that wait on them.
type eventLog struct {
	mu     sync.Mutex
	events []adapt.Event
}

func (l *eventLog) on(e adapt.Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// dump renders every event, one a line, for failure reports.
func (l *eventLog) dump() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var b strings.Builder
	for _, e := range l.events {
		b.WriteString(e.String() + "\n")
	}
	return b.String()
}

// count returns how many events of kind (and stage detail, when kind is
// "stage") the named sessions emitted.
func (l *eventLog) count(kind, detail string, sessions map[string]bool) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.events {
		if e.Kind == kind && (detail == "" || e.Detail == detail) && sessions[e.Session] {
			n++
		}
	}
	return n
}

// checkRefs asserts the table invariant: every instance's reference
// count is the number of tracked sessions holding it, and a session
// holds its deployment's placements, in order, followed by the upstream
// chains its terminals forward into.
func checkRefs(t *testing.T, ctrl *adapt.Controller) {
	t.Helper()
	got, keys := ctrl.RefCounts()
	want := map[string]int{}
	for _, s := range ctrl.Sessions() {
		dep := s.Deployment()
		if dep == nil {
			continue
		}
		held := s.Held()
		if len(held) < len(dep.Placements) {
			t.Fatalf("%s holds %d instances for %d placements", s.Name, len(held), len(dep.Placements))
		}
		for i, p := range dep.Placements {
			if keys[held[i]] != p.Key() {
				t.Fatalf("%s holds %s for placement %s", s.Name, held[i], p.Key())
			}
		}
		for _, id := range held {
			want[id]++
		}
	}
	if len(got) != len(want) {
		t.Fatalf("the table holds references on %d instances, sessions on %d:\n  table    %v\n  sessions %v", len(got), len(want), got, want)
	}
	for id, n := range want {
		if got[id] != n {
			t.Fatalf("%s: %d table references, %d sessions hold it", id, got[id], n)
		}
	}
}

// offView replans against the table minus the old deployment's
// instances: the old deployment no longer stands, so the search runs
// unseeded and costs every graph shape afresh. The fresh chain leaves
// the degraded link and the view behind it, and the diff lists every
// old placement it drops in Remove — the shared view included — so only
// the table's reference counts stand between this diff and a teardown
// of the view another session still holds.
type offView struct {
	*adapt.EngineExecutor
	view    planner.Placement
	removed atomic.Bool // some diff listed the view in Remove
}

func (x *offView) Replan(old *planner.Deployment, req planner.Request) (*planner.Diff, error) {
	pl := x.Server.Planner()
	for _, p := range old.Placements {
		pl.DropExistingByKey(p.Key())
	}
	diff, err := pl.Replan(old, req)
	if err == nil && strings.Contains(fmt.Sprint(diff.Remove), x.view.Key()) {
		x.removed.Store(true)
	}
	return diff, err
}

// TestSharedTailSurvivesReplan: Seattle's chain anchors on San Diego's
// view, so two tracked sessions share it. When the San Diego–Seattle
// link degrades, Seattle is replanned off the view, and its diff
// removes the view; San Diego, which does not cross that link, keeps
// its deployment. Remove is a release: the view, still held by San
// Diego, must stay up and answer, while the Decryptor only Seattle held
// drains and is torn down; the table must count exactly the
// deployments' holds before and after the wave.
func TestSharedTailSurvivesReplan(t *testing.T) {
	w := newWorldOn(t, transport.NewInProc())
	sdReq := planner.Request{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50}
	sdHead, sdDep, err := w.GS.Access(sdReq)
	if err != nil {
		t.Fatal(err)
	}
	carol, _, carolDep := w.trackCarol(t, adapt.RetryConfig{})
	view := carolDep.Placements[len(carolDep.Placements)-1]
	if view.Key() != sdDep.Placements[1].Key() {
		t.Fatalf("Seattle must anchor on San Diego's view: %s vs %s", carolDep, sdDep)
	}
	viewAddr, _ := w.Engine.AddrOf(view)

	log := &eventLog{}
	exec := &offView{EngineExecutor: w.Executor(), view: view}
	ctrl := adapt.New(adapt.Config{DebounceMS: 20, DrainMS: 20}, w.Mon, exec, adapt.NewRealScheduler())
	ctrl.OnEvent(log.on)
	ctrl.Track(adapt.NewSession("alice", "", sdReq, sdDep, sdHead))
	ctrl.Track(carol)
	ctrl.Start()
	defer ctrl.Stop()
	checkRefs(t, ctrl)

	link, _ := w.Net.Link(topology.SDGateway, topology.SeaGW)
	if err := w.Mon.ReportLink(topology.SDGateway, topology.SeaGW, link.LatencyMS+800, link.BandwidthMbps, nil); err != nil {
		t.Fatal(err)
	}
	only := map[string]bool{"carol": true}
	if !eventually(5*time.Second, func() bool { return log.count("stage", "teardown", only) > 0 }) {
		t.Fatalf("Seattle never moved off the shared view and drained:\n%s", log.dump())
	}
	if dep := carol.Deployment(); strings.Contains(dep.String(), view.Key()) || !exec.removed.Load() {
		t.Fatalf("Seattle must be replanned off the shared view by a diff that removes it: %s", dep)
	}
	if n := log.count("replan", "", map[string]bool{"alice": true}); n != 0 {
		t.Fatalf("San Diego does not cross the degraded link, yet was replanned %d times", n)
	}
	checkRefs(t, ctrl)

	if addr, ok := w.Engine.AddrOf(view); !ok || addr != viewAddr {
		t.Fatalf("the shared view was torn down (live at %q, was %q)", addr, viewAddr)
	}
	ep, err := w.Tr.Dial(sdHead)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if _, err := mail.NewClient("Alice", w.Keys, mail.NewRemote(ep)).Receive(); err != nil {
		t.Fatalf("San Diego's chain stopped answering through the shared view: %v", err)
	}
}

// TestEvictionTearsDownUntrackedInstance: San Diego's chain is
// deployed by an access request outside the loop, and its view is
// published under a service name; the loop tracks only New York, whose
// chain does not touch San Diego. When sd-2's trust drops to 1, the
// loop's replan of New York evicts the view (factored with TrustLevel-4
// keys, it may no longer run there) yet comes back unchanged, so no
// cutover runs. The loop must still tear the view down and withdraw its
// lookup entry: no session's release will, because none holds it.
func TestEvictionTearsDownUntrackedInstance(t *testing.T) {
	w := newWorldOn(t, transport.NewInProc())
	sdReq := planner.Request{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50}
	_, sdDep, err := w.GS.Access(sdReq)
	if err != nil {
		t.Fatal(err)
	}
	view := sdDep.Placements[1]
	viewAddr, ok := w.Engine.AddrOf(view)
	if view.Component != spec.CompViewMailServer || view.Node != topology.SDClient || !ok {
		t.Fatalf("San Diego must run a live view on sd-2: %s", sdDep)
	}
	if err := w.Lookup.Register(smock.Entry{Service: "sd-view", ServerAddr: viewAddr}); err != nil {
		t.Fatal(err)
	}
	nyReq := planner.Request{Interface: spec.IfaceClient, ClientNode: topology.NYClient, User: "Bob", RateRPS: 50}
	nyHead, nyDep, err := w.GS.Access(nyReq)
	if err != nil {
		t.Fatal(err)
	}

	log := &eventLog{}
	ctrl := adapt.New(adapt.Config{DrainMS: 20}, w.Mon, w.Executor(), adapt.NewRealScheduler())
	ctrl.OnEvent(log.on)
	ctrl.Track(adapt.NewSession("bob", "", nyReq, nyDep, nyHead))
	if err := w.Mon.ReportNodeProps(topology.SDClient, property.Set{"TrustLevel": property.Int(1)}); err != nil {
		t.Fatal(err)
	}
	ctrl.Kick()

	if n := log.count("unchanged", "", map[string]bool{"bob": true}); n != 1 {
		t.Fatalf("New York's replan must come back unchanged:\n%s", log.dump())
	}
	if addr, ok := w.Engine.AddrOf(view); ok {
		t.Fatalf("the evicted view still runs at %s", addr)
	}
	if got := w.Lookup.Find("sd-view", nil); len(got) != 0 {
		t.Fatalf("lookup entries still point at the evicted view: %v", got)
	}
	checkRefs(t, ctrl)
}

// TestFleetDeploysOverTCP: a fleet of 102 sessions, a third on each
// case-study client site, is planned and deployed by the loop through
// one EngineExecutor over TCP, each session's head published under its
// own service name. Seattle's chains anchor on San Diego's view. One
// rebinding client per site sends; then sd-2 is killed. Its own site
// goes with it — no plan can serve a client whose node is dead, so the
// San Diego sessions fail and are deleted — while New York and Seattle
// keep sending across the fault with no client-visible error and no
// lost acknowledged send. After the drain the engine runs exactly the
// table's live instances, the table counts exactly the
// deployments' holds, and every published head is a live instance.
func TestFleetDeploysOverTCP(t *testing.T) {
	const perSite = 34
	w := newWorldOn(t, transport.NewTCP())
	log := &eventLog{}
	ctrl := w.Loop(25)
	ctrl.OnEvent(log.on)

	type site struct {
		name     string
		node     netmodel.NodeID
		user     string
		sessions map[string]bool
		first    *adapt.Session
	}
	sites := []*site{
		{name: "ny", node: topology.NYClient, user: "Alice"},
		{name: "sd", node: topology.SDClient, user: "Bob"},
		{name: "sea", node: topology.SeaClient, user: "Carol"},
	}
	// San Diego deploys before Seattle plans, so Seattle anchors on its
	// view as in Figure 6.
	for round, group := range [][]*site{sites[:2], sites[2:]} {
		for _, st := range group {
			st.sessions = map[string]bool{}
			for i := 0; i < perSite; i++ {
				name := fmt.Sprintf("%s-%02d", st.name, i)
				req := planner.Request{Interface: spec.IfaceClient, ClientNode: st.node, User: st.user, RateRPS: 1}
				s := adapt.NewSession(name, "head-"+name, req, nil, "")
				ctrl.Track(s)
				st.sessions[name] = true
				if st.first == nil {
					st.first = s
				}
			}
		}
		if rep := ctrl.Bootstrap(); rep.Failed != 0 {
			t.Fatalf("bootstrap %d: %d of %d sessions failed", round, rep.Failed, rep.Sessions)
		}
	}
	if dep := sites[2].first.Deployment().String(); !strings.Contains(dep, "ViewMailServer@sd-2") {
		t.Fatalf("Seattle must anchor on the sd-2 view: %s", dep)
	}
	checkRefs(t, ctrl)
	ctrl.Start()
	defer ctrl.Stop()

	type sender struct {
		site  *site
		send  func(subject string) error
		acked int
	}
	var senders []*sender
	for _, st := range sites {
		reb := adapt.NewRebindEndpoint(w.Tr, adapt.LookupResolver(w.Lookup, st.first.Service),
			adapt.RetryConfig{MaxAttempts: 12, BackoffMS: 25})
		defer reb.Close()
		st.first.Bind(reb)
		remote := mail.NewRemote(reb)
		var client interface {
			Send(to, subject string, body []byte, sensitivity int) (uint64, error)
		} = mail.NewClient(st.user, w.Keys, remote)
		if st.name == "sea" {
			client = mail.NewViewClient(st.user, 2, w.Keys.SubRing(2), remote)
		}
		senders = append(senders, &sender{site: st, send: func(subject string) error {
			_, err := client.Send("Alice", subject, []byte(subject), 2)
			return err
		}})
	}
	sendAll := func(from []*sender, round int) {
		for _, s := range from {
			if err := s.send(fmt.Sprintf("%s-%d", s.site.name, round)); err != nil {
				t.Fatalf("client-visible error at %s, send %d: %v", s.site.name, round, err)
			}
			s.acked++
		}
	}
	for round := 0; round < 3; round++ {
		sendAll(senders, round)
	}

	w.Wrappers[topology.SDClient].Close()
	survivors := []*sender{senders[0], senders[2]}
	sea := sites[2].sessions
	deadline := time.Now().Add(20 * time.Second)
	for round := 3; round < 8 || log.count("adapted", "", sea) < perSite; round++ {
		if time.Now().After(deadline) {
			t.Fatalf("Seattle adapted %d of %d sessions", log.count("adapted", "", sea), perSite)
		}
		sendAll(survivors, round)
		time.Sleep(10 * time.Millisecond)
	}
	waitFor(t, 5*time.Second, func() bool { return log.count("failed", "", sites[1].sessions) >= perSite },
		"the San Diego sessions must fail: their client node is dead")
	for _, s := range ctrl.Sessions() {
		if sea[s.Name] && strings.Contains(s.Deployment().String(), "@sd-2") {
			t.Fatalf("%s still uses the dead node: %s", s.Name, s.Deployment())
		}
	}

	acked := 0
	for _, s := range senders {
		acked += s.acked
	}
	waitFor(t, 2*time.Second, func() bool { return w.Primary.Store().InboxCount("Alice") == acked },
		fmt.Sprintf("primary holds %d of %d acknowledged sends", w.Primary.Store().InboxCount("Alice"), acked))

	for name := range sites[1].sessions {
		ctrl.Untrack(name)
	}
	checkRefs(t, ctrl)
	waitFor(t, 2*time.Second, func() bool { return w.Engine.InstanceCount() == ctrl.Instances() },
		fmt.Sprintf("engine runs %d instances, the table holds %d live", w.Engine.InstanceCount(), ctrl.Instances()))
	for _, st := range sites {
		for name := range st.sessions {
			for _, e := range w.Lookup.Find("head-"+name, nil) {
				s, ok := ctrl.Session(name)
				if !ok {
					t.Fatalf("deleted session %s is still published at %s", name, e.ServerAddr)
				}
				if live, ok := w.Engine.AddrOf(s.Deployment().Placements[0]); !ok || live != e.ServerAddr {
					t.Fatalf("%s is published at %s, its head is live at %q", name, e.ServerAddr, live)
				}
			}
		}
	}
}
