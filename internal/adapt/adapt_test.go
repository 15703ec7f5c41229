package adapt_test

import (
	"errors"
	"sync"
	"testing"

	"partsvc/internal/adapt"
	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/planner"
	"partsvc/internal/property"
	"partsvc/internal/sim"
	"partsvc/internal/smock"
)

// fakeExec is an in-memory Executor: every stage is a counter, the
// diff and the error injections are test-controlled.
type fakeExec struct {
	mu        sync.Mutex
	replanErr error
	deployErr error
	diff      *planner.Diff
	addr      string

	replans, deploys, publishes, discards int
	published                             string
	tab                                   *smock.Table
}

func (f *fakeExec) Table() *smock.Table {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.tab == nil {
		f.tab = smock.NewTable()
	}
	return f.tab
}

func (f *fakeExec) RepairReplan(old *planner.Deployment, req planner.Request, _ *planner.ChangedSet) (*planner.Diff, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.replans++
	if f.replanErr != nil {
		return nil, f.replanErr
	}
	return f.diff, nil
}

func (f *fakeExec) Snapshot(old *planner.Deployment, diff *planner.Diff) map[string][]byte {
	return nil
}

func (f *fakeExec) Deploy(diff *planner.Diff, states map[string][]byte) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.deploys++
	if f.deployErr != nil {
		return "", f.deployErr
	}
	return f.addr, nil
}

func (f *fakeExec) Publish(service, addr string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.publishes++
	f.published = addr
	return nil
}

func (f *fakeExec) Discard(ids []string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.discards++
}

func (f *fakeExec) set(fn func(*fakeExec)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn(f)
}

func (f *fakeExec) counts() (replans, deploys, discards int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.replans, f.deploys, f.discards
}

// flipRecorder records SetAddr calls.
type flipRecorder struct {
	mu    sync.Mutex
	addrs []string
}

func (r *flipRecorder) SetAddr(addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.addrs = append(r.addrs, addr)
}

func (r *flipRecorder) flips() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.addrs...)
}

func twoNodeNet(t *testing.T) *netmodel.Network {
	t.Helper()
	net := netmodel.New()
	for _, id := range []netmodel.NodeID{"a", "b"} {
		if err := net.AddNode(netmodel.Node{ID: id, Props: property.Set{}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.AddLink(netmodel.Link{A: "a", B: "b", LatencyMS: 1, BandwidthMbps: 100, Props: property.Set{}}); err != nil {
		t.Fatal(err)
	}
	return net
}

func place(component string, node netmodel.NodeID) planner.Placement {
	return planner.Placement{Component: component, Node: node, Config: property.Set{}}
}

// changedDiff returns a diff with one fresh install (so the controller
// runs a full cutover) and one removal (so a drain is scheduled).
func changedDiff() *planner.Diff {
	install := place("C", "a")
	return &planner.Diff{
		New:     &planner.Deployment{Placements: []planner.Placement{install}},
		Install: []planner.Placement{install},
		Remove:  []planner.Placement{place("C", "b")},
	}
}

func unchangedDiff() *planner.Diff {
	reused := place("C", "a")
	reused.Reused = true
	return &planner.Diff{New: &planner.Deployment{Placements: []planner.Placement{reused}}}
}

type harness struct {
	env    *sim.Env
	net    *netmodel.Network
	mon    *netmon.Monitor
	exec   *fakeExec
	ctrl   *adapt.Controller
	sess   *adapt.Session
	mu     sync.Mutex
	events []adapt.Event
}

// newHarness wires a controller to a sim scheduler over a two-node
// network. The session starts on head "old-head".
func newHarness(t *testing.T, cfg adapt.Config, exec *fakeExec) *harness {
	t.Helper()
	h := &harness{env: sim.NewEnv(), net: twoNodeNet(t), exec: exec}
	h.mon = netmon.New(h.net)
	h.ctrl = adapt.New(cfg, h.mon, exec, adapt.NewSimScheduler(h.env))
	h.ctrl.OnEvent(func(e adapt.Event) {
		h.mu.Lock()
		h.events = append(h.events, e)
		h.mu.Unlock()
	})
	h.sess = adapt.NewSession("s", "svc", planner.Request{Interface: "I", ClientNode: "a"},
		&planner.Deployment{Placements: []planner.Placement{place("C", "b")}}, "old-head")
	h.ctrl.Track(h.sess)
	return h
}

func (h *harness) eventsOf(kind string) []adapt.Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []adapt.Event
	for _, e := range h.events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// TestDebounceBatchesBursts: two changes 30ms apart under a 50ms
// debounce window produce ONE replan, 50ms after the second change.
func TestDebounceBatchesBursts(t *testing.T) {
	exec := &fakeExec{diff: unchangedDiff()}
	h := newHarness(t, adapt.Config{DebounceMS: 50, RetryBackoffMS: 1000}, exec)
	h.ctrl.Start()
	report := func(trust int64) func() {
		return func() {
			if err := h.mon.ReportNodeProps("b", property.Set{"TrustLevel": property.Int(trust)}); err != nil {
				t.Error(err)
			}
		}
	}
	h.env.At(0, report(3))
	h.env.At(30, report(2))
	h.env.RunUntil(500)

	replans, _, _ := exec.counts()
	if replans != 1 {
		t.Fatalf("got %d replans, want 1 (debounce must batch the burst)", replans)
	}
	evs := h.eventsOf("replan")
	if len(evs) != 1 || evs[0].AtMS != 80 {
		t.Fatalf("replan events = %v, want one at t=80 (30ms second change + 50ms window)", evs)
	}
	if len(h.eventsOf("unchanged")) != 1 {
		t.Fatalf("an unchanged diff must emit an 'unchanged' event; events: %v", h.events)
	}
}

// TestReplanFailureRetriesWithBackoff: a persistently failing replan is
// retried MaxAdaptRetries times with doubling backoff, then abandoned
// until the next network change.
func TestReplanFailureRetriesWithBackoff(t *testing.T) {
	exec := &fakeExec{replanErr: errors.New("no feasible plan")}
	h := newHarness(t, adapt.Config{DebounceMS: 10, RetryBackoffMS: 20, MaxAdaptRetries: 3}, exec)
	h.ctrl.Start()
	h.env.At(0, func() {
		_ = h.mon.ReportNodeDown("b")
	})
	h.env.RunUntil(5000)

	replans, _, _ := exec.counts()
	if replans != 4 {
		t.Fatalf("got %d replan attempts, want 4 (initial + 3 retries)", replans)
	}
	fails := h.eventsOf("failed")
	if len(fails) != 4 {
		t.Fatalf("got %d failed events, want 4: %v", len(fails), fails)
	}
	// t=10 initial; retries after 20, 40, 80ms of backoff.
	want := []float64{10, 30, 70, 150}
	for i, e := range fails {
		if e.AtMS != want[i] {
			t.Errorf("failure %d at t=%.1f, want %.1f", i, e.AtMS, want[i])
		}
	}
}

// TestUntrackCancelsPendingRetry: a retry armed by a failed replan must
// not adapt a session Untrack removed before it fired — it would deploy
// instances nothing owns — and a session tracked again under the same
// name starts with a fresh retry budget.
func TestUntrackCancelsPendingRetry(t *testing.T) {
	exec := &fakeExec{diff: changedDiff(), addr: "new-head", replanErr: errors.New("no feasible plan")}
	h := newHarness(t, adapt.Config{DebounceMS: 10, RetryBackoffMS: 20, MaxAdaptRetries: 3}, exec)
	h.ctrl.Start()
	h.env.At(0, func() { _ = h.mon.ReportNodeDown("b") })
	// The replan at t=10 fails and arms a retry for t=30. The session is
	// deleted first, and the executor heals, so a stray retry would both
	// replan and deploy. The same session is tracked again until t=90:
	// only withdrawing the retry keeps it from firing.
	h.env.At(20, func() {
		h.ctrl.Untrack(h.sess.Name)
		exec.set(func(f *fakeExec) { f.replanErr = nil })
	})
	h.env.At(25, func() { h.ctrl.Track(h.sess) })
	h.env.At(90, func() { h.ctrl.Untrack(h.sess.Name) })
	h.env.RunUntil(100)
	if replans, deploys, _ := exec.counts(); replans != 1 || deploys != 0 {
		t.Fatalf("after Untrack: %d replans and %d deploys, want 1 and 0 (the pending retry must not fire)", replans, deploys)
	}

	// A new session under the same name fails its first replan: its
	// retries run on their own schedule, not blocked or stretched by the
	// deleted session's state.
	h.env.At(100, func() {
		exec.set(func(f *fakeExec) { f.replanErr = errors.New("no feasible plan") })
		h.ctrl.Track(adapt.NewSession(h.sess.Name, "svc", h.sess.Req, h.sess.Deployment(), "old-head"))
		_ = h.mon.ReportNodeUp("b")
	})
	h.env.RunUntil(5000)
	fails := h.eventsOf("failed")
	want := []float64{10, 110, 130, 170, 250}
	if len(fails) != len(want) {
		t.Fatalf("got %d failed events, want %d: %v", len(fails), len(want), fails)
	}
	for i, e := range fails {
		if e.AtMS != want[i] {
			t.Errorf("failure %d at t=%.1f, want %.1f", i, e.AtMS, want[i])
		}
	}
}

// TestUntrackCancelsDeferredCommit: a cutover the rate limiter deferred
// must not land on a session Untrack removed while it waited — not even
// when the same session is tracked again before the commit's time.
func TestUntrackCancelsDeferredCommit(t *testing.T) {
	exec := &fakeExec{diff: changedDiff(), addr: "new-head"}
	h := newHarness(t, adapt.Config{DebounceMS: 10, CutoverRatePerSec: 1, CutoverBurst: 1}, exec)
	h.ctrl.Start()
	// The first wave (t=10) spends the only token; the second (t=30) is
	// deferred to t≈1010. The session is deleted at t=500 and tracked
	// again at t=600, so only withdrawing the commit keeps it from landing.
	h.env.At(0, func() { _ = h.mon.ReportNodeDown("b") })
	h.env.At(20, func() { _ = h.mon.ReportNodeUp("b") })
	h.env.At(500, func() { h.ctrl.Untrack(h.sess.Name) })
	h.env.At(600, func() { h.ctrl.Track(h.sess) })
	h.env.RunUntil(5000)
	if n := len(h.eventsOf("deferred")); n != 1 {
		t.Fatalf("got %d deferred commits, want 1: %v", n, h.events)
	}
	if _, deploys, _ := exec.counts(); deploys != 1 {
		t.Fatalf("got %d deploys, want 1 (the deferred commit must not land after Untrack)", deploys)
	}
	if n := len(h.eventsOf("adapted")); n != 1 {
		t.Fatalf("got %d adapted events, want 1", n)
	}
}

// TestDeployFailureKeepsOldBindingThenRecovers: a deploy error mid-
// cutover must leave the client bindings and the session untouched (the
// old deployment is still serving); the scheduled retry then completes
// the cutover once the executor heals.
func TestDeployFailureKeepsOldBindingThenRecovers(t *testing.T) {
	exec := &fakeExec{diff: changedDiff(), addr: "new-head", deployErr: errors.New("node wrapper unreachable")}
	h := newHarness(t, adapt.Config{DebounceMS: 10, RetryBackoffMS: 20, DrainMS: 5}, exec)
	flip := &flipRecorder{}
	h.sess.Bind(flip)
	h.ctrl.Start()
	h.env.At(0, func() {
		_ = h.mon.ReportNodeDown("b")
	})
	// Verify the failure left everything in place, then heal the
	// executor before the retry fires at t=30.
	h.env.At(20, func() {
		if got := h.sess.HeadAddr(); got != "old-head" {
			t.Errorf("session head = %q after failed deploy, want old-head", got)
		}
		if n := len(flip.flips()); n != 0 {
			t.Errorf("bindings flipped %d times after failed deploy, want 0", n)
		}
		exec.set(func(f *fakeExec) { f.deployErr = nil })
	})
	h.env.RunUntil(5000)

	if got := flip.flips(); len(got) != 1 || got[0] != "new-head" {
		t.Fatalf("binding flips = %v, want exactly [new-head]", got)
	}
	if got := h.sess.HeadAddr(); got != "new-head" {
		t.Fatalf("session head = %q, want new-head", got)
	}
	if exec.published != "new-head" {
		t.Fatalf("published = %q, want new-head", exec.published)
	}
	_, deploys, discards := exec.counts()
	if deploys != 2 {
		t.Fatalf("got %d deploys, want 2 (failure + retry)", deploys)
	}
	if discards != 1 {
		t.Fatalf("got %d discards, want 1 (drained removals torn down)", discards)
	}
	if len(h.eventsOf("adapted")) != 1 || len(h.eventsOf("failed")) != 1 {
		t.Fatalf("want one failed and one adapted event, got %v", h.events)
	}
}

// TestProbeSuspicionThresholdAndRecovery: the failure detector needs
// SuspicionThreshold consecutive probe misses before reporting a node
// down, reports it exactly once, and reports it back up on the first
// successful probe.
func TestProbeSuspicionThresholdAndRecovery(t *testing.T) {
	exec := &fakeExec{diff: unchangedDiff()}
	h := newHarness(t, adapt.Config{
		DebounceMS: 5, ProbeIntervalMS: 10, SuspicionThreshold: 3, RetryBackoffMS: 1000,
	}, exec)
	var mu sync.Mutex
	dead := true
	h.ctrl.SetProber(adapt.ProberFunc(func(node netmodel.NodeID, addr string, timeoutMS float64) error {
		mu.Lock()
		defer mu.Unlock()
		if node == "b" && dead {
			return errors.New("probe timeout")
		}
		return nil
	}), func() map[netmodel.NodeID]string {
		return map[netmodel.NodeID]string{"a": "addr-a", "b": "addr-b"}
	})
	h.ctrl.Start()
	h.env.At(55, func() { // after the down report (3rd miss at t=30)
		node, _ := h.net.Node("b")
		if !node.Down {
			t.Error("node b must be marked down after 3 probe misses")
		}
		mu.Lock()
		dead = false
		mu.Unlock()
	})
	h.env.RunUntil(200)

	suspects := h.eventsOf("suspect")
	if len(suspects) != 1 {
		t.Fatalf("got %d suspect events, want exactly 1: %v", len(suspects), suspects)
	}
	if suspects[0].AtMS != 30 {
		t.Fatalf("suspect at t=%.1f, want 30 (3 probe rounds at 10ms)", suspects[0].AtMS)
	}
	node, _ := h.net.Node("b")
	if node.Down {
		t.Fatal("node b must be reported back up after probes succeed")
	}
	// Down + up transitions each trigger a replan pass.
	if replans, _, _ := exec.counts(); replans != 2 {
		t.Fatalf("got %d replans, want 2 (down then up)", replans)
	}
}

// TestStopCancelsPendingWork: after Stop, armed debounce and probe
// timers never fire.
func TestStopCancelsPendingWork(t *testing.T) {
	exec := &fakeExec{diff: unchangedDiff()}
	h := newHarness(t, adapt.Config{DebounceMS: 50, ProbeIntervalMS: 10}, exec)
	probes := 0
	h.ctrl.SetProber(adapt.ProberFunc(func(netmodel.NodeID, string, float64) error {
		probes++
		return nil
	}), func() map[netmodel.NodeID]string { return map[netmodel.NodeID]string{"a": "addr-a"} })
	h.ctrl.Start()
	h.env.At(0, func() {
		_ = h.mon.ReportNodeDown("b") // arms the debounce
	})
	h.env.At(5, func() { h.ctrl.Stop() })
	h.env.RunUntil(1000)

	if replans, _, _ := exec.counts(); replans != 0 {
		t.Fatalf("got %d replans after Stop, want 0", replans)
	}
	if probes != 0 {
		t.Fatalf("got %d probes after Stop, want 0 (first round was due at t=10)", probes)
	}
}

// TestSimSchedulerCancel: a canceled After never runs and reports that
// it prevented the callback; NowMS tracks the virtual clock.
func TestSimSchedulerCancel(t *testing.T) {
	env := sim.NewEnv()
	s := adapt.NewSimScheduler(env)
	fired := false
	cancel := s.After(10, func() { fired = true })
	env.At(5, func() {
		if !cancel() {
			t.Error("cancel must report stopping a pending timer")
		}
	})
	var at float64
	s.After(20, func() { at = s.NowMS() })
	env.Run()
	if fired {
		t.Fatal("canceled callback ran")
	}
	if at != 20 {
		t.Fatalf("NowMS inside callback = %.1f, want 20", at)
	}
}
