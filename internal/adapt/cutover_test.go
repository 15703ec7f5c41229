package adapt_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"partsvc/internal/adapt"
	"partsvc/internal/mail"
	"partsvc/internal/netmodel"
	"partsvc/internal/planner"
	"partsvc/internal/smock"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
	"partsvc/internal/transport"
)

// faultExec is the cutover's fault-injecting Executor double. It wraps
// the engine executor, records every call it sees, and fails the phase
// its switch names once: Snapshot returns nothing, Deploy fails after
// deployFailsAfter installs, Publish errors. beforePublish runs after
// Deploy returned and before Publish — the window in which the old
// chain must still serve. Err, LastMethod and CallCount follow the last
// call.
type faultExec struct {
	*adapt.EngineExecutor
	installs *installBudget // the world's transport

	mu                 sync.Mutex
	calls              []string
	snapshotShouldFail bool
	deployFailsAfter   int // installs before Deploy fails; < 0 never
	publishShouldFail  bool
	beforePublish      func(service string)
	teardownErrs       []error
	injected           []string // the methods a switch failed
	Err                error
	LastMethod         string
	CallCount          int
}

func newFaultExec(w *world, installs *installBudget) *faultExec {
	return &faultExec{EngineExecutor: w.Executor(), installs: installs, deployFailsAfter: -1}
}

// record notes a call and reports the switch that applies to it,
// clearing it.
func (x *faultExec) record(method string, sw *bool) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.calls = append(x.calls, method)
	x.LastMethod = method
	x.CallCount++
	x.Err = nil
	if sw == nil || !*sw {
		return false
	}
	*sw = false
	x.Err = fmt.Errorf("injected %s failure", method)
	x.injected = append(x.injected, method)
	return true
}

func (x *faultExec) Snapshot(old *planner.Deployment, diff *planner.Diff) map[string][]byte {
	if x.record("Snapshot", &x.snapshotShouldFail) {
		return nil
	}
	return x.EngineExecutor.Snapshot(old, diff)
}

func (x *faultExec) Deploy(diff *planner.Diff, states map[string][]byte) (string, error) {
	x.record("Deploy", nil)
	x.mu.Lock()
	k := x.deployFailsAfter
	x.deployFailsAfter = -1
	x.mu.Unlock()
	if k >= 0 {
		x.installs.arm(k)
	}
	addr, err := x.EngineExecutor.Deploy(diff, states)
	if k >= 0 {
		x.installs.mu.Lock()
		x.installs.left = -1
		x.installs.mu.Unlock()
	}
	x.mu.Lock()
	x.Err = err
	x.mu.Unlock()
	return addr, err
}

func (x *faultExec) Publish(service, addr string) error {
	x.mu.Lock()
	hook := x.beforePublish
	x.mu.Unlock()
	if hook != nil {
		hook(service)
	}
	if x.record("Publish", &x.publishShouldFail) {
		return x.Err
	}
	return x.EngineExecutor.Publish(service, addr)
}

// Discard tears down like EngineExecutor.Discard, keeping the errors.
func (x *faultExec) Discard(ids []string) {
	x.record("Discard", nil)
	for _, id := range ids {
		if err := x.Engine.Teardown(id); err != nil {
			x.mu.Lock()
			x.teardownErrs = append(x.teardownErrs, err)
			x.Err = err
			x.mu.Unlock()
		}
	}
}

// last returns the last call's method and error, and the call count.
func (x *faultExec) last() (string, error, int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.LastMethod, x.Err, x.CallCount
}

func (x *faultExec) called(method string) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	n := 0
	for _, m := range x.calls {
		if m == method {
			n++
		}
	}
	return n
}

// installBudget is a transport whose Serve — one per component install
// — fails once an armed budget of installs is spent.
type installBudget struct {
	transport.Transport
	mu     sync.Mutex
	left   int // < 0: unlimited
	served int // installs while armed
}

// arm sets the budget (< 0: unlimited) and restarts the count.
func (b *installBudget) arm(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.left, b.served = n, 0
}

func (b *installBudget) Serve(addr string, h transport.Handler) (transport.Listener, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.left == 0 {
		return nil, errors.New("injected install failure")
	}
	if b.left > 0 {
		b.left--
		b.served++
	}
	return b.Transport.Serve(addr, h)
}

// books compares the three records of what runs and the references on
// it: every table instance is live and answers at its address, each
// wrapper hosts exactly the table's instances on its node, every lookup
// entry points at a table instance, and each instance's references are
// the tracked sessions holding it. It returns the first disagreement.
func books(w *world, ctrl *adapt.Controller) string {
	insts := w.Engine.Table().Instances()
	perNode := map[netmodel.NodeID]int{}
	addrs := map[string]bool{}
	for _, inst := range insts {
		if inst.Refs == 0 && !inst.Pinned {
			return fmt.Sprintf("%s is held by nothing (draining or leaked)", inst.ID)
		}
		ep, err := w.Tr.Dial(inst.Addr)
		if err != nil {
			return fmt.Sprintf("%s does not answer at %s: %v", inst.ID, inst.Addr, err)
		}
		ep.Close()
		perNode[inst.Place.Node]++
		addrs[inst.Addr] = true
	}
	for node, wr := range w.Wrappers {
		if wr.Instances() != perNode[node] {
			return fmt.Sprintf("wrapper %s hosts %d instances, the table lists %d", node, wr.Instances(), perNode[node])
		}
	}
	for _, e := range w.Lookup.Find("", nil) {
		if !addrs[e.ServerAddr] {
			return fmt.Sprintf("lookup entry %s points at %s, which no instance serves", e.Service, e.ServerAddr)
		}
	}
	held := map[string]int{}
	for _, s := range ctrl.Sessions() {
		for _, id := range s.Held() {
			held[id]++
		}
	}
	for _, inst := range insts {
		if inst.Refs != held[inst.ID] {
			return fmt.Sprintf("%s: %d references, %d sessions hold it", inst.ID, inst.Refs, held[inst.ID])
		}
		delete(held, inst.ID)
	}
	for id := range held {
		return fmt.Sprintf("a session holds %s, which the table does not list", id)
	}
	return ""
}

// checkBooks waits for drains to finish and asserts that the books
// agree: no instance, lookup entry or reference leaked.
func checkBooks(t *testing.T, w *world, ctrl *adapt.Controller) {
	t.Helper()
	var last string
	if !eventually(2*time.Second, func() bool { last = books(w, ctrl); return last == "" }) {
		t.Fatalf("books disagree: %s", last)
	}
	checkRefs(t, ctrl)
}

// seattleTwice deploys San Diego's chain untracked and Carol's Seattle
// chain, and returns two sessions on that one deployment — as when a
// wave group commits one deployment to many sessions: "carol",
// published under carolService, and "dave", under its own name.
func seattleTwice(t *testing.T, w *world) (carol, dave *adapt.Session) {
	t.Helper()
	w.deploySD(t)
	carol, _, dep := w.trackCarol(t, adapt.RetryConfig{})
	return carol, adapt.NewSession("dave", "mail-head-dave", carol.Req, dep, carol.HeadAddr())
}

// degradeSDSeattle slows the San Diego–Seattle link so that a replan
// rewires Seattle off it (decrypting next to the primary instead).
func degradeSDSeattle(t *testing.T, w *world) {
	t.Helper()
	if err := w.Mon.ReportLink(topology.SDGateway, topology.SeaGW, 1500, 1, nil); err != nil {
		t.Fatal(err)
	}
}

// sendAsCarol sends one message as Carol through the chain headed at
// addr.
func sendAsCarol(w *world, addr, subject string) error {
	ep, err := w.Tr.Dial(addr)
	if err != nil {
		return err
	}
	defer ep.Close()
	_, err = mail.NewViewClient("Carol", 2, w.Keys.SubRing(2), mail.NewRemote(ep)).Send("Alice", subject, []byte(subject), 2)
	return err
}

// TestOldChainServesUntilFlip: a rewire supersedes every Seattle
// instance whose wiring changes, and a superseded instance must keep
// serving until the sessions holding it have flipped away. Between
// Deploy and Publish the committing session's old head still answers —
// and for the second session on the same chain, committed after the
// first, it still answers too: the first session's cutover moved only
// its own references.
func TestOldChainServesUntilFlip(t *testing.T) {
	w := newWorldOn(t, transport.NewInProc())
	carol, dave := seattleTwice(t, w)
	x := newFaultExec(w, nil)
	oldHead := carol.HeadAddr()
	var beforeFlip []string
	x.beforePublish = func(service string) {
		err := sendAsCarol(w, oldHead, "old chain, before the flip")
		beforeFlip = append(beforeFlip, fmt.Sprintf("%s: %v", service, err))
	}
	ctrl := adapt.New(adapt.Config{DrainMS: 20}, w.Mon, x, adapt.NewRealScheduler())
	ctrl.Track(carol)
	ctrl.Track(dave)
	checkBooks(t, w, ctrl)

	degradeSDSeattle(t, w)
	ctrl.Kick()
	want := fmt.Sprint([]string{carolService + ": <nil>", "mail-head-dave: <nil>"})
	if got := fmt.Sprint(beforeFlip); got != want {
		t.Fatalf("sends through the old head between Deploy and Publish: %s, want %s", got, want)
	}
	for _, s := range []*adapt.Session{carol, dave} {
		if !rewired(s) || s.HeadAddr() == oldHead {
			t.Fatalf("%s was not rewired off the degraded link: %s", s.Name, s.Deployment())
		}
		if err := sendAsCarol(w, s.HeadAddr(), "new chain"); err != nil {
			t.Fatalf("%s's new chain: %v", s.Name, err)
		}
	}
	checkBooks(t, w, ctrl)
}

// newCutoverWorld is the world of the per-phase tests: San Diego
// untracked, Carol tracked, the executor double installed, and the
// books agreeing before anything fails.
func newCutoverWorld(t *testing.T) (*world, *faultExec, *adapt.Controller, *adapt.Session) {
	t.Helper()
	installs := &installBudget{Transport: transport.NewInProc(), left: -1}
	w := newWorldOn(t, installs)
	w.deploySD(t)
	carol, _, _ := w.trackCarol(t, adapt.RetryConfig{})
	x := newFaultExec(w, installs)
	// Failed cutovers are retried by hand (Kick), never by the clock.
	ctrl := adapt.New(adapt.Config{DrainMS: 20, RetryBackoffMS: 1e9}, w.Mon, x, adapt.NewRealScheduler())
	t.Cleanup(ctrl.Stop)
	ctrl.Track(carol)
	checkBooks(t, w, ctrl)
	return w, x, ctrl, carol
}

// rewired reports whether Carol's chain left the degraded link.
func rewired(s *adapt.Session) bool {
	return !strings.Contains(s.Deployment().String(), "Decryptor@sd-2")
}

// TestCutoverSnapshotReturnsNothing: a cutover whose snapshots all come
// back empty installs the rewired chain stateless and still commits.
func TestCutoverSnapshotReturnsNothing(t *testing.T) {
	w, x, ctrl, carol := newCutoverWorld(t)
	x.snapshotShouldFail = true
	degradeSDSeattle(t, w)
	ctrl.Kick()
	if x.called("Snapshot") != 1 || !rewired(carol) {
		t.Fatalf("the cutover must commit without snapshots: %d snapshots, chain %s", x.called("Snapshot"), carol.Deployment())
	}
	checkBooks(t, w, ctrl)
}

// TestCutoverDeployFailsPartWay: a Deploy whose third install fails
// leaves nothing of the first two behind — not in the table, not on the
// wrappers — and the session on its old chain; the retry commits.
func TestCutoverDeployFailsPartWay(t *testing.T) {
	w, x, ctrl, carol := newCutoverWorld(t)
	old := carol.Deployment()
	x.deployFailsAfter = 2
	degradeSDSeattle(t, w)
	ctrl.Kick()
	if method, err, n := x.last(); method != "Deploy" || err == nil || n != 2 || x.installs.served != 2 {
		t.Fatalf("Deploy, the second call, must fail after 2 installs: last %s of %d calls, err %v, %d installs",
			method, n, err, x.installs.served)
	}
	if carol.Deployment() != old {
		t.Fatalf("a failed deploy moved the session: %s", carol.Deployment())
	}
	checkBooks(t, w, ctrl)
	ctrl.Kick()
	if !rewired(carol) {
		t.Fatalf("the retry must commit: %s", carol.Deployment())
	}
	checkBooks(t, w, ctrl)
}

// TestCutoverPublishFails: when Publish fails after a successful
// Deploy, the new chain's references are released and its fresh
// instances drain away; the session stays on its old chain, still
// published, and the retry commits.
func TestCutoverPublishFails(t *testing.T) {
	w, x, ctrl, carol := newCutoverWorld(t)
	old, head := carol.Deployment(), carol.HeadAddr()
	x.publishShouldFail = true
	degradeSDSeattle(t, w)
	ctrl.Kick()
	x.mu.Lock()
	injected := fmt.Sprint(x.injected)
	x.mu.Unlock()
	if injected != "[Publish]" || x.called("Deploy") != 1 {
		t.Fatalf("Publish must fail after one Deploy: injected %s, %d deploys", injected, x.called("Deploy"))
	}
	if carol.Deployment() != old || carol.HeadAddr() != head {
		t.Fatalf("a failed publish moved the session: %s", carol.Deployment())
	}
	if err := sendAsCarol(w, head, "after failed publish"); err != nil {
		t.Fatalf("the old chain stopped serving: %v", err)
	}
	checkBooks(t, w, ctrl)
	ctrl.Kick()
	if !rewired(carol) {
		t.Fatalf("the retry must commit: %s", carol.Deployment())
	}
	checkBooks(t, w, ctrl)
}

// TestCutoverDiscardOnDeadNode: sd-2 crashes under Seattle's chain. The
// loop replans around it, and every teardown of an instance on sd-2 —
// San Diego's, evicted with no holder, and Seattle's, released at its
// cutover — errors because the node is gone. The table forgets them
// all the same, with their lookup entries.
func TestCutoverDiscardOnDeadNode(t *testing.T) {
	w, x, ctrl, carol := newCutoverWorld(t)
	if err := w.Lookup.Register(smock.Entry{Service: "sd-head", ServerAddr: sdHead(t, w)}); err != nil {
		t.Fatal(err)
	}
	if err := w.KillNode(topology.SDClient); err != nil {
		t.Fatal(err)
	}
	if err := w.Mon.ReportNodeDown(topology.SDClient); err != nil {
		t.Fatal(err)
	}
	ctrl.Kick()
	if dep := carol.Deployment().String(); strings.Contains(dep, "@sd-2") {
		t.Fatalf("Seattle still uses the dead node: %s", dep)
	}
	checkBooks(t, w, ctrl)
	x.mu.Lock()
	errs := x.teardownErrs
	x.mu.Unlock()
	if x.called("Discard") == 0 || len(errs) == 0 {
		t.Fatalf("teardowns on the dead node must error: %d discards, errors %v", x.called("Discard"), errs)
	}
	if got := w.Lookup.Find("sd-head", nil); len(got) != 0 {
		t.Fatalf("lookup still points into the dead node: %v", got)
	}
}

// sdHead returns the address of San Diego's head instance.
func sdHead(t *testing.T, w *world) string {
	t.Helper()
	for _, inst := range w.Engine.Table().Instances() {
		if inst.Place.Component == spec.CompMailClient && inst.Place.Node == topology.SDClient {
			return inst.Addr
		}
	}
	t.Fatal("San Diego runs no head")
	return ""
}

// TestAnchorHoldsUpstreamChain: a session that anchors on another
// session's instance holds that instance's upstream chain. Alice's and
// Carol's sessions share San Diego's view; when the NY–SD link turns
// secure, Alice replans onto a chain that ends at an instance of the
// old one, and releases the rest. The old chain behind that anchor must
// not drain: every receive and every level-5 send through Alice's
// rebind endpoint keeps working after the drain.
func TestAnchorHoldsUpstreamChain(t *testing.T) {
	w := newWorldOn(t, transport.NewInProc())
	const aliceService = "mail-head-alice"
	req := planner.Request{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50}
	headAddr, dep, err := w.GS.Access(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Lookup.Register(smock.Entry{Service: aliceService, ServerAddr: headAddr}); err != nil {
		t.Fatal(err)
	}
	aliceSession := adapt.NewSession("alice", aliceService, req, dep, headAddr)
	reb := adapt.NewRebindEndpoint(w.Tr, adapt.LookupResolver(w.Lookup, aliceService), adapt.RetryConfig{})
	aliceSession.Bind(reb)
	carol, _, carolDep := w.trackCarol(t, adapt.RetryConfig{})
	if !strings.Contains(carolDep.String(), "ViewMailServer@sd-2{TrustLevel=4}*") {
		t.Fatalf("Carol must anchor on San Diego's view: %s", carolDep)
	}

	ctrl := adapt.New(adapt.Config{DebounceMS: 20, DrainMS: 40}, w.Mon, w.Executor(), adapt.NewRealScheduler())
	ctrl.Track(aliceSession)
	ctrl.Track(carol)
	ctrl.Start()
	defer ctrl.Stop()

	secure := true
	if err := w.Mon.ReportLink(topology.NYServer, topology.SDGateway, -1, -1, &secure); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return aliceSession.Deployment() != dep },
		"Alice must replan once the NY–SD link is secure")
	time.Sleep(200 * time.Millisecond) // well past the 40 ms drain

	alice := mail.NewClient("Alice", w.Keys, mail.NewRemote(reb))
	for i := 0; i < 3; i++ {
		if _, err := alice.Send("Bob", "top", []byte("level 5"), 5); err != nil {
			t.Fatalf("level-5 send %d after the drain (chain %s): %v", i, aliceSession.Deployment(), err)
		}
		if _, err := alice.Receive(); err != nil {
			t.Fatalf("receive %d after the drain (chain %s): %v", i, aliceSession.Deployment(), err)
		}
	}
	checkBooks(t, w, ctrl)
}
