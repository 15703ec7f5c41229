package adapt_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"partsvc/internal/adapt"
	"partsvc/internal/mail"
	"partsvc/internal/metrics"
	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/planner"
	"partsvc/internal/seccrypto"
	"partsvc/internal/smock"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
	"partsvc/internal/transport"
)

// world is the full case study wired for adaptation: topology, monitor,
// wrappers with control listeners on every node, mail factories, a
// pre-deployed primary, generic server, and lookup.
type world struct {
	tr       transport.Transport
	net      *netmodel.Network
	mon      *netmon.Monitor
	keys     *seccrypto.KeyRing
	primary  *mail.Server
	engine   *smock.Engine
	gs       *smock.GenericServer
	lookup   *smock.Lookup
	wrappers map[netmodel.NodeID]*smock.NodeWrapper
}

func newWorldOn(t *testing.T, tr transport.Transport) *world {
	t.Helper()
	w := &world{tr: tr, keys: seccrypto.NewKeyRing(), wrappers: map[netmodel.NodeID]*smock.NodeWrapper{}}
	clock := transport.NewRealClock()
	w.primary = mail.NewServer(w.keys, clock)
	for _, u := range []string{"Alice", "Bob", "Carol"} {
		if err := w.primary.CreateAccount(u); err != nil {
			t.Fatal(err)
		}
	}
	reg := smock.NewRegistry()
	if err := mail.RegisterFactories(reg, &mail.ServiceEnv{Primary: w.primary, Keys: w.keys}); err != nil {
		t.Fatal(err)
	}
	w.net = topology.CaseStudy()
	w.mon = netmon.New(w.net)
	w.engine = smock.NewEngine(w.tr)
	for _, node := range w.net.Nodes() {
		wr := smock.NewNodeWrapper(node.ID, w.tr, reg, clock)
		w.engine.RegisterWrapper(wr)
		if _, err := wr.ServeControl(); err != nil {
			t.Fatal(err)
		}
		w.wrappers[node.ID] = wr
	}

	addr, err := w.wrappers[topology.NYServer].Install(smock.InstallOrder{
		Component: spec.CompMailServer, InstanceID: "mail-primary",
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := spec.MailService()
	pl := planner.New(svc, w.net)
	msPlace, err := pl.PrimaryPlacement(spec.CompMailServer, topology.NYServer)
	if err != nil {
		t.Fatal(err)
	}
	pl.AddExisting(msPlace)
	w.engine.AdoptInstance(msPlace, addr)

	w.gs = smock.NewGenericServer(svc, pl, w.engine)
	w.lookup = smock.NewLookup()
	w.engine.SetLookup(w.lookup)
	return w
}

func (w *world) executor() *adapt.EngineExecutor {
	return &adapt.EngineExecutor{
		Server: w.gs, Engine: w.engine, Lookup: w.lookup,
		Transport: w.tr, Spec: spec.MailService(),
	}
}

// deploySD warms up the San Diego chain so Seattle anchors onto the
// sd-2 view, reproducing the case study's incremental state.
func (w *world) deploySD(t *testing.T) {
	t.Helper()
	req := planner.Request{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50}
	addr, _, err := w.gs.Access(req)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := w.tr.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	alice := mail.NewClient("Alice", w.keys, mail.NewRemote(ep))
	if _, err := alice.Send("Bob", "warm up", []byte("x"), 2); err != nil {
		t.Fatal(err)
	}
}

// carolService is the lookup name Carol's head is published under.
const carolService = "mail-head-carol"

// trackCarol deploys Carol's Seattle session through the generic
// server, publishes its head, and binds a rebind endpoint with the
// given retry policy to it — everything a test needs to hand the
// session to a controller.
func (w *world) trackCarol(t *testing.T, retry adapt.RetryConfig) (*adapt.Session, *adapt.RebindEndpoint, *planner.Deployment) {
	t.Helper()
	req := planner.Request{Interface: spec.IfaceClient, ClientNode: topology.SeaClient, User: "Carol", RateRPS: 50}
	headAddr, dep, err := w.gs.Access(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.lookup.Register(smock.Entry{Service: carolService, ServerAddr: headAddr}); err != nil {
		t.Fatal(err)
	}
	session := adapt.NewSession("carol", carolService, req, dep, headAddr)
	reb := adapt.NewRebindEndpoint(w.tr, adapt.LookupResolver(w.lookup, carolService), retry)
	session.Bind(reb)
	return session, reb, dep
}

// TestNodeCrashAdaptationInProc is the end-to-end acceptance test: with
// the controller running, the node hosting the mail-store view that
// Seattle's chain depends on (sd-2) is killed mid-traffic. The
// controller must detect the crash by probing, replan around the dead
// node, redeploy carrying the Seattle view's state, and flip the client
// binding — with zero client-visible request failures throughout.
func TestNodeCrashAdaptationInProc(t *testing.T) {
	runNodeCrashAdaptation(t, transport.NewInProc())
}

// TestNodeCrashAdaptationTCP is the same loop over real sockets.
func TestNodeCrashAdaptationTCP(t *testing.T) {
	runNodeCrashAdaptation(t, transport.NewTCP())
}

func runNodeCrashAdaptation(t *testing.T, tr transport.Transport) {
	w := newWorldOn(t, tr)
	w.deploySD(t)

	// Carol's Seattle session, tracked by the controller.
	session, reb, dep := w.trackCarol(t, adapt.RetryConfig{MaxAttempts: 12, BackoffMS: 25})
	headAddr := session.HeadAddr()
	if !strings.Contains(dep.String(), "ViewMailServer@sd-2") {
		t.Fatalf("Seattle chain must run through the sd-2 view initially: %s", dep)
	}

	events := make(chan adapt.Event, 512)
	ctrl := adapt.New(adapt.Config{
		DebounceMS: 20, ProbeIntervalMS: 25, ProbeTimeoutMS: 500,
		SuspicionThreshold: 2, DrainMS: 40,
	}, w.mon, w.executor(), adapt.NewRealScheduler())
	ctrl.SetProber(adapt.NewTransportProber(w.tr), w.engine.ControlAddrs)
	ctrl.OnEvent(func(e adapt.Event) {
		select {
		case events <- e:
		default:
		}
	})
	ctrl.Track(session)
	ctrl.Start()
	defer ctrl.Stop()

	carol := mail.NewViewClient("Carol", 2, w.keys.SubRing(2), mail.NewRemote(reb))

	// Baseline traffic, plus a primary-side message that reaches Carol's
	// local sea-2 view only through coherence fan-out: after the cutover
	// it can only still be there if the view's state was carried.
	if _, err := carol.Send("Alice", "before", []byte("pre-crash"), 2); err != nil {
		t.Fatalf("baseline send: %v", err)
	}
	if _, err := w.primary.Send("Alice", "Carol", "seed", []byte("carried"), 2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		msgs, err := carol.Receive()
		return err == nil && hasBody(msgs, "carried")
	}, "seed message must fan out to the sea-2 view")

	// Kill sd-2 — the node hosting the mail-store view Seattle chains
	// through — and keep client traffic flowing the whole time.
	w.wrappers[topology.SDClient].Close()

	sent := 1 // "before"
	adapted := false
	deadline := time.Now().Add(15 * time.Second)
	for !adapted || sent < 8 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for adaptation")
		}
		subject := fmt.Sprintf("during-%d", sent)
		if _, err := carol.Send("Alice", subject, []byte(subject), 2); err != nil {
			t.Fatalf("client-visible error during adaptation (send %d): %v", sent, err)
		}
		sent++
	drain:
		for {
			select {
			case e := <-events:
				if e.Kind == "adapted" {
					adapted = true
				}
			default:
				break drain
			}
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The new deployment must avoid the dead node entirely.
	newDep := session.Deployment().String()
	if strings.Contains(newDep, "@sd-2") {
		t.Errorf("adapted deployment still uses the dead node: %s", newDep)
	}
	if !strings.Contains(newDep, "ViewMailServer@sea-2") {
		t.Errorf("Seattle view must survive the adaptation: %s", newDep)
	}

	// Every send made it to the primary exactly once: the rebind layer
	// absorbed the outage without dropping or losing requests.
	waitFor(t, 2*time.Second, func() bool {
		return w.primary.Store().InboxCount("Alice") == sent
	}, fmt.Sprintf("primary inbox must hold all %d sends (has %d)",
		sent, w.primary.Store().InboxCount("Alice")))

	// State carry: the pre-crash fan-out message survives in the
	// migrated sea-2 view. (The primary never re-publishes history to a
	// fresh replica, so only the snapshot can have brought it across.)
	msgs, err := carol.Receive()
	if err != nil {
		t.Fatalf("post-adaptation receive: %v", err)
	}
	if !hasBody(msgs, "carried") {
		t.Errorf("migrated view lost the pre-crash message; inbox = %d msgs", len(msgs))
	}

	// The probe counters moved and the cutover was recorded.
	if got := session.HeadAddr(); got == headAddr {
		t.Error("head address must change across the cutover")
	}
}

// TestLinkDegradeRewireInProc: a degraded interior link evicts nothing,
// so adaptation rides on the planner's rewire check — the controller
// must re-wire Seattle's chain off the slow SD–Seattle link (moving the
// decryptor next to the primary), carrying the local view's state, with
// zero client-visible errors. Probing is off: the link change arrives
// through the monitor, as from a real monitoring substrate.
func TestLinkDegradeRewireInProc(t *testing.T) {
	w := newWorldOn(t, transport.NewInProc())
	w.deploySD(t)

	session, reb, dep := w.trackCarol(t, adapt.RetryConfig{MaxAttempts: 12, BackoffMS: 25})
	if !strings.Contains(dep.String(), "Decryptor@sd-2") {
		t.Fatalf("Seattle chain must decrypt on sd-2 initially: %s", dep)
	}

	events := make(chan adapt.Event, 512)
	ctrl := adapt.New(adapt.Config{DebounceMS: 20, DrainMS: 40}, w.mon, w.executor(), adapt.NewRealScheduler())
	ctrl.OnEvent(func(e adapt.Event) {
		select {
		case events <- e:
		default:
		}
	})
	ctrl.Track(session)
	ctrl.Start()
	defer ctrl.Stop()

	carol := mail.NewViewClient("Carol", 2, w.keys.SubRing(2), mail.NewRemote(reb))
	if _, err := carol.Send("Alice", "before", []byte("pre-degrade"), 2); err != nil {
		t.Fatalf("baseline send: %v", err)
	}
	if _, err := w.primary.Send("Alice", "Carol", "seed", []byte("carried"), 2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		msgs, err := carol.Receive()
		return err == nil && hasBody(msgs, "carried")
	}, "seed message must fan out to the sea-2 view")

	if err := w.mon.ReportLink(topology.SDGateway, topology.SeaGW, 1500, 1, nil); err != nil {
		t.Fatal(err)
	}

	sent := 1
	adapted := false
	deadline := time.Now().Add(10 * time.Second)
	for !adapted || sent < 5 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the rewire")
		}
		subject := fmt.Sprintf("during-%d", sent)
		if _, err := carol.Send("Alice", subject, []byte(subject), 2); err != nil {
			t.Fatalf("client-visible error during rewire (send %d): %v", sent, err)
		}
		sent++
	drain:
		for {
			select {
			case e := <-events:
				if e.Kind == "adapted" {
					adapted = true
				}
			default:
				break drain
			}
		}
		time.Sleep(10 * time.Millisecond)
	}

	newDep := session.Deployment().String()
	if strings.Contains(newDep, "Decryptor@sd-2") {
		t.Errorf("rewired chain still decrypts behind the degraded link: %s", newDep)
	}
	if !strings.Contains(newDep, "ViewMailServer@sea-2") {
		t.Errorf("Seattle view must survive the rewire: %s", newDep)
	}
	waitFor(t, 2*time.Second, func() bool {
		return w.primary.Store().InboxCount("Alice") == sent
	}, fmt.Sprintf("primary inbox must hold all %d sends (has %d)",
		sent, w.primary.Store().InboxCount("Alice")))
	msgs, err := carol.Receive()
	if err != nil {
		t.Fatalf("post-rewire receive: %v", err)
	}
	if !hasBody(msgs, "carried") {
		t.Errorf("re-wired view lost the pre-degrade message; inbox = %d msgs", len(msgs))
	}
}

func hasBody(msgs []*mail.Message, body string) bool {
	for _, m := range msgs {
		if string(m.Body) == body {
			return true
		}
	}
	return false
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestParkedRequestCompletesOnFlipTCP: over real sockets, requests
// that fail at the kill and park in the rebind endpoint's backoff are
// answered by the cutover's flip, not by their next retry slot. The
// slot is put 2 s away, so only the flip's wake-up can explain a
// completion within milliseconds of the "flip" stage event. Every
// attempt must finish far from the slot; the 10 ms bound on the first
// wake-up is a latency claim about a 2-CPU host that other test
// binaries share, so a scheduling hiccup gets two more attempts.
func TestParkedRequestCompletesOnFlipTCP(t *testing.T) {
	const attempts = 3
	for attempt := 1; ; attempt++ {
		first, last := parkedAcrossFlip(t)
		t.Logf("attempt %d: parked requests completed %v … %v after the flip event", attempt, first, last)
		if last > time.Second {
			t.Fatalf("last parked request completed %v after the flip event: it waited for a backoff slot, not the flip", last)
		}
		if first >= 0 && first <= 10*time.Millisecond {
			return
		}
		if attempt == attempts {
			t.Fatalf("first parked request completed %v after the flip event in each of %d attempts, want within 10ms (the next backoff slot was 2s away)", first, attempts)
		}
	}
}

// parkedAcrossFlip runs the kill scenario once and returns how long
// after the "flip" stage event the first and the last of four requests
// parked across the fault completed.
func parkedAcrossFlip(t *testing.T) (first, last time.Duration) {
	t.Helper()
	w := newWorldOn(t, transport.NewTCP())
	w.deploySD(t)
	session, reb, _ := w.trackCarol(t, adapt.RetryConfig{MaxAttempts: 3, BackoffMS: 2000})
	defer reb.Close()

	var mu sync.Mutex
	var flipAt time.Time
	ctrl := adapt.New(adapt.Config{
		DebounceMS: 20, ProbeIntervalMS: 25, ProbeTimeoutMS: 500,
		SuspicionThreshold: 2, DrainMS: 40,
	}, w.mon, w.executor(), adapt.NewRealScheduler())
	ctrl.SetProber(adapt.NewTransportProber(w.tr), w.engine.ControlAddrs)
	ctrl.OnEvent(func(e adapt.Event) {
		if e.Kind == "stage" && e.Detail == "flip" {
			mu.Lock()
			if flipAt.IsZero() {
				flipAt = time.Now()
			}
			mu.Unlock()
		}
	})
	ctrl.Track(session)
	ctrl.Start()
	defer ctrl.Stop()

	carol := mail.NewViewClient("Carol", 2, w.keys.SubRing(2), mail.NewRemote(reb))
	if _, err := carol.Send("Alice", "before", []byte("pre-crash"), 2); err != nil {
		t.Fatalf("baseline send: %v", err)
	}

	retries := metrics.DefaultRegistry.Counter("adapt.retries")
	retriesBefore := retries.Load()
	w.wrappers[topology.SDClient].Close()
	const parked = 4
	type result struct {
		err    error
		doneAt time.Time
	}
	results := make(chan result, parked)
	for i := 0; i < parked; i++ {
		go func(i int) {
			subject := fmt.Sprintf("across-%d", i)
			_, err := carol.Send("Alice", subject, []byte(subject), 2)
			results <- result{err, time.Now()}
		}(i)
	}
	var firstAt, lastAt time.Time
	for i := 0; i < parked; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("a request parked across the fault failed: %v", r.err)
		}
		if firstAt.IsZero() || r.doneAt.Before(firstAt) {
			firstAt = r.doneAt
		}
		if r.doneAt.After(lastAt) {
			lastAt = r.doneAt
		}
	}

	mu.Lock()
	flip := flipAt
	mu.Unlock()
	if flip.IsZero() {
		t.Fatal("the requests completed without any cutover flipping the binding")
	}
	if got := retries.Load() - retriesBefore; got < parked {
		t.Fatalf("%d of %d requests parked: the rest did not cross the fault", got, parked)
	}
	return firstAt.Sub(flip), lastAt.Sub(flip)
}
