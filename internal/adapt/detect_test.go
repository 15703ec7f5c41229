package adapt_test

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"partsvc/internal/adapt"
	"partsvc/internal/mail"
	"partsvc/internal/netmodel"
	"partsvc/internal/topology"
	"partsvc/internal/transport"
)

// evidenceProber is a Prober whose data-path evidence the test injects:
// lost(addr) is what a transport reports when addr's peer ends a
// connection. Probes fail for the nodes in dead and are logged with
// their virtual time.
type evidenceProber struct {
	h      *harness
	mu     sync.Mutex
	dead   map[netmodel.NodeID]bool
	probes []float64 // virtual time of each probe of "b"
	sink   func(addr string)
}

func (p *evidenceProber) Probe(node netmodel.NodeID, _ string, _ float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if node == "b" {
		p.probes = append(p.probes, p.h.env.Now())
	}
	if p.dead[node] {
		return errors.New("probe: connection refused")
	}
	return nil
}

func (p *evidenceProber) OnPeerLost(fn func(addr string)) { p.sink = fn }

func (p *evidenceProber) lost(addr string) { p.sink(addr) }

func (p *evidenceProber) kill(node netmodel.NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dead[node] = true
}

func (p *evidenceProber) probesOfB() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]float64(nil), p.probes...)
}

// newEvidenceHarness is newHarness with an evidenceProber probing a and
// b every 100 ms at threshold 2, and an instance of C on b served at
// "inst-b" in the table.
func newEvidenceHarness(t *testing.T, cfg adapt.Config) (*harness, *evidenceProber) {
	t.Helper()
	cfg.ProbeIntervalMS, cfg.SuspicionThreshold = 100, 2
	h := newHarness(t, cfg, &fakeExec{diff: unchangedDiff()})
	p := &evidenceProber{h: h, dead: map[netmodel.NodeID]bool{}}
	h.ctrl.SetProber(p, func() map[netmodel.NodeID]string {
		return map[netmodel.NodeID]string{"a": "ctl-a", "b": "ctl-b"}
	})
	h.exec.Table().Adopt(place("X", "b"), "inst-b")
	h.ctrl.Start()
	return h, p
}

// TestPeerLostConfirmedByOneProbe: a connection to an instance on a
// dead node is one strike, and the one probe it triggers is the second:
// the node is suspected at the evidence's virtual time, between probe
// rounds, and reported down to the monitor.
func TestPeerLostConfirmedByOneProbe(t *testing.T) {
	h, p := newEvidenceHarness(t, adapt.Config{DebounceMS: 50})
	h.env.At(130, func() {
		p.kill("b")
		p.lost("inst-b")
	})
	h.env.RunUntil(150)
	suspects := h.eventsOf("suspect")
	if len(suspects) != 1 || suspects[0].AtMS != 130 {
		t.Fatalf("suspect events = %v, want one at t=130", suspects)
	}
	if got := p.probesOfB(); len(got) != 2 || got[0] != 100 || got[1] != 130 {
		t.Fatalf("probes of b at %v, want the round at t=100 and the one confirmation at t=130", got)
	}
	if n, _ := h.net.Node("b"); !n.Down {
		t.Fatal("a confirmed strike must report the node down")
	}
}

// TestPeerLostOnLiveNodeClears: evidence against a node that answers
// its probe costs one probe and no event, and clears the strike: a
// later death still needs two missed rounds.
func TestPeerLostOnLiveNodeClears(t *testing.T) {
	h, p := newEvidenceHarness(t, adapt.Config{DebounceMS: 50})
	h.env.At(130, func() { p.lost("ctl-b") })
	h.env.At(150, func() { p.kill("b") })
	h.env.RunUntil(350)
	if got := p.probesOfB(); len(got) != 4 || got[1] != 130 {
		t.Fatalf("probes of b at %v, want rounds at 100, 200, 300 and one confirmation at 130", got)
	}
	suspects := h.eventsOf("suspect")
	if len(suspects) != 1 || suspects[0].AtMS != 300 {
		t.Fatalf("suspect events = %v, want one at t=300 (two missed rounds after the cleared strike)", suspects)
	}
}

// TestPeerLostIgnored: evidence for an address nothing serves, for a
// node already down, or arriving after Stop sends no probe.
func TestPeerLostIgnored(t *testing.T) {
	h, p := newEvidenceHarness(t, adapt.Config{DebounceMS: 50})
	h.env.At(110, func() { p.lost("nobody") })
	h.env.At(150, func() { p.kill("b") })
	// The rounds at 200 and 300 declare b down; evidence after that is
	// moot.
	h.env.At(310, func() { p.lost("inst-b") })
	h.env.At(320, func() {
		h.ctrl.Stop()
		p.lost("ctl-a")
	})
	h.env.RunUntil(1000)
	if got := p.probesOfB(); len(got) != 3 {
		t.Fatalf("probes of b at %v, want only the rounds at 100, 200 and 300", got)
	}
	if n := len(h.eventsOf("suspect")); n != 1 {
		t.Fatalf("got %d suspect events, want 1", n)
	}
}

// TestBreakingChangeSkipsDebounce: a node going down under a session's
// placement opens its wave at the change's virtual time; the node's
// recovery and a latency improvement still wait DebounceMS.
func TestBreakingChangeSkipsDebounce(t *testing.T) {
	h := newHarness(t, adapt.Config{DebounceMS: 50}, &fakeExec{diff: unchangedDiff()})
	h.ctrl.Start()
	h.env.At(100, func() { _ = h.mon.ReportNodeDown("b") })
	h.env.At(200, func() { _ = h.mon.ReportNodeUp("b") })
	h.env.At(400, func() { h.improve(t, 0.5) })
	h.env.RunUntil(1000)
	var opened []float64
	for _, e := range h.eventsOf("wave-open") {
		opened = append(opened, e.AtMS)
	}
	want := []float64{100, 250, 450}
	if len(opened) != len(want) {
		t.Fatalf("waves opened at %v, want %v", opened, want)
	}
	for i := range want {
		if opened[i] != want[i] {
			t.Fatalf("waves opened at %v, want %v", opened, want)
		}
	}
}

// TestPeerLostRecoversWithinOneProbePeriodTCP: over real sockets with
// a 3 s probe period, killing sd-2 is detected from the connection the
// sea-2 encryptor holds to it, and Carol's session is moved off the
// node well before the first probe round is due.
func TestPeerLostRecoversWithinOneProbePeriodTCP(t *testing.T) {
	w := newWorldOn(t, transport.NewTCP())
	w.deploySD(t)
	session, reb, _ := w.trackCarol(t, adapt.RetryConfig{MaxAttempts: 12, BackoffMS: 25})
	defer reb.Close()

	const probePeriod = 3 * time.Second
	var mu sync.Mutex
	at := map[string]time.Time{}
	ctrl := w.Loop(float64(probePeriod / time.Millisecond))
	ctrl.OnEvent(func(e adapt.Event) {
		mu.Lock()
		defer mu.Unlock()
		if _, ok := at[e.Kind]; !ok {
			at[e.Kind] = time.Now()
		}
	})
	ctrl.Track(session)
	ctrl.Start()
	defer ctrl.Stop()
	carol := mail.NewViewClient("Carol", 2, w.Keys.SubRing(2), mail.NewRemote(reb))
	if _, err := carol.Send("Alice", "before", []byte("pre-crash"), 2); err != nil {
		t.Fatalf("baseline send: %v", err)
	}

	kill := time.Now()
	w.Wrappers[topology.SDClient].Close()
	waitFor(t, probePeriod, func() bool {
		mu.Lock()
		defer mu.Unlock()
		_, ok := at["adapted"]
		return ok
	}, "no adaptation within one probe period of the kill")
	mu.Lock()
	suspected, adapted := at["suspect"].Sub(kill), at["adapted"].Sub(kill)
	mu.Unlock()
	t.Logf("suspected %v and adapted %v after the kill", suspected, adapted)
	if adapted > probePeriod/3 {
		t.Fatalf("adapted %v after the kill, want well inside the %v probe period", adapted, probePeriod)
	}
	if dep := session.Deployment().String(); strings.Contains(dep, "@sd-2") {
		t.Fatalf("adapted deployment still uses the dead node: %s", dep)
	}
	if _, err := carol.Send("Alice", "after", []byte("post-crash"), 2); err != nil {
		t.Fatalf("send after the cutover: %v", err)
	}
}

// TestRecoveryVersusProbeIntervalTCP measures kill → adapted over real
// sockets with no traffic in flight, at several probe periods, with the
// prober as the only source of detection and with the data path's
// evidence beside it. Alone, the prober needs two missed probes, so
// recovery can never beat one period; the evidence does not wait for
// one. go test -v logs kill → adapted per probe period, with and
// without the evidence.
func TestRecoveryVersusProbeIntervalTCP(t *testing.T) {
	for _, periodMS := range []float64{25, 50, 100, 200} {
		period := time.Duration(periodMS * float64(time.Millisecond))
		for _, evidence := range []bool{false, true} {
			took := recoverAfterKill(t, periodMS, evidence)
			t.Logf("probe period %v, data-path evidence %v: adapted %v after the kill", period, evidence, took)
			if !evidence && took < period*9/10 {
				t.Errorf("the prober alone adapted %v after the kill, inside one %v period", took, period)
			}
			if evidence && periodMS >= 200 && took >= period {
				t.Errorf("with evidence, adapted %v after the kill: not inside one %v period", took, period)
			}
		}
	}
}

// recoverAfterKill kills sd-2 under an idle Seattle session and returns
// how long the loop took to move it. Without evidence the prober is
// wrapped in a ProberFunc, which watches no data path.
func recoverAfterKill(t *testing.T, periodMS float64, evidence bool) time.Duration {
	t.Helper()
	w := newWorldOn(t, transport.NewTCP())
	w.deploySD(t)
	session, reb, _ := w.trackCarol(t, adapt.RetryConfig{})
	defer reb.Close()
	ctrl := w.Loop(periodMS)
	if !evidence {
		ctrl.SetProber(adapt.ProberFunc(adapt.NewTransportProber(w.Tr).Probe), w.Engine.ControlAddrs)
	}
	adapted := make(chan time.Time, 1)
	ctrl.OnEvent(func(e adapt.Event) {
		if e.Kind == "adapted" {
			select {
			case adapted <- time.Now():
			default:
			}
		}
	})
	ctrl.Track(session)
	ctrl.Start()
	defer ctrl.Stop()
	kill := time.Now()
	w.Wrappers[topology.SDClient].Close()
	select {
	case at := <-adapted:
		return at.Sub(kill)
	case <-time.After(5 * time.Second):
		t.Fatalf("probe period %v ms: no adaptation within 5 s", periodMS)
		return 0
	}
}

// countingProber is a TransportProber that counts its probes and the
// data-path evidence its transport reports.
type countingProber struct {
	*adapt.TransportProber
	probes, reports atomic.Int64
}

func (p *countingProber) Probe(node netmodel.NodeID, addr string, timeoutMS float64) error {
	p.probes.Add(1)
	return p.TransportProber.Probe(node, addr, timeoutMS)
}

func (p *countingProber) OnPeerLost(fn func(addr string)) {
	p.TransportProber.OnPeerLost(func(addr string) {
		p.reports.Add(1)
		fn(addr)
	})
}

// TestTeardownIsNotEvidenceTCP: a rewire over real sockets drains the
// superseded Seattle instances and tears them down, which ends a client
// connection still open to the old head from the far side. The teardown
// forgets an instance before it closes it, so that report finds no
// node: no strike, no confirming probe, no suspect.
func TestTeardownIsNotEvidenceTCP(t *testing.T) {
	w := newWorldOn(t, transport.NewTCP())
	w.deploySD(t)
	session, reb, _ := w.trackCarol(t, adapt.RetryConfig{})
	defer reb.Close()
	ctrl := w.Loop(60000) // no periodic round during the test
	p := &countingProber{TransportProber: adapt.NewTransportProber(w.Tr)}
	ctrl.SetProber(p, w.Engine.ControlAddrs)
	var mu sync.Mutex
	var kinds []string
	ctrl.OnEvent(func(e adapt.Event) {
		mu.Lock()
		defer mu.Unlock()
		kinds = append(kinds, e.Kind+":"+e.Detail)
	})
	ctrl.Track(session)
	ctrl.Start()
	defer ctrl.Stop()
	// A client that never flips keeps its connection to the old head.
	stale, err := w.Tr.Dial(session.HeadAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	carol := mail.NewViewClient("Carol", 2, w.Keys.SubRing(2), mail.NewRemote(stale))
	if _, err := carol.Send("Alice", "before", []byte("old chain"), 2); err != nil {
		t.Fatalf("send through the old chain: %v", err)
	}

	degradeSDSeattle(t, w)
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return slices.Contains(kinds, "stage:teardown")
	}, "the rewire tore nothing down")
	if !rewired(session) {
		t.Fatalf("Carol was not rewired off the degraded link: %s", session.Deployment())
	}
	waitFor(t, 5*time.Second, func() bool { return p.reports.Load() > 0 },
		"the teardown ended no connection from the far side")
	time.Sleep(50 * time.Millisecond) // let the reports' confirmations run
	mu.Lock()
	defer mu.Unlock()
	if n := p.probes.Load(); n != 0 || slices.ContainsFunc(kinds, func(k string) bool { return strings.HasPrefix(k, "suspect:") }) {
		t.Fatalf("%d teardown reports cost %d probes; events %v", p.reports.Load(), n, kinds)
	}
}
