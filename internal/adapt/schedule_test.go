package adapt_test

import (
	"flag"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"partsvc/internal/adapt"
	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/planner"
	"partsvc/internal/property"
	"partsvc/internal/sim"
	"partsvc/internal/smock"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

var schedules = flag.Int("schedules", defaultSchedules, "seeded fault schedules TestFaultSchedules (or, when given, TestFaultSchedulesGrouped) runs")

// scheduleCount is the -schedules flag when it was given, def otherwise.
func scheduleCount(def int) int {
	n := def
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "schedules" {
			n = *schedules
		}
	})
	return n
}

// schedProber answers for every node that is not crashed, and hands the
// schedule the loop's evidence sink.
type schedProber struct {
	crashed map[netmodel.NodeID]bool
	sink    func(addr string)
}

func (p *schedProber) Probe(node netmodel.NodeID, _ string, _ float64) error {
	if p.crashed[node] {
		return fmt.Errorf("probe %s: connection refused", node)
	}
	return nil
}

func (p *schedProber) OnPeerLost(fn func(addr string)) { p.sink = fn }

// lost reports the connections to node's control address lost.
func (p *schedProber) lost(node netmodel.NodeID) {
	if p.sink != nil {
		p.sink("ctl-" + string(node))
	}
}

// scheduleWorld is one seeded schedule's world: the case-study network
// and a controller on virtual time over a real engine, whose node
// wrappers install components that answer every request empty over the
// in-process transport. Even seeds deploy the mail service (chains),
// odd seeds the portal service (branching graphs).
type scheduleWorld struct {
	env    *sim.Env
	mon    *netmon.Monitor
	gs     *smock.GenericServer
	ctrl   *adapt.Controller
	prober *schedProber
	reqs   []planner.Request
	rng    *rand.Rand
	// What the schedule found: audit violations (with their virtual
	// time), suspicions, and suspicions of a node that was answering.
	violations []string
	suspects   int
	false_     int
	nextName   int
	// splits counts the waves in which one deployment's sessions were
	// both deferred and suppressed: the governor parting a group.
	splits   int
	sessions map[string]*adapt.Session
	verdicts map[split]int
}

type split struct {
	wave uint64
	dep  *planner.Deployment
}

// killable are the nodes a schedule may crash: every node but the mail
// primary's.
var killable = []netmodel.NodeID{
	topology.NYClient, topology.NYExtra, topology.SDGateway, topology.SDClient, topology.SeaGW, topology.SeaClient,
}

// flappable are the links a schedule may sever, flap and heal.
var flappable = [][2]netmodel.NodeID{
	{topology.NYServer, topology.SDGateway},
	{topology.SDGateway, topology.SeaGW},
	{topology.NYServer, topology.SeaGW},
	{topology.SDGateway, topology.SDClient},
}

// newScheduleWorld builds seed's world. Its setup is static: an error
// there is a bug, and panics. A grouped world tracks each request one to
// three times, so that wave groups have several members, and runs the
// governor: a token bucket that defers some of a group's cutovers and an
// anti-flap window that suppresses the next rewire of those that cut
// over.
func newScheduleWorld(seed int64, grouped bool) *scheduleWorld {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	net := topology.CaseStudy()
	w := &scheduleWorld{env: sim.NewEnv(), mon: netmon.New(net), rng: rand.New(rand.NewSource(seed))}
	svc := spec.MailService()
	if seed%2 == 1 {
		svc = schedPortalService()
	}
	tr := transport.NewInProc()
	reg := smock.NewRegistry()
	for _, comp := range svc.Components {
		must(reg.Register(comp.Name, func(*smock.ActivationContext) (transport.Handler, error) {
			return transport.HandlerFunc(func(m *wire.Message) *wire.Message {
				return &wire.Message{Kind: wire.KindResponse, ID: m.ID}
			}), nil
		}))
	}
	engine := smock.NewEngine(tr)
	wrappers := map[netmodel.NodeID]*smock.NodeWrapper{}
	for _, n := range net.Nodes() {
		wrappers[n.ID] = smock.NewNodeWrapper(n.ID, tr, reg, transport.NewRealClock())
		engine.RegisterWrapper(wrappers[n.ID])
	}
	pl := planner.New(svc, net)
	if seed%2 == 0 {
		primary, err := pl.PrimaryPlacement(spec.CompMailServer, topology.NYServer)
		must(err)
		addr, err := wrappers[topology.NYServer].Install(smock.InstallOrder{Component: spec.CompMailServer, InstanceID: "mail-primary"})
		must(err)
		engine.AdoptInstance(primary, addr)
		for _, c := range []struct {
			node netmodel.NodeID
			user string
		}{{topology.NYClient, "Alice"}, {topology.SDClient, "Alice"}, {topology.SeaClient, "Carol"}, {topology.SDGateway, "Bob"}} {
			w.reqs = append(w.reqs, planner.Request{Interface: spec.IfaceClient, ClientNode: c.node, User: c.user, RateRPS: 50})
		}
	} else {
		for _, node := range []netmodel.NodeID{topology.SDClient, topology.NYClient, topology.SeaClient} {
			w.reqs = append(w.reqs, planner.Request{Interface: "PortalInterface", ClientNode: node, RateRPS: 10})
		}
	}
	w.gs = smock.NewGenericServer(svc, pl, engine)
	cfg := adapt.Config{
		DebounceMS: 50, ProbeIntervalMS: 250, ProbeTimeoutMS: 100, SuspicionThreshold: 2, DrainMS: 100,
	}
	if grouped {
		cfg.CutoverRatePerSec, cfg.CutoverBurst, cfg.HysteresisMS = 4, 2, 1500
	}
	w.ctrl = adapt.New(cfg, w.mon, &adapt.EngineExecutor{Server: w.gs, Engine: engine, Transport: tr, Spec: svc}, adapt.NewSimScheduler(w.env))
	w.prober = &schedProber{crashed: map[netmodel.NodeID]bool{}}
	targets := map[netmodel.NodeID]string{}
	for _, n := range net.Nodes() {
		targets[n.ID] = "ctl-" + string(n.ID)
	}
	w.ctrl.SetProber(w.prober, func() map[netmodel.NodeID]string { return targets })
	w.sessions, w.verdicts = map[string]*adapt.Session{}, map[split]int{}
	w.ctrl.OnEvent(func(e adapt.Event) {
		if e.Kind == "deferred" || e.Kind == "suppressed" {
			k := split{e.Wave, w.sessions[e.Session].Deployment()}
			bit := 1
			if e.Kind == "suppressed" {
				bit = 2
			}
			if before := w.verdicts[k]; before != 3 && before|bit == 3 {
				w.splits++
			}
			w.verdicts[k] |= bit
		}
		if e.Kind != "suspect" {
			return
		}
		w.suspects++
		if f := strings.Fields(e.Detail); len(f) > 1 && !w.prober.crashed[netmodel.NodeID(f[1])] {
			w.false_++
		}
	})
	// The audit runs after every wave, once the wave has let go of the
	// loop.
	w.ctrl.OnWave(func(adapt.WaveReport) { w.env.After(0, w.audit) })
	for _, req := range w.reqs {
		copies := 1
		if grouped {
			copies += w.rng.Intn(3)
		}
		for range copies {
			w.track(req)
		}
	}
	w.ctrl.Start()
	return w
}

func (w *scheduleWorld) audit() {
	for _, v := range w.ctrl.Audit() {
		w.violations = append(w.violations, fmt.Sprintf("t=%.1f %s", w.env.Now(), v))
	}
}

// track deploys req through the generic server, as an access request
// does, and tracks the session.
func (w *scheduleWorld) track(req planner.Request) {
	head, dep, err := w.gs.Access(req)
	if err != nil {
		return // nothing placeable right now: the client waits
	}
	w.nextName++
	s := adapt.NewSession(fmt.Sprintf("s%d", w.nextName), "", req, dep, head)
	w.sessions[s.Name] = s
	w.ctrl.Track(s)
}

// script arms a seeded schedule of ops over [0, spanMS) of virtual time.
func (w *scheduleWorld) script(ops int, spanMS float64) {
	at := func() float64 { return 1 + w.rng.Float64()*spanMS }
	for i := 0; i < ops; i++ {
		start := at()
		switch w.rng.Intn(6) {
		case 0: // kill a node, the data path noticing or not; restore it later
			node := killable[w.rng.Intn(len(killable))]
			noticed := w.rng.Intn(2) == 0
			w.env.At(start, func() {
				w.prober.crashed[node] = true
				if noticed {
					w.prober.lost(node)
				}
			})
			w.env.At(start+200+w.rng.Float64()*2000, func() { w.prober.crashed[node] = false })
		case 1: // a flapping link
			l := flappable[w.rng.Intn(len(flappable))]
			for k, t0 := 0, start; k < 2+w.rng.Intn(4); k++ {
				w.env.At(t0, func() { w.sever(l) })
				t0 += 10 + w.rng.Float64()*100
				w.env.At(t0, func() { w.heal(l) })
				t0 += 10 + w.rng.Float64()*100
			}
		case 2: // a link down, healed much later
			l := flappable[w.rng.Intn(len(flappable))]
			w.env.At(start, func() { w.sever(l) })
			w.env.At(start+500+w.rng.Float64()*3000, func() { w.heal(l) })
		case 3: // a session leaves
			w.env.At(start, func() {
				if ss := w.ctrl.Sessions(); len(ss) > 0 {
					w.ctrl.Untrack(ss[w.rng.Intn(len(ss))].Name)
				}
			})
		case 4: // a session arrives
			req := w.reqs[w.rng.Intn(len(w.reqs))]
			w.env.At(start, func() { w.track(req) })
		case 5: // spurious evidence against a node that answers
			node := killable[w.rng.Intn(len(killable))]
			w.env.At(start, func() {
				if !w.prober.crashed[node] {
					w.prober.lost(node)
				}
			})
		}
	}
}

// The case study's links, severed as the simulator severs them: so slow
// that routing avoids them whenever it can.
func (w *scheduleWorld) sever(l [2]netmodel.NodeID) {
	_ = w.mon.ReportLink(l[0], l[1], 1e9, 1e-6, nil)
}

func (w *scheduleWorld) heal(l [2]netmodel.NodeID) {
	orig, _ := topology.CaseStudy().Link(l[0], l[1])
	_ = w.mon.ReportLink(l[0], l[1], orig.LatencyMS, orig.BandwidthMbps, nil)
}

// runSchedule runs one seeded schedule to quiescence — every node back
// up, every link healed, the loop settled — and audits once more.
func runSchedule(seed int64, grouped bool) *scheduleWorld {
	w := newScheduleWorld(seed, grouped)
	const spanMS = 8000
	w.script(4+w.rng.Intn(8), spanMS)
	w.env.RunUntil(spanMS + 4000)
	w.ctrl.Stop()
	w.audit()
	return w
}

// scheduleOutcome is what one seeded schedule found.
type scheduleOutcome struct {
	seed                    int64
	violations              []string
	suspects, falseSuspects int
	splits                  int
}

// runSchedules runs the seeds on two workers and returns their outcomes
// in seed order.
func runSchedules(seeds []int64, grouped bool) []scheduleOutcome {
	out := make([]scheduleOutcome, len(seeds))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(seeds); i = int(next.Add(1)) - 1 {
				w := runSchedule(seeds[i], grouped)
				out[i] = scheduleOutcome{seeds[i], w.violations, w.suspects, w.false_, w.splits}
			}
		}()
	}
	wg.Wait()
	return out
}

// checkSchedules fails on every audit violation and on any suspicion of
// a node that answered its probes, and returns the suspicions.
func checkSchedules(t *testing.T, seeds []int64, grouped bool) (suspects int) {
	t.Helper()
	falseSuspects, splits := 0, 0
	for _, o := range runSchedules(seeds, grouped) {
		if len(o.violations) > 0 {
			t.Errorf("seed %d: %d audit violations, first: %v", o.seed, len(o.violations), o.violations[0])
		}
		suspects += o.suspects
		falseSuspects += o.falseSuspects
		splits += o.splits
	}
	if grouped {
		t.Logf("%d waves deferred some sessions of one deployment and suppressed others", splits)
		if splits == 0 {
			t.Error("the governor never parted a group: the grouped schedules check nothing of it")
		}
	}
	if falseSuspects > 0 {
		t.Errorf("%d suspicions of a node that answered its probes", falseSuspects)
	}
	return suspects
}

// TestFaultSchedules runs seeded schedules of node kills and restores,
// flapping links, links down and healed, sessions leaving and arriving,
// and spurious data-path evidence against live nodes, over chains (the
// mail service, even seeds) and branching graphs (the portal service,
// odd seeds), all on virtual time. The loop's audit must be clean after
// every wave and at quiescence, and no node that answers its probes is
// ever suspected. -schedules sets the count.
func TestFaultSchedules(t *testing.T) {
	start := time.Now()
	seeds := make([]int64, *schedules)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	suspects := checkSchedules(t, seeds, false)
	t.Logf("%d schedules in %v, %d suspicions", len(seeds), time.Since(start), suspects)
}

// TestFaultSchedulesGrouped runs the same kind of schedules over wave
// groups of one to three sessions each, under a governor that paces
// cutovers at 4/s with a burst of 2 and suppresses optimization rewires
// within 1.5 s of a session's last cutover: one group's members part
// ways — some commit, some wait for a token, some are held back — and
// the loop must keep its books per group exactly as it would per
// session. The audit must be clean after every wave and at quiescence,
// and some wave must part a group. 300 schedules by default (≈ 7 s on
// 2 CPUs; 30 under -race); -schedules sets the count.
func TestFaultSchedulesGrouped(t *testing.T) {
	start := time.Now()
	seeds := make([]int64, scheduleCount(defaultSchedules*3/10))
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	suspects := checkSchedules(t, seeds, true)
	t.Logf("%d grouped schedules in %v, %d suspicions", len(seeds), time.Since(start), suspects)
}

// TestFaultScheduleRegressions replays the seeds whose schedules found
// a defect, one each, so they run under the race detector too:
//   - 1: a replan that kept a deployment broken by a severed link
//     reported it unchanged;
//   - 4: a session without bindings kept a rewired instance's stale
//     wiring (Table.Covers checked keys only);
//   - 27: a session kept the evicted instances of a key another session
//     had superseded;
//   - 30: a node death under an anchored chain replanned nobody;
//   - 46, 74: a pinned instance's upstream chain was drained and torn
//     down under it;
//   - 62: a plan anchored on an instance wired to one evicted earlier;
//   - 199: a session's footprint kept the routes it was planned on
//     after they moved;
//   - 258: an anchor chained through a superseded instance on a dead
//     node;
//   - 540: a repair kept an anchor whose instance had left the reuse set;
//   - 2326, 7682, and 322 over wave groups: a plan anchored on a chain
//     through a superseded instance on a dead node, which eviction left
//     alive.
func TestFaultScheduleRegressions(t *testing.T) {
	checkSchedules(t, []int64{1, 4, 27, 30, 46, 62, 74, 199, 258, 540, 2326, 7682}, false)
	for _, o := range runSchedules([]int64{322}, true) {
		if len(o.violations) > 0 {
			t.Errorf("grouped seed %d: %d audit violations, first: %v", o.seed, len(o.violations), o.violations[0])
		}
	}
}

// schedPortalService is a branching service: a Portal requires a
// confidential ServerInterface that only trust-5 nodes provide and a
// LogInterface, so every linkage graph is a tree.
func schedPortalService() *spec.Service {
	lit := func(v property.Value) property.Expr { return property.Lit(v) }
	conf := func(b bool) map[string]property.Expr {
		return map[string]property.Expr{"Confidentiality": lit(property.Bool(b))}
	}
	return &spec.Service{
		Name: "portal",
		Properties: []property.Type{
			property.BoolType("Confidentiality"),
			property.IntervalType("TrustLevel", 1, 5),
		},
		Interfaces: []spec.InterfaceDecl{
			{Name: "PortalInterface", Properties: []string{"Confidentiality"}},
			{Name: "ServerInterface", Properties: []string{"Confidentiality", "TrustLevel"}},
			{Name: "LogInterface", Properties: []string{"Confidentiality"}},
		},
		Components: []spec.Component{
			{
				Name:       "Portal",
				Implements: []spec.InterfaceSpec{{Name: "PortalInterface", Props: conf(false)}},
				Requires:   []spec.InterfaceSpec{{Name: "ServerInterface", Props: conf(true)}, {Name: "LogInterface"}},
				Behaviors:  spec.Behaviors{CPUMSPerRequest: 0.5, RequestBytes: 1024, ResponseBytes: 1024},
			},
			{
				Name: "Server",
				Implements: []spec.InterfaceSpec{{Name: "ServerInterface", Props: map[string]property.Expr{
					"Confidentiality": lit(property.Bool(true)), "TrustLevel": lit(property.Int(5)),
				}}},
				Conditions: []property.Condition{property.CondGE("Node.TrustLevel", 5)},
				Behaviors:  spec.Behaviors{CapacityRPS: 1000, CPUMSPerRequest: 1, RequestBytes: 4096, ResponseBytes: 4096},
			},
			{
				Name:       "LogServer",
				Implements: []spec.InterfaceSpec{{Name: "LogInterface", Props: conf(false)}},
				Behaviors:  spec.Behaviors{CapacityRPS: 5000, CPUMSPerRequest: 0.1, RequestBytes: 256, ResponseBytes: 64},
			},
			{
				Name:       "Encryptor2",
				Implements: []spec.InterfaceSpec{{Name: "ServerInterface", Props: conf(true)}},
				Requires:   []spec.InterfaceSpec{{Name: "ServerInterface"}},
				Behaviors:  spec.Behaviors{CPUMSPerRequest: 0.2, RequestBytes: 4160, ResponseBytes: 4160},
			},
		},
		ModRules: property.RuleTable{"Confidentiality": property.ConfidentialityRule("Confidentiality")},
	}
}
