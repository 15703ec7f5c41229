package bench

import (
	"fmt"

	"partsvc/internal/adapt"
	"partsvc/internal/metrics"
	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/planner"
	"partsvc/internal/sim"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

// Fig8Row is one adaptation experiment data point: how one scripted
// fault propagates through the monitor → replan → redeploy loop, and
// what the client perceived before, during, and after.
type Fig8Row struct {
	Scenario string
	// SteadyMS is the mean send latency before the fault.
	SteadyMS float64
	// DuringMS is the mean send latency between the fault and the
	// cutover (retry waits included — what the user rides through).
	DuringMS float64
	// DetectMS is fault injection → the controller's replan (for node
	// crashes this includes the failure detector's suspicion window).
	DetectMS float64
	// CutoverMS is replan → bindings flipped (the staged cutover).
	CutoverMS float64
	// PostMS is the mean send latency after adaptation completed.
	PostMS float64
	// Sends counts completed client sends over the whole run.
	Sends int
}

// Fig8Config tunes the adaptation experiment.
type Fig8Config struct {
	// DurationMS is the total virtual run time per scenario.
	DurationMS float64
	// FaultAtMS is the fault injection time (well after warm-up).
	FaultAtMS float64
	// SendEveryMS is the client's send period.
	SendEveryMS float64
	// RetryMS is the client's retry backoff while its chain is broken.
	RetryMS float64
	// ServiceMS is the modeled per-component service time.
	ServiceMS float64
	// Workers bounds scenario-sweep parallelism (0 = GOMAXPROCS).
	Workers int
	// Seed feeds scenarioSeed (the model is randomness-free; the seed
	// only keeps env construction uniform with the other benchmarks).
	Seed int64
}

// DefaultFig8Config returns the configuration used for the A7 table.
func DefaultFig8Config() Fig8Config {
	return Fig8Config{
		DurationMS:  30000,
		FaultAtMS:   10000,
		SendEveryMS: 500,
		RetryMS:     50,
		ServiceMS:   1,
	}
}

// Fig8Scenario pairs a name with the fault script it injects into the
// case-study topology.
type Fig8Scenario struct {
	Name   string
	Faults FaultScript
}

// Fig8Scenarios returns the three adaptation scenarios: the SD–Seattle
// link degrades, the SD–Seattle link dies, and the San Diego branch
// node hosting Seattle's upstream decryptor/view crashes outright.
func Fig8Scenarios(cfg Fig8Config) []Fig8Scenario {
	at := cfg.FaultAtMS
	return []Fig8Scenario{
		{Name: "link-degrade", Faults: FaultScript{{
			AtMS: at, Kind: FaultLinkDegrade,
			A: topology.SDGateway, B: topology.SeaGW,
			LatencyMS: 1500, BandwidthMbps: 1,
		}}},
		{Name: "link-down", Faults: FaultScript{{
			AtMS: at, Kind: FaultLinkDown,
			A: topology.SDGateway, B: topology.SeaGW,
		}}},
		{Name: "node-crash", Faults: FaultScript{{
			AtMS: at, Kind: FaultNodeCrash, Node: topology.SDClient,
		}}},
	}
}

// RunFig8 runs every adaptation scenario and returns one row each, in
// Fig8Scenarios order. Scenario runs are independent sim.Envs fanned
// out over the worker pool; rows are byte-identical to a serial run.
func RunFig8(cfg Fig8Config) []Fig8Row {
	scs := Fig8Scenarios(cfg)
	rows := make([]Fig8Row, len(scs))
	forEach(cfg.Workers, len(rows), func(i int) {
		rows[i] = runFig8Scenario(cfg, scs[i])
	})
	return rows
}

// Fig8Table renders rows as the experiment table printed by
// cmd/mailbench -fig8.
func Fig8Table(rows []Fig8Row) string {
	t := metrics.NewTable("scenario", "steady_ms", "during_ms", "detect_ms", "cutover_ms", "post_ms", "sends")
	for _, r := range rows {
		t.AddRow(r.Scenario, r.SteadyMS, r.DuringMS, r.DetectMS, r.CutoverMS, r.PostMS, r.Sends)
	}
	return t.String()
}

// fig8Exec implements adapt.Executor against the planner alone: the
// modeled world has no listeners to install, so deploying a diff is
// bookkeeping (the planner's reuse set) plus a fresh head address. The
// replan pass mirrors smock.GenericServer.Replan's orphan handling for
// chain deployments: placements are head-first, so everything in front
// of an evicted placement is transitively wired through it and must be
// dropped from the reuse set before the second pass.
type fig8Exec struct {
	pl  *planner.Planner
	gen int
}

// RepairReplan ignores the changed-element set: the model always takes
// the full replan path.
func (x *fig8Exec) RepairReplan(old *planner.Deployment, req planner.Request, _ *planner.ChangedSet) (*planner.Diff, error) {
	diff, err := x.pl.ReplanRewire(old, req)
	if err != nil {
		return nil, err
	}
	if old == nil || len(diff.Evicted) == 0 {
		return diff, nil
	}
	evicted := map[string]bool{}
	for _, p := range diff.Evicted {
		evicted[p.Key()] = true
	}
	last := -1
	for i, p := range old.Placements {
		if evicted[p.Key()] {
			last = i
		}
	}
	var orphans []string
	for i := 0; i < last; i++ {
		if p := old.Placements[i]; !evicted[p.Key()] {
			orphans = append(orphans, p.Key())
		}
	}
	if len(orphans) == 0 {
		return diff, nil
	}
	x.pl.DropExistingByKey(orphans...)
	diff2, err := x.pl.Replan(old, req)
	if err != nil {
		return nil, err
	}
	diff2.Evicted = append(diff.Evicted, diff2.Evicted...)
	return diff2, nil
}

func (x *fig8Exec) Snapshot(old *planner.Deployment, diff *planner.Diff) map[string][]byte {
	return nil // modeled world: state carry is free
}

func (x *fig8Exec) Deploy(diff *planner.Diff, states map[string][]byte) (string, error) {
	x.gen++
	x.pl.AddExisting(diff.New.Placements...)
	return fmt.Sprintf("sim-head-%d", x.gen), nil
}

func (x *fig8Exec) Publish(service, addr string) error { return nil }

func (x *fig8Exec) Discard(placements []planner.Placement) {
	x.pl.DropExisting(placements...)
}

// fig8World is the modeled client side of one scenario run. Everything
// here executes on the simulation loop, so the plain maps are safe.
type fig8World struct {
	net     *netmodel.Network
	crashed map[netmodel.NodeID]bool
	sess    *adapt.Session
	cfg     Fig8Config
}

// chainLatencyMS models one client send through the session's current
// chain: a request/reply round trip over every inter-placement path
// plus per-component service time. Charging the full chain (a send that
// writes through to its anchor) makes interior link changes visible in
// the client latency. A chain touching a crashed or down node, or one
// with no route between consecutive placements, is broken.
func (w *fig8World) chainLatencyMS(dep *planner.Deployment) (float64, bool) {
	total := 0.0
	for _, p := range dep.Placements {
		if w.crashed[p.Node] {
			return 0, false
		}
		if n, ok := w.net.Node(p.Node); !ok || n.Down {
			return 0, false
		}
		total += w.cfg.ServiceMS
	}
	routes := w.net.Routes()
	for i := 0; i+1 < len(dep.Placements); i++ {
		path, ok := routes.Path(dep.Placements[i].Node, dep.Placements[i+1].Node)
		if !ok {
			return 0, false
		}
		total += 2 * path.LatencyMS
	}
	return total, true
}

type fig8Sample struct{ start, latency float64 }

// runFig8Scenario runs one scenario: the real adaptation controller
// (on the virtual clock) over the real planner and monitor, with a
// modeled executor, prober, and client. Deterministic: same config,
// same row, at any sweep parallelism.
func runFig8Scenario(cfg Fig8Config, sc Fig8Scenario) Fig8Row {
	env := sim.NewEnvWith(sim.Options{Seed: scenarioSeed(cfg.Seed, "fig8/"+sc.Name, 1)})

	net := topology.CaseStudy()
	mon := netmon.New(net)
	pl := planner.New(spec.MailService(), net)

	// Bootstrap the standing deployments: the NY primary, a warm San
	// Diego chain (Alice), and the tracked Seattle session (Carol) whose
	// chain runs sea-2 -> sd-2 -> (anchor) — squarely in the blast
	// radius of every scripted fault.
	primary, err := pl.PrimaryPlacement(spec.CompMailServer, topology.NYServer)
	if err != nil {
		panic(err)
	}
	pl.AddExisting(primary)
	warm := planner.Request{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50}
	warmDep, err := pl.Plan(warm)
	if err != nil {
		panic(err)
	}
	pl.AddExisting(warmDep.Placements...)
	req := planner.Request{Interface: spec.IfaceClient, ClientNode: topology.SeaClient, User: "Carol", RateRPS: 50}
	dep, err := pl.Plan(req)
	if err != nil {
		panic(err)
	}
	pl.AddExisting(dep.Placements...)

	w := &fig8World{net: net, crashed: map[netmodel.NodeID]bool{}, cfg: cfg}
	w.sess = adapt.NewSession("carol", "", req, dep, "sim-head-0")

	exec := &fig8Exec{pl: pl}
	var events []adapt.Event
	ctrl := adapt.New(adapt.Config{
		DebounceMS:         50,
		ProbeIntervalMS:    250,
		ProbeTimeoutMS:     100,
		SuspicionThreshold: 2,
		DrainMS:            100,
	}, mon, exec, adapt.NewSimScheduler(env))
	ctrl.OnEvent(func(e adapt.Event) { events = append(events, e) })
	// The modeled failure detector: a probe reaches every node except
	// crashed ones. Targets cover the whole case-study topology.
	targets := map[netmodel.NodeID]string{}
	for _, n := range net.Nodes() {
		targets[n.ID] = string(n.ID)
	}
	ctrl.SetProber(adapt.ProberFunc(func(node netmodel.NodeID, addr string, timeoutMS float64) error {
		if w.crashed[node] {
			return fmt.Errorf("probe %s: no heartbeat", node)
		}
		return nil
	}), func() map[netmodel.NodeID]string { return targets })
	ctrl.Track(w.sess)
	ctrl.Start()
	defer ctrl.Stop()

	sc.Faults.Schedule(env, mon, func(n netmodel.NodeID) { w.crashed[n] = true })

	// The client: one send every SendEveryMS. While the chain is broken
	// it backs off and retries; the wait counts toward that send's
	// latency (exactly what a user behind the rebinding client library
	// experiences during an outage).
	var samples []fig8Sample
	var send func()
	send = func() {
		start := env.Now()
		var attempt func()
		attempt = func() {
			lat, ok := w.chainLatencyMS(w.sess.Deployment())
			if !ok {
				env.After(cfg.RetryMS, attempt)
				return
			}
			env.After(lat, func() {
				samples = append(samples, fig8Sample{start: start, latency: env.Now() - start})
				switch next := start + cfg.SendEveryMS; {
				case next >= cfg.DurationMS: // the run is over
				case env.Now() < next:
					env.At(next, send)
				default:
					send()
				}
			})
		}
		attempt()
	}
	env.At(env.Now(), send)
	env.RunUntil(cfg.DurationMS)

	return fig8Row(sc, cfg, events, samples)
}

// fig8Row distills events and samples into the A7 row. Detection is
// measured to the controller's replan event, cutover to the adapted
// (bindings-flipped) event; -1 marks a phase that never happened.
func fig8Row(sc Fig8Scenario, cfg Fig8Config, events []adapt.Event, samples []fig8Sample) Fig8Row {
	faultAt := cfg.FaultAtMS
	if len(sc.Faults) > 0 {
		faultAt = sc.Faults[0].AtMS
	}
	replanAt, adaptedAt := -1.0, -1.0
	for _, e := range events {
		if e.AtMS < faultAt {
			continue
		}
		if replanAt < 0 && e.Kind == "replan" {
			replanAt = e.AtMS
		}
		if adaptedAt < 0 && e.Kind == "adapted" {
			adaptedAt = e.AtMS
		}
	}
	row := Fig8Row{Scenario: sc.Name, DetectMS: -1, CutoverMS: -1, Sends: len(samples)}
	if replanAt >= 0 {
		row.DetectMS = replanAt - faultAt
	}
	if adaptedAt >= 0 && replanAt >= 0 {
		row.CutoverMS = adaptedAt - replanAt
	}
	steadySum, steadyN, duringSum, duringN, postSum, postN := 0.0, 0, 0.0, 0, 0.0, 0
	for _, s := range samples {
		switch {
		case s.start+s.latency <= faultAt:
			steadySum += s.latency
			steadyN++
		case adaptedAt >= 0 && s.start >= adaptedAt:
			postSum += s.latency
			postN++
		default:
			duringSum += s.latency
			duringN++
		}
	}
	if steadyN > 0 {
		row.SteadyMS = steadySum / float64(steadyN)
	}
	if duringN > 0 {
		row.DuringMS = duringSum / float64(duringN)
	}
	if postN > 0 {
		row.PostMS = postSum / float64(postN)
	}
	return row
}
