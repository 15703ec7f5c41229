package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"partsvc/internal/adapt"
	"partsvc/internal/fleet"
	"partsvc/internal/metrics"
	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/planner"
	"partsvc/internal/sim"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

// FleetConfig tunes the A10 fleet control-plane benchmark: thousands of
// planner/controller sessions multiplexed over one shared network model
// and route cache, driven through scripted link events.
type FleetConfig struct {
	// Sessions is the fleet size (paper-scale default: 5000).
	Sessions int
	// Nodes is the Waxman topology size (default 128).
	Nodes int
	// Sites is the number of distinct client nodes sessions are spread
	// over; alternating sites get branch (trust 4) and partner (trust 2)
	// trust, mirroring the case study's San Diego and Seattle.
	Sites int
	// Events is the number of scripted link events (alternating degrade
	// and restore on a deployed path's first backbone link).
	Events int
	// Shards is the session-shard count. Fixed by default (not
	// GOMAXPROCS-derived) so output is byte-identical across machines.
	Shards int
	// Workers is execution parallelism; output-invariant (0 = GOMAXPROCS).
	Workers int
	// Timing adds wall-clock per-wave latency to the result. Off by
	// default: the deterministic output must stay byte-identical.
	Timing bool
	// Seed feeds the Waxman generator.
	Seed int64
}

// DefaultFleetConfig returns the headline A10 configuration.
func DefaultFleetConfig() FleetConfig {
	return FleetConfig{Sessions: 5000, Nodes: 128, Sites: 8, Events: 4, Shards: 8, Seed: 7}
}

// FleetWaveRow is one replan wave's ledger. NaiveComputes is what a
// per-session control plane would have spent on the same wave (one full
// planner pass per affected session); Reduction is the counter-verified
// ratio against the computations the wave actually ran.
type FleetWaveRow struct {
	Wave          uint64
	Trigger       string
	Sessions      int
	Computes      int
	MemoHits      int
	NaiveComputes int
	Reduction     float64
	Cutovers      int
	Unchanged     int
	RouteLookups  int
	SpanMS        float64
	WallMS        float64 // populated only when FleetConfig.Timing
}

// FleetResult is the full A10 benchmark output.
type FleetResult struct {
	Config           FleetConfig
	Bootstrap        FleetWaveRow
	Rows             []FleetWaveRow // one per scripted event, in order
	SessionsPerShard []int
	Instances        int
	Failed           int
	TargetLink       string
}

// RunFleet builds the fleet, bootstraps it, plays the scripted link
// events, and collects one row per wave. Deterministic for a given
// config at any Workers value; Timing adds wall-clock measurements
// without touching the deterministic fields.
func RunFleet(cfg FleetConfig) (*FleetResult, error) {
	if cfg.Sessions <= 0 || cfg.Nodes < 8 || cfg.Sites < 2 || cfg.Events <= 0 {
		return nil, fmt.Errorf("bench: bad fleet config %+v", cfg)
	}
	net, err := topology.Waxman(topology.DefaultWaxman(cfg.Nodes, cfg.Seed))
	if err != nil {
		return nil, err
	}
	nodes := net.Nodes()
	// Deterministic role assignment regardless of seed: the primary host
	// is fully trusted; client sites alternate branch/partner trust.
	nodes[0].Credentials["trust"] = "5"
	sites := make([]netmodel.NodeID, cfg.Sites)
	for i := range sites {
		n := nodes[1+i%(len(nodes)-1)]
		n.Credentials["trust"] = "4"
		if i%2 == 1 {
			n.Credentials["trust"] = "2"
		}
		sites[i] = n.ID
	}
	net.Translate(topology.MailTranslation())

	env := sim.NewEnv()
	defer env.Stop()
	mon := netmon.New(net)
	mgr := fleet.New(fleet.Config{
		Shards: cfg.Shards, Workers: cfg.Workers, DebounceMS: 20,
	}, spec.MailService(), net, mon, adapt.NewSimScheduler(env))
	if _, err := mgr.AddPrimary(spec.CompMailServer, nodes[0].ID); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Sessions; i++ {
		site := sites[i%len(sites)]
		user := "Alice"
		if i%len(sites)%2 == 1 {
			user = "Carol"
		}
		// 10 rps keeps every site's chain clear of the load condition
		// (exercised by A3/A7), so the waves measure the control plane.
		mgr.AddSession(fmt.Sprintf("s%05d", i), planner.Request{
			Interface: spec.IfaceClient, ClientNode: site, User: user, RateRPS: 10,
		})
	}

	var reports []fleet.WaveReport
	mgr.OnWave(func(r fleet.WaveReport) { reports = append(reports, r) })

	res := &FleetResult{Config: cfg}
	sw := newStopwatch(cfg.Timing)
	boot := mgr.Bootstrap()
	bootWall := sw.lapMS()
	res.Bootstrap = waveRow(boot, "bootstrap", bootWall)
	res.Failed = boot.Failed
	mgr.Start()
	defer mgr.Stop()

	// Target the first backbone hop of the first session's deployed
	// chain: squarely on a live path, so degrading it scopes a wave to
	// the sessions that traverse it.
	a, b, ok := firstHop(net, mgr.Sessions())
	if !ok {
		return nil, fmt.Errorf("bench: no inter-node hop in any deployed chain")
	}
	res.TargetLink = fmt.Sprintf("%s~%s", a, b)
	orig, _ := net.Link(a, b)
	origLat, origBW := orig.LatencyMS, orig.BandwidthMbps

	for k := 0; k < cfg.Events; k++ {
		at := 1000 * float64(k+1)
		degrade := k%2 == 0
		trigger := "degrade"
		if !degrade {
			trigger = "restore"
		}
		env.At(at, func() {
			if degrade {
				_ = mon.ReportLink(a, b, origLat+800, origBW, nil)
			} else {
				_ = mon.ReportLink(a, b, origLat, origBW, nil)
			}
		})
		before := len(reports)
		sw.lapMS() // exclude idle virtual time from the wave's wall clock
		env.RunUntil(at + 900)
		wall := sw.lapMS()
		for _, r := range reports[before:] {
			res.Rows = append(res.Rows, waveRow(r, trigger, wall))
		}
	}

	res.SessionsPerShard = mgr.SessionsPerShard()
	res.Instances = mgr.Instances()
	return res, nil
}

// waveRow distills a WaveReport into the benchmark ledger. The naive
// baseline is counter-derived: a per-session control plane runs one full
// planner pass per affected session, so it pays Sessions computations
// where the fleet pays PlanComputes (and proportionally as many route
// lookups — each naive pass would repeat one compute's lookups).
func waveRow(r fleet.WaveReport, trigger string, wallMS float64) FleetWaveRow {
	row := FleetWaveRow{
		Wave: r.Wave, Trigger: trigger, Sessions: r.Sessions,
		Computes: r.PlanComputes, MemoHits: r.MemoHits,
		NaiveComputes: r.Sessions, Cutovers: r.Cutovers + r.Deferred,
		Unchanged: r.Unchanged, RouteLookups: r.RouteLookups,
		SpanMS: r.SpanMS, WallMS: wallMS,
	}
	if row.Computes > 0 {
		row.Reduction = float64(row.NaiveComputes) / float64(row.Computes)
	}
	return row
}

// firstHop finds the first inter-node hop along any session's deployed
// chain, in session order, and returns its first link.
func firstHop(net *netmodel.Network, sessions []*fleet.Session) (a, b netmodel.NodeID, ok bool) {
	routes := net.Routes()
	for _, s := range sessions {
		dep := s.Deployment()
		if dep == nil {
			continue
		}
		for i := 0; i+1 < len(dep.Placements); i++ {
			path, found := routes.Path(dep.Placements[i].Node, dep.Placements[i+1].Node)
			if found && !path.IsLoopback() {
				return path.Nodes[0], path.Nodes[1], true
			}
		}
	}
	return "", "", false
}

// FleetTable renders the A10 result: the per-wave ledger, the headline
// naive-versus-fleet computation ratio, and the shard balance. All
// deterministic; wall-clock columns appear only when Timing was set.
func FleetTable(res *FleetResult) string {
	var sb strings.Builder
	cols := []string{"wave", "trigger", "sessions", "computes", "memo_hits", "naive", "reduction", "cutovers", "unchanged", "route_lookups", "span_ms"}
	if res.Config.Timing {
		cols = append(cols, "wall_ms")
	}
	t := metrics.NewTable(cols...)
	addRow := func(r FleetWaveRow) {
		vals := []interface{}{r.Wave, r.Trigger, r.Sessions, r.Computes, r.MemoHits,
			r.NaiveComputes, fmt.Sprintf("%.1fx", r.Reduction), r.Cutovers, r.Unchanged, r.RouteLookups, r.SpanMS}
		if res.Config.Timing {
			vals = append(vals, fmt.Sprintf("%.1f", r.WallMS))
		}
		t.AddRow(vals...)
	}
	addRow(res.Bootstrap)
	for _, r := range res.Rows {
		addRow(r)
	}
	sb.WriteString(t.String())

	naive, actual := 0, 0
	worst := -1.0
	for _, r := range res.Rows {
		naive += r.NaiveComputes
		actual += r.Computes
		if worst < 0 || r.Reduction < worst {
			worst = r.Reduction
		}
	}
	fmt.Fprintf(&sb, "\ntarget link: %s\n", res.TargetLink)
	if actual > 0 {
		fmt.Fprintf(&sb, "planner computations per link event: naive %d, fleet %d (%.1fx fewer; worst wave %.1fx)\n",
			naive, actual, float64(naive)/float64(actual), worst)
	}
	fmt.Fprintf(&sb, "waves per topology event: %d events -> %d waves\n", res.Config.Events, len(res.Rows))
	fmt.Fprintf(&sb, "shared instances: %d for %d sessions; sessions/shard %s\n",
		res.Instances, res.Config.Sessions, shardSummary(res.SessionsPerShard))
	if res.Failed > 0 {
		fmt.Fprintf(&sb, "BOOTSTRAP FAILURES: %d sessions\n", res.Failed)
	}
	if res.Config.Timing {
		fmt.Fprintf(&sb, "wave wall-clock: bootstrap %.0fms, events p50 %.0fms p99 %.0fms\n",
			res.Bootstrap.WallMS, wallQuantile(res.Rows, 0.50), wallQuantile(res.Rows, 0.99))
	}
	return sb.String()
}

// shardSummary renders per-shard session counts compactly.
func shardSummary(counts []int) string {
	parts := make([]string, len(counts))
	for i, c := range counts {
		parts[i] = fmt.Sprint(c)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// stopwatch measures wall-clock laps when enabled, and is inert
// otherwise so the deterministic path never consults the real clock.
type stopwatch struct {
	enabled bool
	last    time.Time
}

func newStopwatch(enabled bool) *stopwatch {
	sw := &stopwatch{enabled: enabled}
	if enabled {
		sw.last = time.Now()
	}
	return sw
}

// lapMS returns milliseconds since the previous lap and restarts it.
func (sw *stopwatch) lapMS() float64 {
	if !sw.enabled {
		return 0
	}
	ms := msSince(sw.last)
	sw.last = time.Now()
	return ms
}

// wallQuantile returns the q-quantile of per-event wave wall times.
func wallQuantile(rows []FleetWaveRow, q float64) float64 {
	if len(rows) == 0 {
		return 0
	}
	walls := make([]float64, len(rows))
	for i, r := range rows {
		walls[i] = r.WallMS
	}
	sort.Float64s(walls)
	idx := int(q * float64(len(walls)-1))
	return walls[idx]
}
