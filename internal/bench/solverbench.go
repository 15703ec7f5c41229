package bench

import (
	"fmt"
	"strings"

	"partsvc/internal/metrics"
	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/planner"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

// A11Config tunes the constraint-solver experiment (A11): planner
// scaling on Waxman topologies and the repair-vs-fresh-replan curve
// under the Figure-8 fault kinds.
type A11Config struct {
	// Sizes are the Waxman topology sizes to sweep.
	Sizes []int
	// Seed feeds the Waxman generator.
	Seed int64
	// Workers bounds sweep parallelism; output-invariant (0 = GOMAXPROCS).
	Workers int
	// Timing adds wall-clock plan latency columns. Off by default: the
	// deterministic output must stay byte-identical across runs.
	Timing bool
}

// DefaultA11Config returns the headline A11 configuration: sizes up to
// the 256-node acceptance scenario.
func DefaultA11Config() A11Config {
	return A11Config{Sizes: []int{8, 16, 32, 64, 128, 256}, Seed: 7}
}

// SolverScalingRow is one planner-scaling data point: the constraint
// engine work one request costs on a topology of the given size, plus
// the objective value it reaches. (The cross-backend columns this table
// used to carry — DP and exhaustive mappings and latencies — are what
// the planner's equivalence tests now assert.) Counters and latencies
// are deterministic; WallMS is populated only under Timing.
type SolverScalingRow struct {
	Nodes int
	// Solver work counters (constraint engine units).
	SolverProps, SolverBacktracks, SolverEvals uint64
	SolverLatencyMS                            float64
	SolverWallMS                               float64
}

// RepairCurveRow is one point of the repair-vs-fresh curve: after one
// scripted fault under a deployed chain, the constraint propagations
// RepairReplan spends versus the same request's full search with no
// change set, under the same network state.
type RepairCurveRow struct {
	Nodes int
	// Event names the Figure-8 fault kind played on the target.
	Event string
	// RepairProps / FreshProps are propagation counts; Ratio is
	// fresh/repair (the factor repair is cheaper by).
	RepairProps uint64
	FreshProps  uint64
	Ratio       float64
	// Path says how RepairReplan settled the event: "repair" (the
	// incremental repair was the answer), "repair+replan" (the repair
	// moved nothing, so by contract the one full search followed —
	// parity with fresh plus the repair itself), "fallback" (repair
	// infeasible under its pins; the full search), or "infeasible" (no
	// deployment holds now: both sides fail, and the chain stays as it
	// is for the next event).
	Path string
	// Moved counts placements the adaptation installs (0 = the running
	// graph survived unchanged).
	Moved int
}

// A11Result is the full experiment output.
type A11Result struct {
	Config  A11Config
	Scaling []SolverScalingRow
	Repair  []RepairCurveRow
}

// RunA11 runs both A11 sweeps. Rows are deterministic for a given
// config at any Workers value: every size is an independent topology
// and planner, and the fault script inside a size runs sequentially.
func RunA11(cfg A11Config) (*A11Result, error) {
	if len(cfg.Sizes) == 0 {
		return nil, fmt.Errorf("bench: A11 needs at least one topology size")
	}
	res := &A11Result{Config: cfg}

	scaling := make([]SolverScalingRow, len(cfg.Sizes))
	scaleErr := make([]error, len(cfg.Sizes))
	forEach(cfg.Workers, len(cfg.Sizes), func(i int) {
		scaling[i], scaleErr[i] = a11Scale(cfg, cfg.Sizes[i])
	})
	for _, err := range scaleErr {
		if err != nil {
			return nil, err
		}
	}
	res.Scaling = scaling

	repair := make([][]RepairCurveRow, len(cfg.Sizes))
	repErr := make([]error, len(cfg.Sizes))
	forEach(cfg.Workers, len(cfg.Sizes), func(i int) {
		repair[i], repErr[i] = a11Repair(cfg, cfg.Sizes[i])
	})
	for _, err := range repErr {
		if err != nil {
			return nil, err
		}
	}
	for _, rows := range repair {
		res.Repair = append(res.Repair, rows...)
	}
	return res, nil
}

// a11Net builds one sweep topology with the deterministic role
// assignment shared by A3/A10: a fully trusted primary host at index 0
// and a branch-trust client at index 1.
func a11Net(cfg A11Config, n int) (*netmodel.Network, []*netmodel.Node, error) {
	net, err := topology.Waxman(topology.DefaultWaxman(n, cfg.Seed))
	if err != nil {
		return nil, nil, err
	}
	nodes := net.Nodes()
	nodes[0].Credentials["trust"] = "5"
	nodes[1].Credentials["trust"] = "4"
	net.Translate(topology.MailTranslation())
	return net, nodes, nil
}

// a11Planner builds a planner over net with the primary registered.
func a11Planner(net *netmodel.Network, primaryNode netmodel.NodeID) (*planner.Planner, error) {
	pl := planner.New(spec.MailService(), net)
	ms, err := pl.PrimaryPlacement(spec.CompMailServer, primaryNode)
	if err != nil {
		return nil, err
	}
	pl.AddExisting(ms)
	return pl, nil
}

// a11Scale measures one size: one request planned on a fresh planner.
func a11Scale(cfg A11Config, n int) (SolverScalingRow, error) {
	net, nodes, err := a11Net(cfg, n)
	if err != nil {
		return SolverScalingRow{}, err
	}
	pl, err := a11Planner(net, nodes[0].ID)
	if err != nil {
		return SolverScalingRow{}, err
	}
	sw := newStopwatch(cfg.Timing)
	dep, err := pl.Plan(planner.Request{
		Interface: spec.IfaceClient, ClientNode: nodes[1].ID, User: "Alice", RateRPS: 10,
	})
	if err != nil {
		return SolverScalingRow{}, err
	}
	return SolverScalingRow{
		Nodes:            n,
		SolverProps:      pl.SolverStats.Propagations.Load(),
		SolverBacktracks: pl.SolverStats.Backtracks.Load(),
		SolverEvals:      pl.SolverStats.Evaluations.Load(),
		SolverLatencyMS:  dep.ExpectedLatencyMS,
		SolverWallMS:     sw.lapMS(),
	}, nil
}

// a11Fault is one scripted event: a latency/bandwidth report on the
// target link, or (crash) the death of an interior placement's node.
type a11Fault struct {
	name     string
	lat, mbs float64
	crash    bool
}

// a11Faults are the Figure-8 fault kinds in script order: degrade the
// target link, restore it, crash an interior node, sever the link.
func a11Faults(origLat, origBW float64) []a11Fault {
	return []a11Fault{
		{name: "link-degrade", lat: origLat + 800, mbs: origBW},
		{name: "link-restore", lat: origLat, mbs: origBW},
		{name: "node-crash", crash: true},
		{name: "link-down", lat: downLinkLatencyMS, mbs: downLinkBandwidthMbps},
	}
}

// interiorNode picks the node to crash: the first placement past the
// head that the session runs for itself (not the primary at primary)
// away from the client's node. Once an adaptation keeps the chain, its
// placements are registered instances, reused like the primary, so
// Reused does not tell them apart.
func interiorNode(dep *planner.Deployment, client, primary netmodel.NodeID) (netmodel.NodeID, bool) {
	for _, p := range dep.Placements[1:] {
		if p.Node != client && (p.Component != spec.CompMailServer || p.Node != primary) {
			return p.Node, true
		}
	}
	return "", false
}

// a11Repair plays the fault script against one deployed session and
// measures, per event, incremental repair against a fresh solve of the
// same request under the same (post-fault) network state and reuse set.
func a11Repair(cfg A11Config, n int) ([]RepairCurveRow, error) {
	net, nodes, err := a11Net(cfg, n)
	if err != nil {
		return nil, err
	}
	mon := netmon.New(net)

	// Deterministic client scan: the first node whose plan is a 3+
	// placement chain, so the link faults can land on an interior edge
	// away from the pinned head — preferring one that also deploys a
	// component off the client's node, so the crash has a target.
	var (
		pl  *planner.Planner
		dep *planner.Deployment
		req planner.Request
	)
	for _, node := range nodes[1:] {
		cand, err := a11Planner(net, nodes[0].ID)
		if err != nil {
			return nil, err
		}
		r := planner.Request{Interface: spec.IfaceClient, ClientNode: node.ID, User: "Alice", RateRPS: 10}
		d, err := cand.Plan(r)
		if err != nil || len(d.Placements) < 3 {
			continue
		}
		_, crashable := interiorNode(d, r.ClientNode, nodes[0].ID)
		if pl == nil || crashable {
			pl, dep, req = cand, d, r
		}
		if crashable {
			break
		}
	}
	if pl == nil {
		return []RepairCurveRow{{Nodes: n, Event: "no-interior-chain"}}, nil
	}
	pl.AddExisting(dep.Placements...)

	// Target an interior-edge link clear of the head edge (a head hit
	// forces the fallback path by design and would measure nothing).
	var a, b netmodel.NodeID
	for _, e := range dep.Edges {
		if e.From == 0 || len(e.Path.Nodes) < 2 {
			continue
		}
		for i := 0; i+1 < len(e.Path.Nodes); i++ {
			ch := planner.NewChangedSet()
			ch.AddLink(e.Path.Nodes[i], e.Path.Nodes[i+1])
			if !ch.PathAffected(dep.Edges[0].Path) && !ch.NodeAffected(req.ClientNode) {
				a, b = e.Path.Nodes[i], e.Path.Nodes[i+1]
				break
			}
		}
		if a != "" {
			break
		}
	}
	if a == "" {
		return []RepairCurveRow{{Nodes: n, Event: "no-clear-interior-link"}}, nil
	}
	orig, _ := net.Link(a, b)
	origLat, origBW := orig.LatencyMS, orig.BandwidthMbps

	var rows []RepairCurveRow
	for _, f := range a11Faults(origLat, origBW) {
		ch := planner.NewChangedSet()
		if f.crash {
			node, ok := interiorNode(dep, req.ClientNode, nodes[0].ID)
			if !ok {
				rows = append(rows, RepairCurveRow{Nodes: n, Event: f.name, Path: "no-interior-node"})
				continue
			}
			if err := mon.ReportNodeDown(node); err != nil {
				return nil, err
			}
			ch.AddNode(node)
		} else {
			if err := mon.ReportLink(a, b, f.lat, f.mbs, nil); err != nil {
				return nil, err
			}
			ch.AddLink(a, b)
		}

		// Fresh-replan reference on its own planner: same topology state,
		// same reuse set, the one full search a control plane without
		// incremental repair would run on every event (RepairReplan with
		// no change set).
		fresh, err := a11Planner(net, nodes[0].ID)
		if err != nil {
			return nil, err
		}
		fresh.AddExisting(dep.Placements...)
		_, freshErr := fresh.RepairReplan(dep, req, nil)
		freshProps := fresh.SolverStats.Propagations.Load()

		propsBefore := pl.SolverStats.Propagations.Load()
		fallbacksBefore := pl.SolverStats.RepairFallbacks.Load()
		searchesBefore := pl.Stats().FullSearches
		diff, err := pl.RepairReplan(dep, req, ch)
		repairProps := pl.SolverStats.Propagations.Load() - propsBefore
		if (err == nil) != (freshErr == nil) {
			return nil, fmt.Errorf("a11: repair err %v, fresh err %v", err, freshErr)
		}
		if err != nil {
			rows = append(rows, RepairCurveRow{Nodes: n, Event: f.name, RepairProps: repairProps, FreshProps: freshProps, Path: "infeasible"})
			continue
		}

		row := RepairCurveRow{
			Nodes: n, Event: f.name,
			RepairProps: repairProps, FreshProps: freshProps,
			Path:  "repair",
			Moved: len(diff.Install),
		}
		switch {
		case pl.SolverStats.RepairFallbacks.Load() > fallbacksBefore:
			row.Path = "fallback"
		case pl.Stats().FullSearches > searchesBefore:
			row.Path = "repair+replan"
		}
		if repairProps > 0 {
			row.Ratio = float64(freshProps) / float64(repairProps)
		}
		rows = append(rows, row)

		// Adopt the adaptation like the runtime would: evicted and drained
		// placements leave the reuse set, new placements join it.
		pl.DropExisting(diff.Remove...)
		pl.AddExisting(diff.New.Placements...)
		dep = diff.New
	}
	return rows, nil
}

// A11ScalingTable renders the planner-scaling sweep.
func A11ScalingTable(res *A11Result) string {
	cols := []string{"nodes", "solver_props", "solver_backtracks", "solver_evals", "solver_lat_ms"}
	if res.Config.Timing {
		cols = append(cols, "solver_wall_ms")
	}
	t := metrics.NewTable(cols...)
	for _, r := range res.Scaling {
		vals := []interface{}{r.Nodes, r.SolverProps, r.SolverBacktracks, r.SolverEvals,
			fmt.Sprintf("%.2f", r.SolverLatencyMS)}
		if res.Config.Timing {
			vals = append(vals, fmt.Sprintf("%.1f", r.SolverWallMS))
		}
		t.AddRow(vals...)
	}
	return t.String()
}

// A11RepairTable renders the repair-vs-fresh curve plus its headline:
// the worst (smallest) cheapness ratio across the events the repair
// settled by itself. The other paths pay the fresh-replan cost by
// construction — a repair that moved nothing continues as the full
// search so that adaptation is never switched off, an infeasible one
// falls back to it — so their ~1x parity is counted separately, not
// reported as a repair result.
func A11RepairTable(res *A11Result) string {
	var sb strings.Builder
	t := metrics.NewTable("nodes", "event", "repair_props", "fresh_props", "ratio", "path", "moved")
	worst := -1.0
	parity := map[string]int{}
	for _, r := range res.Repair {
		ratio := "-"
		if r.Ratio > 0 {
			ratio = fmt.Sprintf("%.1fx", r.Ratio)
			if r.Path != "repair" {
				parity[r.Path]++
			} else if worst < 0 || r.Ratio < worst {
				worst = r.Ratio
			}
		}
		t.AddRow(r.Nodes, r.Event, r.RepairProps, r.FreshProps, ratio, r.Path, r.Moved)
	}
	sb.WriteString(t.String())
	if worst > 0 {
		fmt.Fprintf(&sb, "\nrepair vs fresh replan: worst case settled by repair alone %.1fx fewer propagations\n", worst)
	}
	if n := parity["repair+replan"]; n > 0 {
		fmt.Fprintf(&sb, "no-op repairs continued as the one full search at parity: %d\n", n)
	}
	if n := parity["fallback"]; n > 0 {
		fmt.Fprintf(&sb, "infeasible-repair events falling back to the full search at parity: %d\n", n)
	}
	if n := parity["infeasible"]; n > 0 {
		fmt.Fprintf(&sb, "events no deployment survives, on both sides: %d\n", n)
	}
	return sb.String()
}
