package bench

import (
	"fmt"

	"partsvc/internal/metrics"
	"partsvc/internal/netmodel"
	"partsvc/internal/planner"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

// A11Config tunes the planner-scaling experiment (A11, and A3 at sizes
// 8–20): one request planned on Waxman topologies of growing size.
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

// SolverScalingRow is one planner-scaling data point: the search one
// request costs on a topology of the given size, plus the objective
// value it reaches. (The cross-backend columns this table used to
// carry — DP and exhaustive mappings and latencies — are what the
// planner's equivalence tests now assert.) Counters and latencies are
// deterministic; WallMS is populated only under Timing.
type SolverScalingRow struct {
	Nodes int
	// Graphs is the number of linkage graphs enumerated; Mappings the
	// complete assignments that reached exact validation.
	Graphs, Mappings int
	// Solver work counters (constraint engine units).
	SolverProps, SolverBacktracks, SolverEvals uint64
	SolverLatencyMS                            float64
	SolverWallMS                               float64
}

// A11Result is the full experiment output.
type A11Result struct {
	Config  A11Config
	Scaling []SolverScalingRow
}

// RunA11 runs the A11 sweep. Rows are deterministic for a given config
// at any Workers value: every size is an independent topology and
// planner.
func RunA11(cfg A11Config) (*A11Result, error) {
	if len(cfg.Sizes) == 0 {
		return nil, fmt.Errorf("bench: A11 needs at least one topology size")
	}
	res := &A11Result{Config: cfg, Scaling: make([]SolverScalingRow, len(cfg.Sizes))}
	errs := make([]error, len(cfg.Sizes))
	forEach(cfg.Workers, len(cfg.Sizes), func(i int) {
		res.Scaling[i], errs[i] = a11Scale(cfg, cfg.Sizes[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
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
	st := pl.Stats()
	return SolverScalingRow{
		Nodes:            n,
		Graphs:           st.ChainsEnumerated,
		Mappings:         st.MappingsTried,
		SolverProps:      pl.SolverStats.Propagations.Load(),
		SolverBacktracks: pl.SolverStats.Backtracks.Load(),
		SolverEvals:      pl.SolverStats.Evaluations.Load(),
		SolverLatencyMS:  dep.ExpectedLatencyMS,
		SolverWallMS:     sw.lapMS(),
	}, nil
}

// A11ScalingTable renders the planner-scaling sweep.
func A11ScalingTable(res *A11Result) string {
	cols := []string{"nodes", "graphs", "mappings", "solver_props", "solver_backtracks", "solver_evals", "solver_lat_ms"}
	if res.Config.Timing {
		cols = append(cols, "solver_wall_ms")
	}
	t := metrics.NewTable(cols...)
	for _, r := range res.Scaling {
		vals := []interface{}{r.Nodes, r.Graphs, r.Mappings, r.SolverProps, r.SolverBacktracks, r.SolverEvals,
			fmt.Sprintf("%.2f", r.SolverLatencyMS)}
		if res.Config.Timing {
			vals = append(vals, fmt.Sprintf("%.1f", r.SolverWallMS))
		}
		t.AddRow(vals...)
	}
	return t.String()
}
