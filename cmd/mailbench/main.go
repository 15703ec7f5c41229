// Command mailbench regenerates the paper's evaluation artifacts: the
// Figure 7 latency table (nine scenarios over the deterministic network
// simulator), the Section 4.2 one-time cost breakdown, and the ablation
// sweeps indexed in DESIGN.md.
//
// Usage:
//
//	mailbench                   # Figure 7 table
//	mailbench -onetime          # one-time cost breakdown (E7)
//	mailbench -fig8             # live adaptation under scripted faults (A7)
//	mailbench -sweep            # coherence policy sweep (A2)
//	mailbench -scaling          # planner scaling on Waxman topologies (A3)
//	mailbench -clients 8        # widen the client sweep (1..8 per scenario)
//	mailbench -counts 1,100,10000   # explicit client counts instead of 1..N
//	mailbench -workers 4        # scenario-sweep parallelism (default GOMAXPROCS)
//	mailbench -simstats         # print the simulator event count
//	mailbench -trace DS500      # span tree + per-stage breakdown of one scenario
//	mailbench -multicore        # live RPC scale-out: GOMAXPROCS × transport × conns (A9)
//	mailbench -fleet            # session-sharded fleet control plane (A10)
//	mailbench -solver           # planner scaling + repair-vs-fresh curve (A11)
//	mailbench -solver -solver-sizes 8,32,128   # explicit Waxman sizes
//	mailbench -solver -timing   # add wall-clock plan latency (non-deterministic)
//	mailbench -fleet -fleet-sessions 400 -fleet-nodes 32   # reduced scale (CI)
//	mailbench -fleet -timing    # add wall-clock wave latency (non-deterministic)
//	mailbench -http :8080 ...   # expose /metrics (Prometheus) while the bench runs
//
// Scenario runs fan out over a bounded worker pool; output is
// byte-identical for every -workers value (each scenario is its own
// deterministic simulation with a derived RNG seed).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"partsvc/internal/api"
	"partsvc/internal/bench"
	"partsvc/internal/metrics"
	"partsvc/internal/trace"
)

func main() {
	onetime := flag.Bool("onetime", false, "measure one-time deployment costs (E7)")
	fig8 := flag.Bool("fig8", false, "live adaptation under scripted faults (A7)")
	sweep := flag.Bool("sweep", false, "coherence policy sweep (A2)")
	scaling := flag.Bool("scaling", false, "planner scaling sweep (A3)")
	clients := flag.Int("clients", 0, "override the maximum client count")
	counts := flag.String("counts", "", "comma-separated client counts per scenario (overrides -clients)")
	sends := flag.Int("sends", 0, "override sends per client")
	workers := flag.Int("workers", 0, "parallel scenario workers (0 = GOMAXPROCS)")
	simstats := flag.Bool("simstats", false, "print the simulator event count after the run")
	traceSc := flag.String("trace", "", "trace one scenario: print its span tree and per-stage latency breakdown")
	multicore := flag.Bool("multicore", false, "live RPC scale-out sweep: GOMAXPROCS × transport × connections (A9)")
	callers := flag.String("callers", "1,64", "comma-separated caller counts for -multicore")
	cellDur := flag.Duration("dur", 2*time.Second, "measurement time per -multicore cell")
	gmpList := flag.String("gomaxprocs", "1,2,4", "comma-separated GOMAXPROCS values for -multicore")
	fleetRun := flag.Bool("fleet", false, "session-sharded fleet control plane benchmark (A10)")
	solverRun := flag.Bool("solver", false, "planner scaling + repair-vs-fresh curve (A11)")
	solverSizes := flag.String("solver-sizes", "", "comma-separated Waxman sizes for -solver (default 8,16,32,64,128,256)")
	fleetSessions := flag.Int("fleet-sessions", 0, "override -fleet session count (default 5000)")
	fleetNodes := flag.Int("fleet-nodes", 0, "override -fleet Waxman topology size (default 128)")
	fleetSites := flag.Int("fleet-sites", 0, "override -fleet client site count (default 8)")
	fleetEvents := flag.Int("fleet-events", 0, "override -fleet scripted link event count (default 4)")
	fleetShards := flag.Int("fleet-shards", 0, "override -fleet shard count (default 8)")
	timing := flag.Bool("timing", false, "add wall-clock wave latency to -fleet output (non-deterministic)")
	httpAddr := flag.String("http", "", "serve the operational API (/metrics, /v1/events) for this address while the bench runs")
	flag.Parse()

	if *httpAddr != "" {
		srv := api.New(api.Config{Addr: *httpAddr}, api.Control{})
		if err := srv.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "mailbench:", err)
			os.Exit(1)
		}
		fmt.Printf("operational API on http://%s while the bench runs\n", srv.Addr())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx) //nolint:errcheck // exiting anyway
		}()
	}

	cfg := bench.DefaultConfig()
	if *clients > 0 {
		cfg.MaxClients = *clients
	}
	if *counts != "" {
		list, err := parseCounts(*counts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mailbench:", err)
			os.Exit(1)
		}
		cfg.ClientCounts = list
	}
	if *sends > 0 {
		cfg.SendsPerClient = *sends
	}
	cfg.Workers = *workers

	start := time.Now()
	switch {
	case *onetime:
		costs, err := bench.MeasureOneTimeCosts()
		if err != nil {
			fmt.Fprintln(os.Stderr, "mailbench:", err)
			os.Exit(1)
		}
		fmt.Println("One-time costs for the San Diego deployment (paper: ~10 s on 2002 hardware):")
		fmt.Print(bench.OneTimeTable(costs))
	case *fig8:
		f8 := bench.DefaultFig8Config()
		f8.Workers = *workers
		fmt.Printf("Adaptation under scripted faults (A7): fault at %.0fms, %.0fms run, virtual clock:\n",
			f8.FaultAtMS, f8.DurationMS)
		fmt.Print(bench.Fig8Table(bench.RunFig8(f8)))
		fmt.Println("\ndetect = fault -> replan (node crashes pay the probe suspicion window);")
		fmt.Println("cutover = replan -> bindings flipped (the model deploys instantaneously).")
	case *sweep:
		fmt.Printf("Coherence policy sweep, %d clients (ablation A2):\n", 2)
		fmt.Print(bench.BoundSweepTable(bench.CoherenceBoundSweep(cfg, 2)))
	case *scaling:
		rows, err := bench.PlannerScaling([]int{8, 12, 16, 20}, 7)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mailbench:", err)
			os.Exit(1)
		}
		fmt.Println("Planner scaling on Waxman topologies (ablation A3):")
		fmt.Print(bench.ScalingTable(rows))
	case *solverRun:
		ac := bench.DefaultA11Config()
		if *solverSizes != "" {
			list, err := parseCounts(*solverSizes)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mailbench:", err)
				os.Exit(1)
			}
			ac.Sizes = list
		}
		ac.Workers = *workers
		ac.Timing = *timing
		res, err := bench.RunA11(ac)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mailbench:", err)
			os.Exit(1)
		}
		fmt.Println("Planner scaling on Waxman topologies (A11):")
		fmt.Print(bench.A11ScalingTable(res))
		fmt.Println("\nIncremental repair vs fresh solve under the Figure-8 fault kinds (A11):")
		fmt.Print(bench.A11RepairTable(res))
	case *fleetRun:
		fc := bench.DefaultFleetConfig()
		if *fleetSessions > 0 {
			fc.Sessions = *fleetSessions
		}
		if *fleetNodes > 0 {
			fc.Nodes = *fleetNodes
		}
		if *fleetSites > 0 {
			fc.Sites = *fleetSites
		}
		if *fleetEvents > 0 {
			fc.Events = *fleetEvents
		}
		if *fleetShards > 0 {
			fc.Shards = *fleetShards
		}
		fc.Workers = *workers
		fc.Timing = *timing
		fmt.Printf("Fleet control plane (A10): %d sessions, %d shards, %d-node Waxman, %d link events:\n",
			fc.Sessions, fc.Shards, fc.Nodes, fc.Events)
		res, err := bench.RunFleet(fc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mailbench:", err)
			os.Exit(1)
		}
		fmt.Print(bench.FleetTable(res))
	case *multicore:
		gmp, err := parseCounts(*gmpList)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mailbench:", err)
			os.Exit(1)
		}
		callerList, err := parseCounts(*callers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mailbench:", err)
			os.Exit(1)
		}
		runMultiCore(callerList, 256, *cellDur, gmp)
	case *traceSc != "":
		if *sends == 0 {
			cfg.SendsPerClient = 5 // keep the printed span tree readable
		}
		if err := runTraced(cfg, *traceSc); err != nil {
			fmt.Fprintln(os.Stderr, "mailbench:", err)
			os.Exit(1)
		}
	default:
		fmt.Printf("Figure 7: average client-perceived send latency (ms), %d sends/client:\n",
			cfg.SendsPerClient)
		rows, all := bench.RunFig7Stats(cfg)
		fmt.Print(bench.Fig7Table(rows))
		fmt.Println("\nGroups (paper): 1 = {SF,SS0,DF,DS0}  2 = {SS1000,DS1000}  3 = {SS500,DS500}  4 = {SS}")
		fmt.Printf("Grid: %s\n", all.Summary())
	}
	if *simstats {
		elapsed := time.Since(start)
		events := bench.SimCounters()
		fmt.Printf("\nSimulator: %d events in %v — %.0f events/sec, %d workers\n",
			events, elapsed.Round(time.Millisecond), metrics.PerSec(events, elapsed), bench.Workers(cfg.Workers))
	}
}

// runTraced traces one scenario at two clients on the virtual clock
// and prints the per-stage latency breakdown (EXPERIMENTS.md A6) plus
// the full span tree — byte-identical on every run.
func runTraced(cfg bench.Config, name string) error {
	var sc bench.Scenario
	found := false
	for _, s := range bench.Scenarios() {
		if s.Name == name {
			sc, found = s, true
		}
	}
	if !found {
		return fmt.Errorf("unknown scenario %q (see Scenarios in the Figure 7 table)", name)
	}
	row, spans := bench.RunScenarioTraced(cfg, sc, 2)
	fmt.Printf("Traced scenario %s: %d clients, %d sends/client, avg %.2f ms (%d spans, virtual clock):\n",
		row.Scenario, row.Clients, cfg.SendsPerClient, row.AvgMS, len(spans))
	fmt.Print(bench.SpanBreakdown(spans))
	fmt.Println()
	fmt.Print(trace.Tree(spans))
	return nil
}

// parseCounts parses "1,100,10000" into client counts.
func parseCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -counts entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
