package bench

import (
	"time"

	"partsvc/internal/coherence"
	"partsvc/internal/metrics"
	"partsvc/internal/planner"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

// BoundSweepRow is one point of ablation A2: send latency and staleness
// as the coherence bound varies.
type BoundSweepRow struct {
	// Policy names the coherence policy.
	Policy string
	// AvgMS is the average send latency at the sweep's client count.
	AvgMS float64
	// MaxStale is the maximum number of unpropagated coherence records
	// ever outstanding (the staleness the policy permits).
	MaxStale int
}

// CoherenceBoundSweep runs the cached slow-site scenario across
// coherence policies from write-through to none, exposing the
// latency/staleness frontier that Section 4.2 alludes to ("the
// framework provides sufficient flexibility to take advantage of
// relaxed consistency protocols"). Policy runs are independent
// simulations and fan out over the Config.Workers pool; row order (and
// content) is byte-identical to a serial sweep.
func CoherenceBoundSweep(cfg Config, clients int) []BoundSweepRow {
	policies := []coherence.Policy{
		coherence.WriteThrough{},
		coherence.CountBound{Bound: 100},
		coherence.CountBound{Bound: 250},
		coherence.CountBound{Bound: 500},
		coherence.CountBound{Bound: 1000},
		coherence.Periodic{PeriodMS: 250},
		coherence.None{},
	}
	rows := make([]BoundSweepRow, len(policies))
	forEach(cfg.Workers, len(policies), func(i int) {
		p := policies[i]
		// The scenario name carries the policy so every run seeds its
		// RNG distinctly.
		sc := Scenario{Name: "sweep-" + p.String(), Dynamic: true, Cached: true, Slow: true, Policy: p}
		row := RunScenario(cfg, sc, clients)
		rows[i] = BoundSweepRow{Policy: p.String(), AvgMS: row.AvgMS, MaxStale: maxStaleness(p, cfg)}
	})
	return rows
}

// maxStaleness computes the worst-case unpropagated records under a
// policy for the configured workload.
func maxStaleness(p coherence.Policy, cfg Config) int {
	switch pol := p.(type) {
	case coherence.WriteThrough:
		return cfg.RecordsPerSend // at most one send's records in flight
	case coherence.CountBound:
		return pol.Bound
	case coherence.Periodic:
		// Bounded by what the workload can produce within one period; a
		// period in the hundreds of ms comfortably exceeds a send burst.
		return cfg.SendsPerClient * cfg.RecordsPerSend * cfg.MaxClients
	case coherence.None:
		return cfg.SendsPerClient * cfg.RecordsPerSend * cfg.MaxClients
	}
	return 0
}

// BoundSweepTable renders A2 rows.
func BoundSweepTable(rows []BoundSweepRow) string {
	t := metrics.NewTable("policy", "avg_send_ms", "max_stale_records")
	for _, r := range rows {
		t.AddRow(r.Policy, r.AvgMS, r.MaxStale)
	}
	return t.String()
}

// ScalingRow is one point of ablation A3: planner effort versus network
// size.
type ScalingRow struct {
	Nodes  int
	PlanMS float64
	// Graphs is the number of linkage graphs enumerated; Mappings the
	// complete assignments that reached exact validation; Propagations
	// the constraint engine's arc-consistency checks.
	Graphs       int
	Mappings     int
	Propagations uint64
}

// PlannerScaling plans the mail service on BRITE-like Waxman topologies
// of growing size. Every topology gets a trust-5 node to host the
// primary and the request originates at a trust-4-or-better node.
func PlannerScaling(sizes []int, seed int64) ([]ScalingRow, error) {
	var rows []ScalingRow
	for _, n := range sizes {
		net, err := topology.Waxman(topology.DefaultWaxman(n, seed))
		if err != nil {
			return nil, err
		}
		// Ensure a primary host and a client exist regardless of seed.
		nodes := net.Nodes()
		nodes[0].Credentials["trust"] = "5"
		nodes[1].Credentials["trust"] = "4"
		net.Translate(topology.MailTranslation())

		pl := planner.New(spec.MailService(), net)
		ms, err := pl.PrimaryPlacement(spec.CompMailServer, nodes[0].ID)
		if err != nil {
			return nil, err
		}
		pl.AddExisting(ms)
		t0 := time.Now()
		if _, err := pl.Plan(planner.Request{
			Interface: spec.IfaceClient, ClientNode: nodes[1].ID, User: "Alice", RateRPS: 10,
		}); err != nil {
			return nil, err
		}
		st := pl.Stats()
		rows = append(rows, ScalingRow{
			Nodes: n, PlanMS: msSince(t0), Graphs: st.ChainsEnumerated, Mappings: st.MappingsTried,
			Propagations: pl.SolverStats.Propagations.Load(),
		})
	}
	return rows, nil
}

// ScalingTable renders A3 rows.
func ScalingTable(rows []ScalingRow) string {
	t := metrics.NewTable("nodes", "graphs", "plan_ms", "mappings", "propagations")
	for _, r := range rows {
		t.AddRow(r.Nodes, r.Graphs, r.PlanMS, r.Mappings, r.Propagations)
	}
	return t.String()
}
