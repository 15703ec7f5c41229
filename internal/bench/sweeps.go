package bench

import (
	"partsvc/internal/coherence"
	"partsvc/internal/metrics"
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
