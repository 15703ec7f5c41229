package solver

import (
	"sync/atomic"

	"partsvc/internal/metrics"
)

// Stats are cumulative engine counters, safe for concurrent solvers
// sharing one instance (the fleet's planners all fold into their
// planner's Stats).
type Stats struct {
	// Solves counts fresh Solve calls; Repairs counts Repair calls.
	Solves, Repairs atomic.Uint64
	// Propagations, Backtracks, Evaluations aggregate RunStats.
	Propagations, Backtracks, Evaluations atomic.Uint64
}

func (s *Stats) addRun(r RunStats) {
	s.Propagations.Add(r.Propagations)
	s.Backtracks.Add(r.Backtracks)
	s.Evaluations.Add(r.Evaluations)
}

// KVs renders the counters as metrics-registry rows.
func (s *Stats) KVs() []metrics.KV {
	return []metrics.KV{
		metrics.KVf("solves", "%d", s.Solves.Load()),
		metrics.KVf("propagations", "%d", s.Propagations.Load()),
		metrics.KVf("backtracks", "%d", s.Backtracks.Load()),
		metrics.KVf("evaluations", "%d", s.Evaluations.Load()),
	}
}
