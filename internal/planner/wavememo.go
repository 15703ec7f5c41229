package planner

import (
	"strconv"
	"sync"
	"sync/atomic"
)

// This file makes replan results shareable across planner instances.
// Per-call memoization (planMemo) already dedupes work inside one plan;
// a replan *wave* — thousands of sessions reacting to one topology
// event — needs the next level up: two sessions whose requests and
// current deployments are identical must plan once, not twice, since a
// wave fixes the route epoch and the reuse set. The request identity is
// derived from canonical content — component names, node IDs, property
// fingerprints — so it is stable across planner instances, processes,
// and runs; nothing keys off pointer identity or per-instance state.

// Fingerprint returns a canonical content identity for the request:
// two requests with equal fingerprints plan identically against the
// same network and reuse set, regardless of which planner instance
// runs them.
func (r Request) Fingerprint() string {
	return r.Interface + "|" + string(r.ClientNode) + "|" + r.User + "|" +
		r.RequireProps.Fingerprint() + "|" +
		strconv.FormatFloat(r.RateRPS, 'g', -1, 64) + "|" + r.Objective.String()
}

// WaveMemo shares replan results across the sessions of one replan
// wave. Keys must capture the planning identity within the wave — the
// request fingerprint and the shape of the session's current deployment
// (the network epoch and reuse set are fixed for a wave) — and each key
// is computed exactly once even under
// concurrent Do calls from many shard workers: the first caller runs
// compute, later callers block until it lands and share the result —
// the same *Diff, not a copy. A planned Diff and its Deployment are
// immutable (see Deployment), which is what lets every session of a
// wave group commit the one value.
type WaveMemo struct {
	mu      sync.Mutex
	entries map[string]*waveEntry

	hits, misses atomic.Uint64
}

type waveEntry struct {
	done  chan struct{}
	diff  *Diff
	stats Stats
	err   error
}

// NewWaveMemo returns an empty wave memo.
func NewWaveMemo() *WaveMemo {
	return &WaveMemo{entries: map[string]*waveEntry{}}
}

// Do returns the memoized result for key, running compute exactly once
// across all concurrent callers. The returned diff is shared and
// read-only; stats are the single compute's search statistics (callers
// decide how to attribute them — the fleet counts them once per
// computation, not once per session).
func (m *WaveMemo) Do(key string, compute func() (*Diff, Stats, error)) (*Diff, Stats, bool, error) {
	m.mu.Lock()
	e, ok := m.entries[key]
	if !ok {
		e = &waveEntry{done: make(chan struct{})}
		m.entries[key] = e
		m.mu.Unlock()
		e.diff, e.stats, e.err = compute()
		close(e.done)
		m.misses.Add(1)
		return e.diff, e.stats, false, e.err
	}
	m.mu.Unlock()
	<-e.done
	m.hits.Add(1)
	return e.diff, e.stats, true, e.err
}

// Counters returns the cumulative hit and miss counts (a miss ran
// compute; a hit shared it).
func (m *WaveMemo) Counters() (hits, misses uint64) {
	return m.hits.Load(), m.misses.Load()
}
