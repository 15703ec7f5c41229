package planner

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// This file makes replan results shareable across planner instances.
// Per-call memoization (planMemo) already dedupes work inside one plan;
// a replan *wave* — thousands of sessions reacting to one topology
// event — needs the next level up: two sessions whose requests, reuse
// sets, and route epoch are identical must plan once, not twice. The
// identity layer is the fingerprint trio below (request, reuse set,
// epoch), all derived from canonical content — component names, node
// IDs, property fingerprints — so they are stable across planner
// instances, processes, and runs; nothing keys off pointer identity or
// per-instance state.

// Fingerprint returns a canonical content identity for the request:
// two requests with equal fingerprints plan identically against the
// same network and reuse set, regardless of which planner instance
// runs them.
func (r Request) Fingerprint() string {
	return r.Interface + "|" + string(r.ClientNode) + "|" + r.User + "|" +
		r.RequireProps.Fingerprint() + "|" +
		strconv.FormatFloat(r.RateRPS, 'g', -1, 64) + "|" + r.Objective.String()
}

// ExistingFingerprint returns a canonical content identity for the
// planner's reuse set: sorted placement keys with their offered
// properties and upstream charges folded in. Planners with equal
// service specs, networks, and ExistingFingerprints produce identical
// plans for equal requests.
func (pl *Planner) ExistingFingerprint() string {
	keys := make([]string, 0, len(pl.Existing))
	for _, p := range pl.Existing {
		keys = append(keys, p.Key()+"^"+p.Offers.Fingerprint()+"^"+
			strconv.FormatFloat(p.UpstreamMS, 'g', -1, 64))
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// WaveMemo shares replan results across the sessions of one replan
// wave. Keys must capture the full planning identity — request
// fingerprint, reuse-set fingerprint, route epoch (WaveKey assembles
// exactly that) — and each key is computed exactly once even under
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

// WaveKey assembles the memo key for one session's replan: the request
// identity (Request.Fingerprint), the reuse-set identity
// (ExistingFingerprint), the pinned route epoch, and the shape of the
// session's current deployment — its placement keys in order, "" when
// it has none — since a replan diff is relative to it. Callers compute
// the parts when they change (a request fingerprint once, a shape per
// committed deployment), not per wave.
func WaveKey(reqFP, existingFP string, epoch uint64, shape string) string {
	return reqFP + "#" + existingFP + "#" + strconv.FormatUint(epoch, 10) + "#" + shape
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

// Len returns the number of distinct keys computed.
func (m *WaveMemo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}
