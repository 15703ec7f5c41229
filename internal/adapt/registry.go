package adapt

import (
	"sort"
	"sync"

	"partsvc/internal/metrics"
	"partsvc/internal/planner"
)

// registry is the loop's view of deployed component instances,
// refcounted by placement key. Sessions routinely land on the same
// instances — that is the paper's reuse model, and at fleet scale it is
// the norm, not the exception — so instance lifecycle is
// ownership-counted: the first session to reference a placement deploys
// it, the last one to leave tears it down, and everything in between is
// free. A session's references are exactly its deployment's placements,
// so a diff's Remove is a release, never a teardown: a tail another
// session still uses stays up. The registry also feeds every
// registry-synced shard planner's reuse set, which is why its
// enumeration is sorted: identical content in identical order on every
// shard is what makes cross-shard wave keys line up.
//
// An entry whose last reference is released drains: it is hidden from
// reuse at once, and torn down when the drain timer finalizes it —
// unless a later commit acquired it again in the meantime.
type registry struct {
	mu      sync.Mutex
	entries map[string]*regEntry

	deploys, discards *metrics.Counter
}

type regEntry struct {
	place planner.Placement
	refs  int
	// pinned marks instances the loop did not deploy — the service
	// owner's primaries, and instances a session reused from outside the
	// loop — which the loop never tears down.
	pinned bool
	dead   bool // evicted by revalidation: hidden from reuse, discarded on drain
}

// live reports whether the entry is a running instance offered for
// reuse: neither evicted nor draining.
func (e *regEntry) live() bool { return !e.dead && (e.refs > 0 || e.pinned) }

func newRegistry() *registry {
	reg := metrics.DefaultRegistry
	return &registry{
		entries:  map[string]*regEntry{},
		deploys:  reg.Counter("fleet.deploys"),
		discards: reg.Counter("fleet.discards"),
	}
}

// pin registers standing infrastructure that predates (and outlives)
// every session.
func (r *registry) pin(p planner.Placement) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := p.Key()
	e := r.entries[key]
	if e == nil {
		e = &regEntry{place: p}
		r.entries[key] = e
		r.deploys.Inc()
	}
	e.pinned = true
}

// acquire adds one session reference to the placement and reports
// whether the loop must deploy it: true on the 0→1 transition of a
// placement the plan did not mark Reused. A Reused placement the
// registry has never seen was deployed outside the loop, so it is
// pinned instead. A draining entry is revived as if it were new.
func (r *registry) acquire(p planner.Placement) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := p.Key()
	e := r.entries[key]
	fresh := false
	switch {
	case e == nil:
		e = &regEntry{place: p, pinned: p.Reused}
		r.entries[key] = e
		r.deploys.Inc()
		fresh = !p.Reused
	case e.refs == 0 && !e.pinned:
		*e = regEntry{place: p}
		r.deploys.Inc()
	}
	e.refs++
	return fresh
}

// release drops one session reference and reports whether it was the
// last: the entry then drains until finalize (pinned entries stay).
func (r *registry) release(key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[key]
	if e == nil {
		return false
	}
	e.refs--
	if e.refs > 0 || e.pinned {
		return false
	}
	r.discards.Inc()
	return true
}

// rollback undoes the acquisitions of a cutover that failed before its
// flip: every placement loses the reference it gained, and the entries
// the cutover created are forgotten rather than drained — nothing was
// deployed for them that the next attempt cannot reuse.
func (r *registry) rollback(acquired, fresh []planner.Placement) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range acquired {
		if e := r.entries[p.Key()]; e != nil {
			e.refs--
		}
	}
	for _, p := range fresh {
		if e := r.entries[p.Key()]; e != nil && e.refs == 0 && !e.pinned {
			delete(r.entries, p.Key())
		}
	}
}

// finalize ends the drain of released placements: those still without
// a reference are forgotten and returned for teardown.
func (r *registry) finalize(released []planner.Placement) []planner.Placement {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []planner.Placement
	for _, p := range released {
		if e := r.entries[p.Key()]; e != nil && e.refs == 0 && !e.pinned {
			delete(r.entries, p.Key())
			out = append(out, e.place)
		}
	}
	return out
}

// evict marks a placement dead: revalidation decided the instance can
// no longer run where it is. Dead entries stop being offered for reuse
// immediately; their remaining references drain as the affected
// sessions rewire, and the last release discards them. evict reports
// whether no such release will come — the instance is held by no
// session (pinned, or deployed outside the loop and never tracked) —
// so the caller must discard it now: an evicted instance does not keep
// running just because the loop does not own it.
func (r *registry) evict(key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[key]
	switch {
	case e == nil:
		return true
	case e.refs == 0 && e.pinned:
		delete(r.entries, key)
		return true
	}
	e.dead = true
	e.pinned = false
	return false
}

// placements enumerates the live instances sorted by key — the reuse
// set every registry-synced shard planner works from.
func (r *registry) placements() []planner.Placement {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]planner.Placement, 0, len(r.entries))
	for _, e := range r.entries {
		if e.live() {
			out = append(out, e.place)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}
