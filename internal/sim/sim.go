// Package sim is a deterministic discrete-event simulator: the
// substrate that replaces the paper's Click-router testbed for the
// Figure 7 experiments. Virtual time is in milliseconds.
//
// The scheduler has one tier: callback events (Env.At/Env.After and the
// *Fn primitives on Resource, Mutex and Link), invoked inline
// with no goroutine handoff, so a hot loop costs one event-queue
// operation per step. Stateful component logic is written as
// continuation chains over those primitives. Events fire in one total
// order — by time, then issue sequence — so simulations are
// bit-reproducible and free of data races by construction.
package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Env is a simulation environment: a virtual clock and an event queue.
// Create one with NewEnv, schedule work with At/After, then call Run.
type Env struct {
	now     float64
	q       *calQueue
	seq     int64
	blocked int // callback waiters parked on resources (not timed)
	rng     *rand.Rand

	inRun   bool
	stopped bool

	pool  *event // free list of event records, linked by next
	stats Stats
}

// Options configures an environment beyond the defaults.
type Options struct {
	// Seed seeds the environment's deterministic RNG (Env.Rand); zero
	// selects a fixed default seed. Sweeps that run many environments in
	// parallel derive a distinct seed per run so results never depend on
	// execution order.
	Seed int64
}

// NewEnv returns an empty environment at time zero with default
// options (fixed RNG seed).
func NewEnv() *Env { return NewEnvWith(Options{}) }

// NewEnvWith returns an empty environment at time zero.
func NewEnvWith(opt Options) *Env {
	e := &Env{}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	e.rng = rand.New(rand.NewSource(seed))
	e.q = newCalQueue(&e.stats)
	e.q.free = e.freeEvent
	return e
}

// Now returns the current virtual time in milliseconds.
func (e *Env) Now() float64 { return e.now }

// Rand returns the environment's deterministic RNG. Stochastic models
// must draw all randomness from it (never the global source) so runs
// stay reproducible and independent of sweep parallelism.
func (e *Env) Rand() *rand.Rand { return e.rng }

// Stats reports scheduler counters accumulated so far.
func (e *Env) Stats() Stats { return e.stats }

// Stats are scheduler observability counters: event throughput and
// event-record recycling.
type Stats struct {
	// Events is the total number of events dispatched.
	Events int64
	// Scheduled counts events ever enqueued.
	Scheduled int64
	// Canceled counts timers stopped before firing.
	Canceled int64
	// Purged counts canceled timers dropped lazily at pop or calendar
	// resize.
	Purged int64
	// PoolHits and PoolMisses count event-record allocations served
	// from / missed by the free list.
	PoolHits, PoolMisses int64
	// Resizes counts calendar-queue bucket-array rebuilds.
	Resizes int64
	// MaxQueued is the event-queue high-water mark.
	MaxQueued int
}

// event is a scheduled callback. Records are pooled per Env and linked
// through next both inside calendar buckets and on the free list.
type event struct {
	at   float64
	seq  int64
	fn   func()
	next *event
	// last, on the first record of a calendar-bucket run of equal
	// timestamps, is the run's final record (see calQueue).
	last     *event
	canceled bool
}

// evless orders events by time, then by issue sequence — the
// determinism contract of the simulator.
func evless(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Env) alloc() *event {
	if ev := e.pool; ev != nil {
		e.pool = ev.next
		ev.next = nil
		e.stats.PoolHits++
		return ev
	}
	e.stats.PoolMisses++
	return &event{}
}

// freeEvent returns a record to the pool. seq is invalidated so a
// stale Timer handle can never cancel a recycled record.
func (e *Env) freeEvent(ev *event) {
	ev.fn, ev.canceled = nil, false
	ev.seq = -1
	ev.next = e.pool
	e.pool = ev
}

// schedule enqueues a callback at time t (clamped to now).
func (e *Env) schedule(t float64, fn func()) *event {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := e.alloc()
	ev.at, ev.seq, ev.fn = t, e.seq, fn
	e.q.push(ev)
	e.stats.Scheduled++
	if n := e.q.n; n > e.stats.MaxQueued {
		e.stats.MaxQueued = n
	}
	return ev
}

// Timer is a handle to a scheduled callback, returned by At and After.
// The zero value is an expired timer.
type Timer struct {
	env *Env
	ev  *event
	seq int64
}

// At schedules fn to run at virtual time t (clamped to now). The
// callback runs inline on the scheduler and may schedule further
// events and use the *Fn primitives, but must not block.
func (e *Env) At(t float64, fn func()) Timer {
	if fn == nil {
		panic("sim: At with nil callback")
	}
	ev := e.schedule(t, fn)
	return Timer{env: e, ev: ev, seq: ev.seq}
}

// After schedules fn to run d milliseconds from now (negative d runs at
// the current time).
func (e *Env) After(d float64, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Stop cancels the timer. It reports whether it prevented the callback
// from running; stopping an already-fired or already-stopped timer is a
// no-op. The queue entry is purged lazily.
func (t Timer) Stop() bool {
	ev := t.ev
	if ev == nil || ev.seq != t.seq || ev.canceled {
		return false
	}
	ev.canceled = true
	t.env.stats.Canceled++
	return true
}

// Run executes events until the queue empties and returns the final
// virtual time. Run panics if waiters are left parked on queues or
// resources with an empty queue — a deadlock in the model that must not
// fail silently.
func (e *Env) Run() float64 { return e.RunUntil(math.Inf(1)) }

// RunUntil executes events with timestamps <= horizon and returns the
// final virtual time.
func (e *Env) RunUntil(horizon float64) float64 {
	if e.stopped {
		panic("sim: Run on a stopped environment")
	}
	if e.inRun {
		panic("sim: Run re-entered from a callback")
	}
	e.inRun = true
	defer func() { e.inRun = false }()
	for {
		ev := e.q.pop()
		if ev == nil {
			break
		}
		if ev.canceled {
			e.stats.Purged++
			e.freeEvent(ev)
			continue
		}
		if ev.at > horizon {
			e.q.push(ev) // seq preserved: ordering is unaffected
			return e.now
		}
		e.now = ev.at
		e.stats.Events++
		fn := ev.fn
		e.freeEvent(ev)
		fn()
	}
	if e.blocked > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d waiter(s) blocked with an empty event queue at t=%v", e.blocked, e.now))
	}
	return e.now
}

// Stop discards every pending event, dropping the callbacks (and what
// they capture) a horizon-bounded run left queued. It must be called
// after Run/RunUntil returns, never from inside a callback. Stop is
// idempotent; a stopped environment cannot be run again.
func (e *Env) Stop() {
	if e.inRun {
		panic("sim: Stop called from inside Run")
	}
	for ev := e.q.pop(); ev != nil; ev = e.q.pop() {
	}
	e.stopped = true
	e.pool = nil
	e.blocked = 0
}
