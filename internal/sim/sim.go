// Package sim is a deterministic, process-oriented discrete-event
// simulator: the substrate that replaces the paper's Click-router
// testbed for the Figure 7 experiments. Virtual time is in
// milliseconds.
//
// The scheduler is two-tier. The fast path is callback events
// (Env.At/Env.After and the *Fn variants on Queue, Resource, Mutex and
// Link): the scheduler invokes them inline, with no goroutine handoff,
// so hot loops cost one event-queue operation per step. The slow path
// is process goroutines (Env.Go): cooperative coroutines for genuinely
// stateful component logic, scheduled so that exactly one holds the
// execution token at any instant. Both tiers share one event queue and
// one total order — events fire by (time, then issue sequence) — so
// simulations are bit-reproducible and free of data races by
// construction, whichever mix of tiers a model uses.
package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Env is a simulation environment: a virtual clock and an event queue.
// Create one with NewEnv, add work with Go/At, then call Run. When a
// run can leave processes parked (RunUntil horizons, abandoned
// simulations), call Stop to reclaim their goroutines.
type Env struct {
	now     float64
	q       evqueue
	seq     int64
	yieldCh chan struct{} // process -> scheduler handoff
	blocked int           // processes/waiters parked on queues/resources (not timed)
	procs   int           // live processes
	all     []*Proc       // every non-dead process, for Stop
	rng     *rand.Rand

	inRun    bool
	stopping bool
	stopped  bool

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
	// HeapQueue selects the reference binary-heap event queue instead of
	// the default calendar queue. Both implement the same total order;
	// the heap exists as the oracle for equivalence tests.
	HeapQueue bool
}

// NewEnv returns an empty environment at time zero with default
// options (calendar queue, fixed RNG seed).
func NewEnv() *Env { return NewEnvWith(Options{}) }

// NewEnvWith returns an empty environment at time zero.
func NewEnvWith(opt Options) *Env {
	e := &Env{yieldCh: make(chan struct{})}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	e.rng = rand.New(rand.NewSource(seed))
	if opt.HeapQueue {
		e.q = &heapQueue{}
	} else {
		cq := newCalQueue(&e.stats)
		cq.free = e.freeEvent
		e.q = cq
	}
	return e
}

// Now returns the current virtual time in milliseconds.
func (e *Env) Now() float64 { return e.now }

// Rand returns the environment's deterministic RNG. Stochastic models
// must draw all randomness from it (never the global source) so runs
// stay reproducible and independent of sweep parallelism.
func (e *Env) Rand() *rand.Rand { return e.rng }

// Live returns the number of live (started, not yet finished)
// processes.
func (e *Env) Live() int { return e.procs }

// Stats reports scheduler counters accumulated so far.
func (e *Env) Stats() Stats { return e.stats }

// Stats are scheduler observability counters: event throughput, the
// fast-path/slow-path split, and event-record recycling.
type Stats struct {
	// Events is the total number of events dispatched.
	Events int64
	// CallbackEvents counts fast-path (inline callback) dispatches.
	CallbackEvents int64
	// ProcSwitches counts slow-path dispatches (goroutine handoffs).
	ProcSwitches int64
	// Scheduled counts events ever enqueued.
	Scheduled int64
	// Canceled counts timers stopped before firing.
	Canceled int64
	// Purged counts dead entries (canceled timers, events of finished
	// processes) dropped lazily at pop or calendar resize.
	Purged int64
	// PoolHits and PoolMisses count event-record allocations served
	// from / missed by the free list.
	PoolHits, PoolMisses int64
	// Resizes counts calendar-queue bucket-array rebuilds.
	Resizes int64
	// MaxQueued is the event-queue high-water mark.
	MaxQueued int
}

// event is a scheduled occurrence: either a process resumption (proc
// set) or an inline callback (fn set). Records are pooled per Env and
// linked through next both inside calendar buckets and on the free
// list.
type event struct {
	at   float64
	seq  int64
	proc *Proc
	fn   func()
	next *event
	// last, on the first record of a calendar-bucket run of equal
	// timestamps, is the run's final record (see calQueue).
	last     *event
	canceled bool
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
	ev.proc, ev.fn, ev.canceled = nil, nil, false
	ev.seq = -1
	ev.next = e.pool
	e.pool = ev
}

// schedule enqueues an event at time t for either a process resumption
// or a callback.
func (e *Env) schedule(t float64, p *Proc, fn func()) *event {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := e.alloc()
	ev.at, ev.seq, ev.proc, ev.fn = t, e.seq, p, fn
	e.q.push(ev)
	e.stats.Scheduled++
	if n := e.q.len(); n > e.stats.MaxQueued {
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
// callback runs inline on the scheduler — the fast path — and may
// schedule further events, spawn processes, and use the *Fn primitive
// variants, but must not block.
func (e *Env) At(t float64, fn func()) Timer {
	if fn == nil {
		panic("sim: At with nil callback")
	}
	ev := e.schedule(t, nil, fn)
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

// Proc is a simulated process. Its methods may only be called from
// within the process's own function while it holds the execution token.
type Proc struct {
	env  *Env
	name string
	wake chan struct{}
	dead bool
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Env returns the owning environment.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.env.now }

// stopSignal unwinds a process goroutine during Env.Stop.
type stopSignal struct{}

// Go adds a process to the environment. Processes added before Run start
// at time zero in registration order; processes added from inside a
// running process start at the current time.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	if e.stopped {
		panic("sim: Go on a stopped environment")
	}
	p := &Proc{env: e, name: name, wake: make(chan struct{})}
	e.procs++
	e.registerProc(p)
	e.schedule(e.now, p, nil)
	go func() {
		defer func() {
			r := recover()
			p.dead = true
			e.procs--
			if r != nil {
				if _, ok := r.(stopSignal); !ok {
					panic(r) // a real bug in fn: crash, as an unhandled panic would
				}
			}
			e.yieldCh <- struct{}{}
		}()
		<-p.wake // wait for first dispatch
		if e.stopping {
			return
		}
		fn(p)
	}()
	return p
}

// registerProc records p for Stop, compacting finished entries when
// they dominate the registry. Compaction is suppressed while Stop is
// iterating e.all by index — shifting entries would skip live procs.
func (e *Env) registerProc(p *Proc) {
	if !e.stopping && len(e.all) >= 1024 && len(e.all) >= 2*e.procs {
		live := e.all[:0]
		for _, q := range e.all {
			if !q.dead {
				live = append(live, q)
			}
		}
		for i := len(live); i < len(e.all); i++ {
			e.all[i] = nil
		}
		e.all = live
	}
	e.all = append(e.all, p)
}

// Run executes events until the queue empties or the optional horizon is
// passed. It returns the final virtual time. Run panics if a process
// deadlock leaves blocked processes with an empty queue — a simulation
// bug that must not fail silently.
func (e *Env) Run() float64 { return e.RunUntil(math.Inf(1)) }

// RunUntil executes events with timestamps <= horizon and returns the
// final virtual time.
func (e *Env) RunUntil(horizon float64) float64 {
	if e.stopped {
		panic("sim: Run on a stopped environment")
	}
	if e.inRun {
		panic("sim: Run re-entered from a process or callback")
	}
	e.inRun = true
	defer func() { e.inRun = false }()
	for {
		ev := e.q.pop()
		if ev == nil {
			break
		}
		if ev.canceled || (ev.proc != nil && ev.proc.dead) {
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
		if fn := ev.fn; fn != nil {
			// Fast path: run the callback inline.
			e.freeEvent(ev)
			e.stats.CallbackEvents++
			fn()
			continue
		}
		// Slow path: hand the token to the process goroutine.
		p := ev.proc
		e.freeEvent(ev)
		e.stats.ProcSwitches++
		p.wake <- struct{}{}
		<-e.yieldCh
	}
	if e.blocked > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es)/waiter(s) blocked with an empty event queue at t=%v", e.blocked, e.now))
	}
	return e.now
}

// Stop terminates every live process goroutine (their deferred calls
// run; the process function does not resume) and discards all pending
// events, making repeated short-horizon runs leak-free. It must be
// called after Run/RunUntil returns, never from inside a process or
// callback. Stop is idempotent; a stopped environment cannot be run
// again.
func (e *Env) Stop() {
	if e.stopped {
		return
	}
	if e.inRun {
		panic("sim: Stop called from inside Run")
	}
	e.stopping = true
	// Index loop, not range: a deferred function in an unwinding process
	// may call Go, appending to e.all — those late arrivals must be
	// unwound too or their goroutines park on <-p.wake forever.
	for i := 0; i < len(e.all); i++ {
		p := e.all[i]
		if p.dead {
			continue
		}
		p.wake <- struct{}{} // unwinds via stopSignal / early return
		<-e.yieldCh
	}
	e.stopping = false
	e.stopped = true
	e.all = nil
	for ev := e.q.pop(); ev != nil; ev = e.q.pop() {
	}
	e.pool = nil
	e.blocked = 0
}

// yield returns the token to the scheduler and waits to be resumed.
func (p *Proc) yield() {
	e := p.env
	if e.stopping {
		// A primitive used from a deferred call while Stop unwinds this
		// process: keep unwinding instead of handing off.
		panic(stopSignal{})
	}
	e.yieldCh <- struct{}{}
	<-p.wake
	if e.stopping {
		panic(stopSignal{})
	}
}

// Sleep suspends the process for d milliseconds of virtual time.
// Negative durations sleep zero.
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		d = 0
	}
	p.env.schedule(p.env.now+d, p, nil)
	p.yield()
}

// SleepUntil suspends the process until the given virtual time (no-op if
// already past).
func (p *Proc) SleepUntil(t float64) {
	p.env.schedule(t, p, nil)
	p.yield()
}

// block suspends the process indefinitely; some other process must hand
// it to Env.unblock. Used by queues and resources.
func (p *Proc) block() {
	p.env.blocked++
	p.yield()
	p.env.blocked--
}

// unblock schedules a blocked process to resume at the current time.
func (e *Env) unblock(p *Proc) {
	e.schedule(e.now, p, nil)
}
