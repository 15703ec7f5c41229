package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// TestCalendarMatchesHeapOrder drains identical random event sets
// through both queue implementations and requires the same total order.
// The heap is the oracle; the calendar queue must agree even across
// resizes, bucket wraparound, and clustered/sparse timestamp mixes.
func TestCalendarMatchesHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		cal := newCalQueue(&Stats{})
		heap := &heapQueue{}
		type op struct {
			at  float64
			seq int64
		}
		var seq int64
		push := func(at float64) {
			seq++
			cal.push(&event{at: at, seq: seq})
			heap.push(&event{at: at, seq: seq})
		}
		// Mixed workload: bursts of near-simultaneous events, a long
		// tail, interleaved pops (the classic calendar-queue stressor).
		for i := 0; i < 500; i++ {
			switch rng.Intn(4) {
			case 0:
				push(rng.Float64() * 10) // dense cluster
			case 1:
				push(rng.Float64() * 1e6) // sparse tail
			case 2:
				push(float64(rng.Intn(5))) // exact ties, order by seq
			case 3:
				if heap.len() > 0 {
					a, b := cal.pop(), heap.pop()
					if a.at != b.at || a.seq != b.seq {
						t.Fatalf("trial %d: pop mismatch: calendar (%v,%d) vs heap (%v,%d)",
							trial, a.at, a.seq, b.at, b.seq)
					}
				}
			}
		}
		for heap.len() > 0 {
			a, b := cal.pop(), heap.pop()
			if a == nil || a.at != b.at || a.seq != b.seq {
				t.Fatalf("trial %d: drain mismatch vs heap", trial)
			}
		}
		if cal.pop() != nil {
			t.Fatalf("trial %d: calendar has leftover events", trial)
		}
	}
}

// TestCalendarExtremeTimestamps ensures the bucket hash degrades
// gracefully (never panics, never disorders) for timestamps that would
// overflow a naive virtual-day computation.
func TestCalendarExtremeTimestamps(t *testing.T) {
	q := newCalQueue(&Stats{})
	times := []float64{0, 1e300, 5, 1 << 60, 2.5, 1e300, 0}
	for i, at := range times {
		q.push(&event{at: at, seq: int64(i + 1)})
	}
	prev := -1.0
	for i := 0; i < len(times); i++ {
		ev := q.pop()
		if ev == nil {
			t.Fatalf("pop %d: queue empty early", i)
		}
		if ev.at < prev {
			t.Fatalf("pop %d: out of order: %v after %v", i, ev.at, prev)
		}
		prev = ev.at
	}
}

// TestCalendarScanRewindAfterResize is the regression for the
// shrink-resize ordering bug: draining a burst of near-time events with
// one far-future timer pending shrinks the calendar and used to park
// the scan on the far timer's day; a short timer scheduled from the
// last near-time event then hashed behind the scan and fired AFTER the
// far-future event, running virtual time backward.
func TestCalendarScanRewindAfterResize(t *testing.T) {
	for _, opt := range []Options{{}, {HeapQueue: true}} {
		env := NewEnvWith(opt)
		var order []float64
		record := func() { order = append(order, env.Now()) }
		for i := 0; i < 64; i++ {
			if i == 63 {
				env.At(float64(i), func() {
					record()
					// By now the drain has shrink-resized the calendar with
					// only the t=100000 timer pending; this short timer must
					// still fire before it.
					env.After(1, record)
				})
			} else {
				env.At(float64(i), record)
			}
		}
		env.At(100000, record)
		env.Run()
		for i := 1; i < len(order); i++ {
			if order[i] < order[i-1] {
				t.Fatalf("opt %+v: virtual time ran backward: t=%v fired after t=%v",
					opt, order[i], order[i-1])
			}
		}
		if len(order) != 66 || order[len(order)-1] != 100000 {
			t.Fatalf("opt %+v: got %d events ending at %v, want 66 ending at 100000",
				opt, len(order), order[len(order)-1])
		}
	}
}

// TestCalendarHugeThenNormalOrder: after popping a timestamp too large
// for a finite day window, the scan cannot bound the next minimum; a
// normal-range event pushed into a different bucket must still pop
// before a larger huge one (direct-min fallback + scan rewind).
func TestCalendarHugeThenNormalOrder(t *testing.T) {
	q := newCalQueue(&Stats{})
	q.push(&event{at: 1e300, seq: 1})
	q.push(&event{at: 1e301, seq: 2})
	if ev := q.pop(); ev.at != 1e300 {
		t.Fatalf("first pop = %v, want 1e300", ev.at)
	}
	q.push(&event{at: 5, seq: 3}) // hashes to a bucket the stale scan skips
	if ev := q.pop(); ev.at != 5 {
		t.Fatalf("second pop = %v, want 5 (huge event popped ahead of it)", ev.at)
	}
	if ev := q.pop(); ev.at != 1e301 {
		t.Fatalf("third pop = %v, want 1e301", ev.at)
	}
	if q.pop() != nil {
		t.Fatal("queue should be empty")
	}
}

// TestTimerAtAfterStop covers the fast-path timer API: firing order,
// After clamping, and Stop semantics (including double-stop and
// stop-after-fire, which must not cancel a recycled pool record).
func TestTimerAtAfterStop(t *testing.T) {
	env := NewEnv()
	var fired []string
	env.At(5, func() { fired = append(fired, "b") })
	env.At(1, func() { fired = append(fired, "a") })
	tm := env.At(3, func() { fired = append(fired, "cancel-me") })
	env.After(-7, func() { fired = append(fired, "clamped") }) // runs at t=0
	if !tm.Stop() {
		t.Fatal("first Stop should cancel")
	}
	if tm.Stop() {
		t.Fatal("second Stop should be a no-op")
	}
	env.At(1, func() {
		// Chained scheduling from inside a callback.
		env.After(1, func() { fired = append(fired, "chain") })
	})
	env.Run()
	got := fmt.Sprint(fired)
	want := fmt.Sprint([]string{"clamped", "a", "chain", "b"})
	if got != want {
		t.Fatalf("fire order = %v, want %v", got, want)
	}

	// A handle to a fired timer must not cancel the (recycled) record.
	env2 := NewEnv()
	ran := 0
	t1 := env2.At(1, func() { ran++ })
	env2.Run()
	if t1.Stop() {
		t.Fatal("Stop after fire should report false")
	}
	env2.At(2, func() { ran++ })
	env2.Run()
	if ran != 2 {
		t.Fatalf("ran = %d, want 2 (stale Stop must not cancel a recycled event)", ran)
	}
	if c := env2.Stats().Canceled; c != 0 {
		t.Fatalf("Canceled = %d, want 0", c)
	}
}

// TestCallbackPrimitives exercises GetFn/AcquireFn/LockFn/TransferFn
// and checks they interoperate with the process-based variants on the
// same primitives.
func TestCallbackPrimitives(t *testing.T) {
	env := NewEnv()
	q := NewQueue(env)
	res := NewResource(env, 1)
	mu := NewMutex(env)
	link := NewLink(env, 10, 0) // latency-only

	var order []string
	// Callback consumer parks first, a process producer feeds it.
	q.GetFn(func(v any) { order = append(order, "got:"+v.(string)) })
	env.Go("producer", func(p *Proc) {
		p.Sleep(1)
		q.Put("x")
	})
	// Callback and process contend for the same resource.
	res.AcquireFn(1, func() {
		order = append(order, "cb-acquired")
		env.After(5, func() {
			res.Release(1)
			order = append(order, "cb-released")
		})
	})
	env.Go("contender", func(p *Proc) {
		res.Acquire(p, 1) // blocks until t=5
		order = append(order, fmt.Sprintf("proc-acquired@%v", p.Now()))
		res.Release(1)
	})
	mu.LockFn(func() {
		order = append(order, "locked")
		mu.Unlock()
	})
	link.TransferFn(0, func(d float64) {
		order = append(order, fmt.Sprintf("xfer@%v d=%v", env.Now(), d))
	})
	env.Run()

	want := fmt.Sprint([]string{
		"cb-acquired", "locked", "got:x", "cb-released", "proc-acquired@5", "xfer@10 d=10",
	})
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("order = %v\nwant    %v", got, want)
	}
}

// TestGetFnSynchronousWhenReady: a nonempty queue delivers to GetFn
// without consuming an event (the synchronous fast path that keeps the
// callback engine bit-identical to a non-yielding proc TryGet).
func TestGetFnSynchronousWhenReady(t *testing.T) {
	env := NewEnv()
	q := NewQueue(env)
	q.Put(7)
	delivered := false
	q.GetFn(func(v any) {
		if v.(int) != 7 {
			t.Fatalf("got %v, want 7", v)
		}
		delivered = true
	})
	if !delivered {
		t.Fatal("GetFn on a nonempty queue must deliver synchronously")
	}
}

// TestHeapOptionEquivalence runs the same mixed proc/callback model on
// both queue implementations and requires identical final times and
// event counts.
func TestHeapOptionEquivalence(t *testing.T) {
	run := func(opt Options) (float64, int64) {
		env := NewEnvWith(opt)
		link := NewLink(env, 3, 8)
		res := NewResource(env, 2)
		for i := 0; i < 10; i++ {
			env.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 5; j++ {
					res.Acquire(p, 1)
					p.Sleep(float64(j))
					res.Release(1)
					link.Transfer(p, 1000)
				}
			})
			env.After(float64(i)*2, func() { link.TransferFn(500, func(float64) {}) })
		}
		end := env.Run()
		return end, env.Stats().Events
	}
	calEnd, calEvents := run(Options{})
	heapEnd, heapEvents := run(Options{HeapQueue: true})
	if calEnd != heapEnd || calEvents != heapEvents {
		t.Fatalf("calendar (end=%v events=%d) != heap (end=%v events=%d)",
			calEnd, calEvents, heapEnd, heapEvents)
	}
}

// TestStopReclaimsGoroutines is the leak regression for satellite (a):
// 100 environments that each park processes on every primitive are
// stopped; the goroutine count must return to baseline.
func TestStopReclaimsGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		env := NewEnv()
		q := NewQueue(env)
		res := NewResource(env, 1)
		mu := NewMutex(env)
		env.Go("queue-parked", func(p *Proc) { q.Get(p) })
		env.Go("holder", func(p *Proc) {
			res.Acquire(p, 1)
			mu.Lock(p)
			p.Sleep(1e12) // far future: still pending at the horizon
		})
		env.Go("res-parked", func(p *Proc) { res.Acquire(p, 1) })
		env.Go("mutex-parked", func(p *Proc) { mu.Lock(p) })
		env.Go("deferred", func(p *Proc) {
			// A deferred primitive call during Stop unwind must not wedge.
			defer mu.Unlock()
			defer res.Release(1)
			mu.Lock(p)
			res.Acquire(p, 1)
			p.Sleep(1e12)
		})
		env.RunUntil(10)
		env.Stop()
		if env.Live() != 0 {
			t.Fatalf("iteration %d: %d processes alive after Stop", i, env.Live())
		}
	}
	// Allow the runtime a moment to retire exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		t.Fatalf("goroutines grew from %d to %d across 100 stopped environments", baseline, n)
	}
}

// TestStopUnwindsGoSpawnedDuringStop: a deferred function in an
// unwinding process may call Env.Go; Stop must unwind that late
// arrival too instead of leaving its goroutine parked forever.
func TestStopUnwindsGoSpawnedDuringStop(t *testing.T) {
	env := NewEnv()
	env.Go("parent", func(p *Proc) {
		defer env.Go("late-child", func(c *Proc) { c.Sleep(1) })
		p.Sleep(1e12)
	})
	env.RunUntil(1)
	env.Stop()
	if n := env.Live(); n != 0 {
		t.Fatalf("%d process(es) alive after Stop; late-spawned proc leaked", n)
	}
}

// TestRingsCompactUnderBacklog: a ring that always keeps a backlog must
// not grow its backing array with total traffic (the dead prefix is
// compacted away), or long-running simulations leak memory.
func TestRingsCompactUnderBacklog(t *testing.T) {
	env := NewEnv()
	const churn = 100000

	q := NewQueue(env)
	for i := 0; i < 10; i++ {
		q.Put(i) // permanent backlog: the queue never fully drains
	}
	for i := 0; i < churn; i++ {
		q.Put(i)
		q.TryGet()
	}
	if c := cap(q.items); c > 1024 {
		t.Fatalf("items backing array grew to %d for a 10-item backlog", c)
	}

	q.waiters = append(q.waiters, qwaiter{fn: func(any) {}})
	for i := 0; i < churn; i++ {
		q.waiters = append(q.waiters, qwaiter{fn: func(any) {}})
		q.takeWaiter()
	}
	if c := cap(q.waiters); c > 1024 {
		t.Fatalf("waiters backing array grew to %d for a 1-waiter backlog", c)
	}

	r := NewResource(env, 1)
	r.waiters = append(r.waiters, &waiter{n: 1})
	for i := 0; i < churn; i++ {
		r.waiters = append(r.waiters, &waiter{n: 1})
		r.dropFrontWaiter()
	}
	if c := cap(r.waiters); c > 1024 {
		t.Fatalf("resource waiters backing array grew to %d for a 1-waiter backlog", c)
	}
}

// TestStopSemantics: idempotence, Run-after-Stop panics, Go-after-Stop
// panics.
func TestStopSemantics(t *testing.T) {
	env := NewEnv()
	env.Go("sleeper", func(p *Proc) { p.Sleep(100) })
	env.RunUntil(1)
	env.Stop()
	env.Stop() // idempotent

	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on a stopped environment must panic", name)
			}
		}()
		fn()
	}
	mustPanic("Run", func() { env.Run() })
	mustPanic("Go", func() { env.Go("late", func(p *Proc) {}) })
}

// TestEnvRandDeterministic: same seed, same draws; different seeds
// diverge.
func TestEnvRandDeterministic(t *testing.T) {
	draw := func(seed int64) [4]int64 {
		env := NewEnvWith(Options{Seed: seed})
		var out [4]int64
		for i := range out {
			out[i] = env.Rand().Int63()
		}
		return out
	}
	if draw(7) != draw(7) {
		t.Fatal("same seed must reproduce the same draws")
	}
	if draw(7) == draw(8) {
		t.Fatal("different seeds should diverge")
	}
}

// TestPoolAndPurgeStats: canceled timers are purged lazily and event
// records recycle through the pool.
func TestPoolAndPurgeStats(t *testing.T) {
	env := NewEnv()
	for i := 0; i < 100; i++ {
		tm := env.After(float64(i), func() {})
		if i%2 == 0 {
			tm.Stop()
		}
	}
	env.Run()
	st := env.Stats()
	if st.Canceled != 50 {
		t.Fatalf("Canceled = %d, want 50", st.Canceled)
	}
	if st.Purged != 50 {
		t.Fatalf("Purged = %d, want 50", st.Purged)
	}
	if st.Events != 50 {
		t.Fatalf("Events = %d, want 50", st.Events)
	}
	// A second wave reuses pooled records.
	for i := 0; i < 100; i++ {
		env.After(float64(i), func() {})
	}
	env.Run()
	if env.Stats().PoolHits == 0 {
		t.Fatal("expected pooled event records to be reused")
	}
}

// TestCalendarTiedTimestamps is the regression for the calendar queue's
// quadratic tie handling: 10⁶ timers spread round-robin over 1 000
// distinct timestamps — so nearly every insert lands in the middle of
// its bucket, behind thousands of equal-time records — must pop in the
// heap's exact (time, seq) order and in comparable wall time. Before
// the per-timestamp FIFO runs a middle insert walked every equal-time
// record: 6.85 s for 200 000 timers against the heap's 0.11 s.
func TestCalendarTiedTimestamps(t *testing.T) {
	const timers, stamps = 1_000_000, 1_000
	type fired struct {
		at  float64
		seq int
	}
	run := func(opt Options) ([]fired, time.Duration) {
		env := NewEnvWith(opt)
		order := make([]fired, 0, timers)
		start := time.Now()
		for i := 0; i < timers; i++ {
			i := i
			env.At(float64(1+i%stamps), func() { order = append(order, fired{env.Now(), i}) })
		}
		env.Run()
		return order, time.Since(start)
	}
	heap, heapTime := run(Options{HeapQueue: true})
	cal, calTime := run(Options{})
	if len(cal) != timers || len(heap) != timers {
		t.Fatalf("fired %d (calendar) and %d (heap) of %d timers", len(cal), len(heap), timers)
	}
	for i := range heap {
		if cal[i] != heap[i] {
			t.Fatalf("pop %d: calendar %+v, heap %+v", i, cal[i], heap[i])
		}
	}
	t.Logf("calendar %v, heap %v", calTime, heapTime)
	if calTime > 3*heapTime {
		t.Errorf("calendar queue took %v on tied timestamps, more than 3x the heap's %v", calTime, heapTime)
	}
}
