package sim

import (
	"fmt"
	"math/rand"
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
	env := NewEnv()
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
			t.Fatalf("virtual time ran backward: t=%v fired after t=%v", order[i], order[i-1])
		}
	}
	if len(order) != 66 || order[len(order)-1] != 100000 {
		t.Fatalf("got %d events ending at %v, want 66 ending at 100000", len(order), order[len(order)-1])
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

// TestCallbackPrimitives exercises AcquireFn/LockFn/TransferFn
// together on one environment: synchronous grants run inline, parked
// waiters resume through events at the release time.
func TestCallbackPrimitives(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	mu := NewMutex(env)
	link := NewLink(env, 10, 0) // latency-only

	var order []string
	// Two acquirers contend for the same resource.
	res.AcquireFn(1, func() {
		order = append(order, "first-acquired")
		env.After(5, func() {
			res.Release(1)
			order = append(order, "first-released")
		})
	})
	res.AcquireFn(1, func() { // parked until t=5
		order = append(order, fmt.Sprintf("second-acquired@%v", env.Now()))
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
		"first-acquired", "locked", "first-released", "second-acquired@5", "xfer@10 d=10",
	})
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("order = %v\nwant    %v", got, want)
	}
}

// TestRingsCompactUnderBacklog: a ring that always keeps a backlog must
// not grow its backing array with total traffic (the dead prefix is
// compacted away), or long-running simulations leak memory.
func TestRingsCompactUnderBacklog(t *testing.T) {
	env := NewEnv()
	const churn = 100000

	r := NewResource(env, 1)
	r.waiters = append(r.waiters, waiter{n: 1})
	for i := 0; i < churn; i++ {
		r.waiters = append(r.waiters, waiter{n: 1})
		r.dropFrontWaiter()
	}
	if c := cap(r.waiters); c > 1024 {
		t.Fatalf("resource waiters backing array grew to %d for a 1-waiter backlog", c)
	}
}

// TestStopSemantics: Stop drops pending events, is idempotent, and a
// stopped environment refuses to run.
func TestStopSemantics(t *testing.T) {
	env := NewEnv()
	fired := false
	env.At(100, func() { fired = true })
	env.RunUntil(1)
	env.Stop()
	env.Stop() // idempotent
	if fired || env.q.n != 0 {
		t.Fatalf("Stop left %d event(s) queued (fired=%v)", env.q.n, fired)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Run on a stopped environment must panic")
		}
	}()
	env.Run()
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
// quadratic tie handling: 10⁶ events spread round-robin over 1 000
// distinct timestamps — so nearly every insert lands in the middle of
// its bucket, behind thousands of equal-time records — must pop in the
// heap's exact (time, seq) order and in comparable wall time. Before
// the per-timestamp FIFO runs a middle insert walked every equal-time
// record: 6.85 s for 200 000 timers against the heap's 0.11 s.
func TestCalendarTiedTimestamps(t *testing.T) {
	const events, stamps = 1_000_000, 1_000
	type fired struct {
		at  float64
		seq int64
	}
	run := func(q eventQueue) ([]fired, time.Duration) {
		order := make([]fired, 0, events)
		start := time.Now()
		for i := 0; i < events; i++ {
			q.push(&event{at: float64(1 + i%stamps), seq: int64(i + 1)})
		}
		for ev := q.pop(); ev != nil; ev = q.pop() {
			order = append(order, fired{ev.at, ev.seq})
		}
		return order, time.Since(start)
	}
	heap, heapTime := run(&heapQueue{})
	cal, calTime := run(newCalQueue(&Stats{}))
	if len(cal) != events || len(heap) != events {
		t.Fatalf("popped %d (calendar) and %d (heap) of %d events", len(cal), len(heap), events)
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
