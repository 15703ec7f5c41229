package sim

import (
	"math"
	"reflect"
	"testing"
)

// ticker schedules fn every d ms, n times, as one self-rescheduling
// callback chain — the shape every model in the repository uses.
func ticker(env *Env, d float64, n int, fn func()) {
	var tick func()
	tick = func() {
		fn()
		if n--; n > 0 {
			env.After(d, tick)
		}
	}
	env.After(d, tick)
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	env := NewEnv()
	var times []float64
	env.After(10, func() {
		times = append(times, env.Now())
		env.After(5, func() { times = append(times, env.Now()) })
	})
	end := env.Run()
	if !reflect.DeepEqual(times, []float64{10, 15}) {
		t.Errorf("times = %v", times)
	}
	if end != 15 {
		t.Errorf("end = %v", end)
	}
}

func TestInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		env := NewEnv()
		var order []string
		ticker(env, 10, 3, func() { order = append(order, "a") })
		ticker(env, 15, 2, func() { order = append(order, "b") })
		env.Run()
		return order
	}
	first := run()
	// t=10,15,20,30,30; at the t=30 tie, b's event was scheduled first
	// (at t=15, before a's at t=20), so b fires first.
	want := []string{"a", "b", "a", "b", "a"}
	if !reflect.DeepEqual(first, want) {
		t.Errorf("order = %v, want %v", first, want)
	}
	for i := 0; i < 5; i++ {
		if got := run(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d differs: %v vs %v", i, got, first)
		}
	}
}

// TestSleepNegativeAndUntilPast: After with a negative delay and At in
// the past both run at the current time.
func TestSleepNegativeAndUntilPast(t *testing.T) {
	env := NewEnv()
	var times []float64
	env.After(5, func() {
		env.After(-3, func() { times = append(times, env.Now()) })
		env.At(2, func() { times = append(times, env.Now()) })
	})
	env.Run()
	if !reflect.DeepEqual(times, []float64{5, 5}) {
		t.Errorf("times = %v, want [5 5]: past times must clamp to now", times)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	env := NewEnv()
	ticks := 0
	ticker(env, 10, 100, func() { ticks++ })
	end := env.RunUntil(35)
	if ticks != 3 {
		t.Errorf("ticks = %d, want 3", ticks)
	}
	if end != 30 {
		t.Errorf("end = %v, want 30", end)
	}
	// Resume to completion.
	env.Run()
	if ticks != 100 {
		t.Errorf("ticks after full run = %d", ticks)
	}
}

// hold acquires one unit of r, holds it for d ms, and reports the
// [acquired, released] span.
func hold(env *Env, r *Resource, d float64, done func(span [2]float64)) {
	r.AcquireFn(1, func() {
		start := env.Now()
		env.After(d, func() {
			r.Release(1)
			done([2]float64{start, env.Now()})
		})
	})
}

func TestResourceContention(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	var spans [][2]float64
	for i := 0; i < 3; i++ {
		hold(env, r, 10, func(s [2]float64) { spans = append(spans, s) })
	}
	env.Run()
	want := [][2]float64{{0, 10}, {10, 20}, {20, 30}}
	if !reflect.DeepEqual(spans, want) {
		t.Errorf("spans = %v, want serialized %v", spans, want)
	}
	if r.inUse != 0 {
		t.Error("resource not fully released")
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 2)
	var done []float64
	for i := 0; i < 4; i++ {
		hold(env, r, 10, func(s [2]float64) { done = append(done, s[1]) })
	}
	env.Run()
	if !reflect.DeepEqual(done, []float64{10, 10, 20, 20}) {
		t.Errorf("done = %v", done)
	}
}

func TestResourceAcquireTooMuchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Acquire above capacity must panic")
		}
	}()
	NewResource(NewEnv(), 1).AcquireFn(2, func() {})
}

func TestMutex(t *testing.T) {
	env := NewEnv()
	m := NewMutex(env)
	var order []string
	m.LockFn(func() {
		if m.r.inUse == 0 {
			t.Error("mutex must report locked")
		}
		env.After(5, func() {
			order = append(order, "w1")
			m.Unlock()
		})
	})
	m.LockFn(func() {
		order = append(order, "w2")
		m.Unlock()
	})
	env.Run()
	if !reflect.DeepEqual(order, []string{"w1", "w2"}) {
		t.Errorf("order = %v", order)
	}
	if m.r.inUse != 0 {
		t.Error("mutex must be free at end")
	}
}

func TestLinkLatencyAndBandwidth(t *testing.T) {
	env := NewEnv()
	// 8 Mb/s, 100 ms: 1 MB takes 1000 ms tx + 100 ms propagation.
	l := NewLink(env, 100, 8)
	var delay float64
	l.TransferFn(1_000_000, func(d float64) { delay = d })
	env.Run()
	if math.Abs(delay-1100) > 1e-6 {
		t.Errorf("delay = %v, want 1100", delay)
	}
	if l.BytesCarried != 1_000_000 {
		t.Errorf("BytesCarried = %d", l.BytesCarried)
	}
}

func TestLinkSerializesTransfers(t *testing.T) {
	env := NewEnv()
	l := NewLink(env, 0, 8) // 1 MB = 1000 ms
	var ends []float64
	for i := 0; i < 2; i++ {
		l.TransferFn(1_000_000, func(float64) { ends = append(ends, env.Now()) })
	}
	env.Run()
	if !reflect.DeepEqual(ends, []float64{1000, 2000}) {
		t.Errorf("ends = %v: transfers must queue", ends)
	}
}

func TestLinkInfiniteBandwidth(t *testing.T) {
	env := NewEnv()
	l := NewLink(env, 5, 0)
	var delay float64
	l.TransferFn(1<<30, func(d float64) { delay = d })
	env.Run()
	if delay != 5 {
		t.Errorf("delay = %v, want latency only", delay)
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("deadlock must panic")
		}
	}()
	env := NewEnv()
	m := NewMutex(env)
	m.LockFn(func() {})
	m.LockFn(func() {}) // parked behind a holder that never unlocks
	env.Run()
}
