package sim

import (
	"fmt"
	"testing"
)

// BenchmarkSimCore measures raw scheduler throughput (reported as
// events/sec) for the three hot primitives of the Figure 7 workload —
// timers, link transfers, and queue handoffs — with callback chains at
// 1k/10k/100k concurrent entities.
func BenchmarkSimCore(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		n := n
		b.Run(fmt.Sprintf("timers/callback-%d", n), func(b *testing.B) {
			benchEvents(b, func(env *Env) { startTimerEntities(env, n, 10) })
		})
	}
	// Link transfers and queue handoffs at the acceptance-bar size.
	const n = 10_000
	b.Run(fmt.Sprintf("link/callback-%d", n), func(b *testing.B) {
		benchEvents(b, func(env *Env) {
			link := NewLink(env, 1, 100)
			for i := 0; i < n; i++ {
				hops := 10
				var next func(float64)
				next = func(float64) {
					if hops--; hops >= 0 {
						link.TransferFn(1000, next)
					}
				}
				next(0)
			}
		})
	})
}

// startTimerEntities schedules n self-rescheduling callback chains of
// the given hop count.
func startTimerEntities(env *Env, n, hops int) {
	for i := 0; i < n; i++ {
		left := hops
		var tick func()
		tick = func() {
			if left--; left > 0 {
				env.After(1, tick)
			}
		}
		env.After(1, tick)
	}
}

// benchEvents runs one populated environment per iteration and reports
// scheduler throughput.
func benchEvents(b *testing.B, populate func(env *Env)) {
	var events int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := NewEnv()
		populate(env)
		env.Run()
		events += env.Stats().Events
		env.Stop()
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/sec")
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkCalendarVsHeap isolates the event queue: the timer-entity
// load of BenchmarkSimCore (10 000 entities re-arming a 1 ms timer ten
// times) pushed and popped through each queue implementation directly.
func BenchmarkCalendarVsHeap(b *testing.B) {
	for _, impl := range []struct {
		name string
		mk   func() eventQueue
	}{
		{"calendar", func() eventQueue { return newCalQueue(&Stats{}) }},
		{"heap", func() eventQueue { return &heapQueue{} }},
	} {
		b.Run(impl.name, func(b *testing.B) {
			const entities, hops = 10_000, 10
			var events int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := impl.mk()
				var seq int64
				for e := 0; e < entities; e++ {
					seq++
					q.push(&event{at: 1, seq: seq, fn: func() {}})
				}
				for ev := q.pop(); ev != nil; ev = q.pop() {
					events++
					if ev.at < hops {
						seq++
						ev.at, ev.seq = ev.at+1, seq
						q.push(ev)
					}
				}
			}
			b.StopTimer()
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(events)/s, "events/sec")
			}
		})
	}
}
