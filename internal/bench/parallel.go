package bench

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count setting: n when positive, otherwise
// GOMAXPROCS — the default parallelism of scenario sweeps.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs fn(0), ..., fn(n-1) across a bounded worker pool of the
// given size (resolved through Workers). Every index runs exactly once;
// callers keep results deterministic by writing into slot i of a
// pre-sized slice, so output ordering never depends on scheduling.
// Each sim.Env is confined to one fn call, which is what makes
// scenario fan-out safe.
func forEach(workers, n int, fn func(i int)) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
