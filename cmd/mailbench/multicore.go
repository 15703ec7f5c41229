package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mailbench: "+format+"\n", args...)
	os.Exit(1)
}

// runMultiCore is the A9 harness behind `mailbench -multicore`: the
// live RPC data plane (no simulator) swept over GOMAXPROCS ×
// transport × connections × caller populations, printing aggregate
// req/s per cell. The caller axis separates the two regimes that
// matter: 1 caller is the latency-bound case where each call pays a
// whole round trip (nothing amortizes), 64 callers is the
// throughput-bound case where the MPSC writer's batching is the
// contended path. The same grid backs BenchmarkRPCMultiCore; this
// mode exists so the table can be regenerated (and uploaded as a CI
// artifact) without the testing harness.
func runMultiCore(callerList []int, msgBytes int, dur time.Duration, gomaxprocs []int) {
	transports := []struct {
		name string
		mk   func() transport.Transport
	}{
		{"inproc", func() transport.Transport { return transport.NewInProc() }},
		{"tcp", func() transport.Transport {
			t := transport.NewTCP()
			t.ZeroCopyResponses = true
			return t
		}},
	}
	h := transport.HandlerFunc(func(m *wire.Message) *wire.Message {
		return &wire.Message{Kind: wire.KindResponse, ID: m.ID, Body: m.Body}
	})
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	fmt.Printf("A9 multi-core RPC scale-out: %dB echo, %v per cell (host: %d CPUs)\n\n",
		msgBytes, dur, runtime.NumCPU())
	fmt.Printf("%-12s %-8s %-7s %-9s %12s %12s\n", "gomaxprocs", "transport", "conns", "callers", "req/s", "ns/op")
	for _, gmp := range gomaxprocs {
		for _, tc := range transports {
			for _, conns := range []int{1, 4} {
				for _, callers := range callerList {
					runtime.GOMAXPROCS(gmp)
					reqs := runCell(tc.mk(), h, callers, conns, msgBytes, dur)
					runtime.GOMAXPROCS(prev)
					nsPerOp := float64(0)
					if reqs > 0 {
						nsPerOp = float64(dur.Nanoseconds()) / float64(reqs)
					}
					fmt.Printf("%-12d %-8s %-7d %-9d %12.0f %12.0f\n",
						gmp, tc.name, conns, callers, float64(reqs)/dur.Seconds(), nsPerOp)
				}
			}
		}
	}
}

// runCell measures one grid cell: aggregate completed echo calls over
// dur with the caller population spread round-robin across conns
// connections of one transport.
func runCell(tr transport.Transport, h transport.Handler, callers, conns, msgBytes int, dur time.Duration) int64 {
	ln, err := tr.Serve("", h)
	if err != nil {
		fatalf("multicore: serve: %v", err)
	}
	defer ln.Close()
	eps := make([]transport.Endpoint, conns)
	for i := range eps {
		if eps[i], err = tr.Dial(ln.Addr()); err != nil {
			fatalf("multicore: dial: %v", err)
		}
		defer eps[i].Close()
	}
	body := make([]byte, msgBytes)
	var done atomic.Bool
	var completed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		ep := eps[c%conns]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				resp, err := ep.Call(&wire.Message{Kind: wire.KindRequest, Method: "echo", Body: body})
				if err != nil {
					if !done.Load() {
						fatalf("multicore: call: %v", err)
					}
					return
				}
				resp.Release()
				completed.Add(1)
			}
		}()
	}
	time.Sleep(dur)
	done.Store(true)
	wg.Wait()
	return completed.Load()
}
