package transport

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// drainAll runs writeLoop's consumer loop until the queue is closed
// and fully drained, handing every popped frame to sink.
func drainAll(q *writeQueue, sink func(outFrame)) {
	var batch []outFrame
	for {
		if batch = q.next(batch[:0], 64); len(batch) == 0 {
			return
		}
		for _, f := range batch {
			sink(f)
		}
	}
}

// TestMPSCTortureFIFO hammers the queue with many producers while the
// single consumer drains, then checks exact conservation and
// FIFO-per-producer ordering. Run under -race this exercises the
// push/pop/block interleavings.
func TestMPSCTortureFIFO(t *testing.T) {
	const producers = 8
	const perProducer = 5000

	q := newWriteQueue(nil)
	var got []outFrame
	var consumerDone sync.WaitGroup
	consumerDone.Add(1)
	go func() {
		defer consumerDone.Done()
		drainAll(q, func(f outFrame) { got = append(got, f) })
	}()

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for seq := 0; seq < perProducer; seq++ {
				if !q.push(outFrame{id: uint64(p)<<32 | uint64(seq)}) {
					t.Errorf("push refused before close (producer %d seq %d)", p, seq)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	q.close()
	consumerDone.Wait()

	if len(got) != producers*perProducer {
		t.Fatalf("popped %d frames, want %d", len(got), producers*perProducer)
	}
	next := make([]uint64, producers)
	for _, f := range got {
		p, seq := f.id>>32, f.id&0xffffffff
		if seq != next[p] {
			t.Fatalf("producer %d: got seq %d, want %d (FIFO violated)", p, seq, next[p])
		}
		next[p]++
	}
	if d := q.len(); d != 0 {
		t.Errorf("queue len after drain = %d, want 0", d)
	}
}

// TestMPSCCloseRacesPushes closes the queue while producers are still
// pushing. Refused pushes must report false (caller keeps the payload),
// and every accepted frame must reach the writer's final drain: the
// popped stream is exactly the accepted frames, in order per producer.
func TestMPSCCloseRacesPushes(t *testing.T) {
	const producers = 8
	for round := 0; round < 20; round++ {
		q := newWriteQueue(nil)
		var accepted atomic.Int64
		var got []outFrame
		var consumerDone sync.WaitGroup
		consumerDone.Add(1)
		go func() {
			defer consumerDone.Done()
			drainAll(q, func(f outFrame) { got = append(got, f) })
		}()

		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for seq := uint64(0); ; seq++ {
					if !q.push(outFrame{id: uint64(p)<<32 | seq}) {
						return // closed: we keep ownership, nothing leaks here
					}
					accepted.Add(1)
				}
			}(p)
		}
		time.Sleep(time.Millisecond)
		q.close()
		wg.Wait()
		consumerDone.Wait()

		if int64(len(got)) != accepted.Load() {
			t.Fatalf("round %d: popped %d, accepted %d", round, len(got), accepted.Load())
		}
		next := make([]uint64, producers)
		for _, f := range got {
			p, seq := f.id>>32, f.id&0xffffffff
			if seq != next[p] {
				t.Fatalf("round %d: producer %d got seq %d, want %d", round, p, seq, next[p])
			}
			next[p]++
		}
	}
}

// TestMPSCWaitWakes checks the block/wake handshake: a consumer blocked
// on an empty queue must be woken by a push, which it then pops, and by
// close, which leaves it nothing.
func TestMPSCWaitWakes(t *testing.T) {
	for _, trigger := range []string{"push", "close"} {
		q := newWriteQueue(nil)
		woke := make(chan int)
		go func() { woke <- len(q.next(nil, 1)) }()
		time.Sleep(2 * time.Millisecond) // let the consumer reach the park
		if trigger == "push" {
			q.push(outFrame{id: 1})
		} else {
			q.close()
		}
		want := 1
		if trigger == "close" {
			want = 0
		}
		select {
		case got := <-woke:
			if got != want {
				t.Fatalf("woken by %s: popped %d frames, want %d", trigger, got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("consumer never woke on %s", trigger)
		}
	}
}

// TestMPSCParkWakeChurn repeats the block/wake handshake many times:
// one producer pushes one frame per cycle and waits until it is
// consumed, while the consumer loops on next, so every cycle's push
// races the consumer declaring itself waiting. The producer yields a
// varying number of times before each push, so some cycles land before
// the consumer's spin ends and some after it blocked. A lost token
// shows up as a hang (the deadline), a duplicated one as parks and
// wakes that differ, and either as a misordered frame.
func TestMPSCParkWakeChurn(t *testing.T) {
	const cycles = 100_000
	var stats Stats
	q := newWriteQueue(&stats)
	var consumed atomic.Int64
	errc := make(chan error, 1)
	go func() {
		var batch []outFrame
		next := uint64(0)
		for next < cycles {
			batch = q.next(batch[:0], 64)
			for _, f := range batch {
				if f.id != next {
					errc <- fmt.Errorf("got frame %d, want %d", f.id, next)
					return
				}
				next++
				consumed.Store(int64(next))
			}
		}
		errc <- nil
	}()
	go func() {
		for i := 0; i < cycles; i++ {
			for y := 0; y < i%8; y++ {
				runtime.Gosched()
			}
			q.push(outFrame{id: uint64(i)})
			for consumed.Load() <= int64(i) {
				runtime.Gosched()
			}
		}
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatalf("consumer stuck after %d of %d frames: a wakeup was lost", consumed.Load(), cycles)
	}
	snap := stats.Snapshot()
	t.Logf("%d cycles: %d parks, %d wakes", cycles, snap.WriterParks, snap.WriterWakes)
	if snap.WriterParks == 0 {
		t.Fatal("the consumer never blocked: the churn did not exercise the wake path")
	}
	if snap.WriterParks != snap.WriterWakes {
		t.Fatalf("%d parks but %d wakes: each block must pair with exactly one wake", snap.WriterParks, snap.WriterWakes)
	}
	q.close()
}

// TestMPSCStatsDepth checks the snapshot-time write-queue depth gauge:
// it reflects queued frames while the queue is live, returns to zero
// after a drain, and drops the queue from the sum once it closes.
func TestMPSCStatsDepth(t *testing.T) {
	var stats Stats
	q := newWriteQueue(&stats)
	for i := 0; i < 10; i++ {
		q.push(outFrame{id: uint64(i)})
	}
	if d := stats.Snapshot().WriteQueueDepth; d != 10 {
		t.Fatalf("depth after pushes = %d, want 10", d)
	}
	var batch []outFrame
	for len(batch) < 10 {
		batch = q.popBatch(batch, 10)
	}
	if d := stats.Snapshot().WriteQueueDepth; d != 0 {
		t.Fatalf("depth after drain = %d, want 0", d)
	}
	q.push(outFrame{id: 99})
	q.close()
	if d := stats.Snapshot().WriteQueueDepth; d != 0 {
		t.Fatalf("closed queue still counted: depth = %d, want 0", d)
	}
}

// TestMPSCOverheadGuard is the CI gate on the write queue's
// single-caller enqueue+dequeue cost: it must not regress past the
// buffered-channel baseline's budget, and the steady state must stay
// allocation-free (the backing slice is reused). Env-gated like the
// other in-process benchmark guards.
func TestMPSCOverheadGuard(t *testing.T) {
	if os.Getenv("RUN_OVERHEAD_GUARD") == "" {
		t.Skip("set RUN_OVERHEAD_GUARD=1 to run the MPSC overhead guard")
	}
	q := newWriteQueue(nil)
	var scratch []outFrame
	mpsc := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q.push(outFrame{id: uint64(i)})
			scratch = q.popBatch(scratch[:0], 1)
		}
	})
	ch := make(chan outFrame, 256)
	chanBase := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ch <- outFrame{id: uint64(i)}
			<-ch
		}
	})
	mpscNs, chanNs := float64(mpsc.NsPerOp()), float64(chanBase.NsPerOp())
	t.Logf("mpsc push+pop: %.1f ns/op (%d allocs), chan send+recv: %.1f ns/op",
		mpscNs, mpsc.AllocsPerOp(), chanNs)
	if mpsc.AllocsPerOp() != 0 {
		t.Errorf("mpsc push+pop allocates %d objects/op, want 0", mpsc.AllocsPerOp())
	}
	// 1.5× plus a small absolute slack absorbs timer noise on shared CI
	// runners while still catching a real regression (a push and a pop
	// each take the lock once, about what a channel send and receive
	// cost).
	if mpscNs > chanNs*1.5+50 {
		t.Errorf("mpsc push+pop %.1f ns/op vs channel %.1f ns/op: regression past 1.5× budget", mpscNs, chanNs)
	}
}
