package transport

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// writeQueue is the frame queue between the many producers of a
// connection (callers or pool workers) and its single writer goroutine:
// a slice guarded by a mutex. Producers append under the lock and never
// wait for the writer; the writer takes frames from the front in
// batches and, when the queue runs dry, blocks on a one-slot channel.
//
// Queue states:
//
//	open   — push appends; a push that finds the writer waiting sends
//	         it the one token of its block.
//	closed — push refuses new frames (the caller keeps the payload);
//	         the writer drains every frame accepted before the close
//	         and exits. Push and close both hold the lock, so a frame
//	         is either accepted before the close, and written by the
//	         final drain, or refused.
//
// The writer's idle checks (wait's spin, len for the stall check and
// Stats' depth sum) read size and closed, atomics written under the
// lock, and never take it.
type writeQueue struct {
	mu      sync.Mutex
	frames  []outFrame // reused; cleared behind every pop so it holds no payloads
	waiting bool       // the writer is blocked, or about to block, on wake
	wake    chan struct{}

	size   atomic.Int64
	closed atomic.Bool
	stats  *Stats
}

// newWriteQueue returns an open queue reporting into stats (which may
// be nil in tests).
func newWriteQueue(stats *Stats) *writeQueue {
	q := &writeQueue{wake: make(chan struct{}, 1), stats: stats}
	if stats != nil {
		stats.liveQueues.Store(q, struct{}{})
	}
	return q
}

// push appends one frame. It never waits for the writer. false means
// the queue is closed and the caller keeps ownership of the frame's
// payload.
func (q *writeQueue) push(f outFrame) bool {
	q.mu.Lock()
	if q.closed.Load() {
		q.mu.Unlock()
		return false
	}
	q.frames = append(q.frames, f)
	q.size.Add(1)
	q.unlockAndWake()
	return true
}

// close marks the queue closed and wakes the writer so it can run its
// final drain.
func (q *writeQueue) close() {
	q.mu.Lock()
	q.closed.Store(true)
	q.unlockAndWake()
	if q.stats != nil {
		q.stats.liveQueues.Delete(q)
	}
}

// unlockAndWake releases the lock and, if the writer had declared it
// was waiting, sends it a token. The flag is read and cleared under the
// lock, so exactly one send pairs with each block, and the writer has
// taken the previous token before it can wait again: the send never
// blocks.
func (q *writeQueue) unlockAndWake() {
	wake := q.waiting
	q.waiting = false
	q.mu.Unlock()
	if wake {
		if q.stats != nil {
			q.stats.WriterWakes.Add(1)
		}
		// A channel send readies the writer without yielding to it: the
		// writer goes to the run queue instead of preempting this
		// producer. This is the batching lever — the producer (and its
		// runnable peers) keep queueing frames until the scheduler gets
		// to the writer, which then flushes them all in one writev.
		q.wake <- struct{}{}
	}
}

// popBatch moves up to max-len(dst) frames from the front of the queue
// onto dst (writer only). It never blocks, and an empty queue costs
// one atomic load.
func (q *writeQueue) popBatch(dst []outFrame, max int) []outFrame {
	if q.size.Load() == 0 || len(dst) >= max {
		return dst
	}
	q.mu.Lock()
	n := min(len(q.frames), max-len(dst))
	dst = append(dst, q.frames[:n]...)
	rest := copy(q.frames, q.frames[n:])
	clear(q.frames[rest:])
	q.frames = q.frames[:rest]
	q.size.Add(int64(-n))
	q.mu.Unlock()
	return dst
}

// next is the writer's one consumer call: it moves up to max-len(dst)
// frames onto dst, blocking while the queue is open and empty. It
// returns no new frames only once the queue is closed and drained.
func (q *writeQueue) next(dst []outFrame, max int) []outFrame {
	for {
		// Read closed first: every frame accepted before the close is
		// visible to the pop that follows.
		closed := q.closed.Load()
		if got := q.popBatch(dst, max); len(got) > len(dst) || closed {
			return got
		}
		q.wait()
	}
}

// len returns the queue depth.
func (q *writeQueue) len() int64 { return q.size.Load() }

// wqSpinYields bounds the scheduler-yield spin the writer takes before
// blocking: on a loaded endpoint the next frame is usually a few
// hundred nanoseconds away, and a yield is far cheaper than a
// block/wake round trip.
const wqSpinYields = 4

// wait blocks the writer until the queue is non-empty or closed.
func (q *writeQueue) wait() {
	for i := 0; i < wqSpinYields; i++ {
		if q.size.Load() > 0 || q.closed.Load() {
			return
		}
		runtime.Gosched()
	}
	q.mu.Lock()
	if len(q.frames) > 0 || q.closed.Load() {
		q.mu.Unlock()
		return
	}
	q.waiting = true
	q.mu.Unlock()
	if q.stats != nil {
		q.stats.WriterParks.Add(1)
	}
	<-q.wake
}
