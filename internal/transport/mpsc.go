package transport

import (
	"runtime"
	"sync"
	"sync/atomic"

	"partsvc/internal/metrics"
)

// Lock-free MPSC write queue. Every connection used to park outbound
// frames on a buffered `chan outFrame`; at data-plane rates the channel
// internals (chansend/sellock) were the next profile entries after
// syscalls. This queue replaces them with a Vyukov-style intrusive
// MPSC list: producers link nodes with one atomic swap + one atomic
// store (no lock, no CAS loop), and the single writer goroutine
// detaches consumed nodes in batches. Parking uses a one-slot channel
// behind a Dekker-style status word, so the producer-side wake check is
// a single atomic load while the writer is running.
//
// Queue states (see DESIGN.md §5e):
//
//	open    — push links nodes, pop detaches them, the parker
//	          exchanges wakeups when the writer runs dry.
//	closed  — push refuses new frames (the caller recycles the
//	          payload); the writer drains what was linked before the
//	          close and exits.
//
// A push that races the close may link a node the writer's final drain
// has already passed; the node and its payload are reclaimed by the GC
// (a pool miss, never a correctness issue) — exactly the window the
// old channel version had.

const (
	parkerAwake uint32 = iota
	parkerParked
)

// parker blocks one goroutine on a one-slot channel until another
// wakes it. The protocol is the classic store/load fence pair: the
// sleeper publishes "parked" and re-checks its wait condition; the
// waker publishes the condition and checks "parked". Sequential
// consistency of the atomics guarantees at least one side sees the
// other, so a wakeup is never lost. Spurious wakeups are possible (a
// waker from a previous cycle landing late) and callers must re-check
// their condition in a loop.
type parker struct {
	status atomic.Uint32
	// token carries the one wakeup of a park cycle. Only the CAS
	// winner sends, and the sleeper receives before it can park again,
	// so the slot is never full when a send happens.
	token chan struct{}
	// parks/wakes make the park/wake traffic observable (transport
	// Stats); nil disables counting.
	parks, wakes *metrics.Counter
}

// wake unparks the sleeper if it is (or is about to be) parked. The
// fast path — sleeper running — is one atomic load.
func (p *parker) wake() {
	if p.status.Load() == parkerParked && p.status.CompareAndSwap(parkerParked, parkerAwake) {
		if p.wakes != nil {
			p.wakes.Add(1)
		}
		// A channel send readies the sleeper without yielding to it:
		// the sleeper goes to the run queue instead of preempting this
		// producer. For the write queue this is the batching lever — the
		// producer (and its runnable peers) keep queueing frames until
		// the scheduler gets to the writer, which then flushes them all
		// in one writev.
		p.token <- struct{}{}
	}
}

// park blocks until wake, unless ready() already holds once the parked
// flag is published. Exactly one token send pairs with each receive:
// only the CAS winner (sleeper un-parking itself, or one waker) flips
// the status back.
func (p *parker) park(ready func() bool) {
	p.status.Store(parkerParked)
	if ready() {
		if p.status.CompareAndSwap(parkerParked, parkerAwake) {
			return // un-parked ourselves before any waker committed
		}
		// A waker won the CAS and sent the token: consume it so the
		// next park cycle starts balanced.
	}
	if p.parks != nil {
		p.parks.Add(1)
	}
	<-p.token
}

// wqNode is one frame linked into a writeQueue. Nodes are pooled: a
// steady-state push/pop cycle allocates nothing.
type wqNode struct {
	next  atomic.Pointer[wqNode]
	frame outFrame
}

var wqNodePool = sync.Pool{New: func() any { return new(wqNode) }}

// writeQueue is the lock-free MPSC frame queue between the many
// producers of a connection (callers or pool workers) and its single
// writer goroutine.
type writeQueue struct {
	// tail is where producers link: swap in the new node, then point
	// the previous tail at it. Between the swap and the store the list
	// is momentarily disconnected; the consumer detects that window
	// (head caught up, tail moved on) and spins across it.
	tail atomic.Pointer[wqNode]
	_    [56]byte // keep producers' tail off the consumer's line

	// head is consumer-owned: the last node already consumed (its
	// frame has been returned; the live value sits in head.next).
	head *wqNode
	_    [56]byte

	size   atomic.Int64
	closed atomic.Bool
	p      parker
	stats  *Stats
}

// newWriteQueue returns an open queue reporting into stats (which may
// be nil in tests).
func newWriteQueue(stats *Stats) *writeQueue {
	q := &writeQueue{stats: stats, p: parker{token: make(chan struct{}, 1)}}
	stub := wqNodePool.Get().(*wqNode)
	stub.frame = outFrame{}
	stub.next.Store(nil)
	q.head = stub
	q.tail.Store(stub)
	if stats != nil {
		q.p.parks = &stats.WriterParks
		q.p.wakes = &stats.WriterWakes
		stats.liveQueues.Store(q, struct{}{})
	}
	return q
}

// push links one frame. It never blocks. false means the queue is
// closed and the caller keeps ownership of the frame's payload.
func (q *writeQueue) push(f outFrame) bool {
	if q.closed.Load() {
		return false
	}
	n := wqNodePool.Get().(*wqNode)
	n.frame = f
	n.next.Store(nil)
	prev := q.tail.Swap(n)
	prev.next.Store(n)
	q.size.Add(1)
	q.p.wake()
	return true
}

// popBatch detaches up to max frames into dst (consumer only). It
// never blocks beyond the bounded mid-link spin.
func (q *writeQueue) popBatch(dst []outFrame, max int) []outFrame {
	popped := 0
	for len(dst) < max {
		h := q.head
		next := h.next.Load()
		if next == nil {
			if q.tail.Load() == h {
				break // truly empty
			}
			// A producer swapped tail but has not linked prev.next yet
			// (a two-instruction window): spin across it.
			for {
				if next = h.next.Load(); next != nil {
					break
				}
				runtime.Gosched()
			}
		}
		dst = append(dst, next.frame)
		next.frame = outFrame{} // new head must not retain the payload
		q.head = next
		// h.next is left stale: push resets next before linking a reused
		// node, so no atomic store is needed here.
		wqNodePool.Put(h)
		popped++
	}
	if popped > 0 {
		q.size.Add(int64(-popped))
	}
	return dst
}

// len returns the approximate queue depth (exact when quiescent).
func (q *writeQueue) len() int64 { return q.size.Load() }

// nonEmpty reports whether a pop could make progress (consumer only).
func (q *writeQueue) nonEmpty() bool {
	return q.head.next.Load() != nil || q.tail.Load() != q.head
}

// isClosed reports whether close has been called.
func (q *writeQueue) isClosed() bool { return q.closed.Load() }

// wqSpinYields bounds the scheduler-yield spin the consumer takes
// before parking: on a loaded endpoint the next frame
// is usually a few hundred nanoseconds away, and a yield is far
// cheaper than a park/wake round trip.
const wqSpinYields = 4

// wait blocks the consumer until the queue is non-empty or closed.
// May return spuriously; callers loop.
func (q *writeQueue) wait() {
	ready := func() bool { return q.nonEmpty() || q.closed.Load() }
	for i := 0; i < wqSpinYields; i++ {
		if ready() {
			return
		}
		runtime.Gosched()
	}
	q.p.park(ready)
}

// close marks the queue closed and wakes the consumer so it can run
// its final drain. Pushes racing the close either fail (caller keeps
// the payload) or land in the drain window described above.
func (q *writeQueue) close() {
	q.closed.Store(true)
	if q.stats != nil {
		q.stats.liveQueues.Delete(q)
	}
	q.p.wake()
}

// drain pops everything currently linked and hands each frame to
// discard (consumer only; used on the writer's failure path).
func (q *writeQueue) drain(discard func(outFrame)) {
	var batch [32]outFrame
	for {
		got := q.popBatch(batch[:0], len(batch))
		if len(got) == 0 {
			return
		}
		for _, f := range got {
			discard(f)
		}
	}
}
