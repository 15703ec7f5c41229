package transport

import (
	"errors"
	"io"
	"runtime"
	"sync/atomic"
	"time"
)

// Shared-memory ring transport for co-located components. The paper's
// partitioned deployments routinely place adjacent chain components on
// the same node (partition servers hosting several components, §4–5);
// for those pairs the remaining TCP loopback cost is pure syscall
// overhead. A ring connection replaces the socket with two SPSC byte
// rings — one per direction — that behave exactly like a socket from
// the transport's point of view: the same v2 framing, the same MPSC
// write queue and writev-style batching in front, the same slab decode
// and admission control behind. Only the byte carrier changes, so
// every connection-level semantic (stalled-peer write deadlines,
// teardown on close) is inherited rather than re-implemented.
//
// Ring layout (see DESIGN.md §5e): a power-of-two byte buffer indexed
// by two monotonically increasing counters. head (bytes consumed) is
// advanced only by the reader; tail (bytes produced) only by the
// writer. Each side keeps a cached copy of the other's counter and
// reloads it only when the cache says the ring is full/empty, so in
// steady state neither side touches the other's cache line. Waiters
// spin a few scheduler yields, then park on a runtime semaphore (the
// same parker as the MPSC queue).

// errRingClosed reports I/O on a closed ring connection.
var errRingClosed = errors.New("transport: ring connection closed")

// errRingWriteTimeout reports a ring write that missed its deadline:
// the in-process peer stopped draining. It mirrors a socket write
// deadline, so stalled-peer isolation works identically over rings.
var errRingWriteTimeout = errors.New("transport: ring write timed out (peer not reading)")

// DefaultRingSize is the per-direction ring capacity in bytes. Frames
// larger than the ring still flow through: writes stream into free
// space as the peer drains, exactly like a socket buffer.
const DefaultRingSize = 256 << 10

// ringSpinYields bounds the scheduler-yield spin before a ring waiter
// parks. Yields keep the single-CPU case fair (the peer gets the core)
// while letting a multi-core reader catch a near-future write without
// a semaphore round trip.
const ringSpinYields = 8

// spscRing is one direction of a ring connection: a single producer
// streaming bytes to a single consumer.
type spscRing struct {
	buf   []byte
	mask  uint64
	stats *Stats

	head atomic.Uint64 // bytes consumed; reader-owned
	_    [56]byte
	tail atomic.Uint64 // bytes produced; writer-owned
	_    [56]byte
	// cachedHead is the producer's last-seen head (producer-local);
	// cachedTail is the consumer's last-seen tail (consumer-local).
	// Padded apart so the two owners never share a line.
	cachedHead uint64
	_          [56]byte
	cachedTail uint64
	_          [56]byte

	closed atomic.Bool
	prod   parker // producer parked waiting for space
	cons   parker // consumer parked waiting for data
}

func newSPSCRing(size int, stats *Stats) *spscRing {
	if size <= 0 {
		size = DefaultRingSize
	}
	// Round up to a power of two so offset arithmetic is a mask.
	cap := 1
	for cap < size {
		cap <<= 1
	}
	r := &spscRing{buf: make([]byte, cap), mask: uint64(cap - 1), stats: stats}
	if stats != nil {
		r.prod.parks, r.prod.wakes = &stats.RingParks, &stats.RingWakes
		r.cons.parks, r.cons.wakes = &stats.RingParks, &stats.RingWakes
	}
	return r
}

// write streams p into the ring, blocking (spin, then park) while the
// ring is full. A non-zero deadline bounds the total blocking time —
// the in-process analogue of a socket write deadline.
func (r *spscRing) write(p []byte, deadline time.Time) (int, error) {
	bufs := [1][]byte{p}
	n, err := r.writev(bufs[:], deadline)
	return int(n), err
}

// writev streams a whole gather list into the ring as one contiguous
// byte sequence, publishing the tail and waking the consumer once per
// space reservation instead of once per slice. This is the ring
// analogue of a socket writev: a batch of N frames (2N slices) is
// usually one publish + one wake.
func (r *spscRing) writev(bufs [][]byte, deadline time.Time) (int64, error) {
	capacity := uint64(len(r.buf))
	t := r.tail.Load()
	published := t
	var written int64
	// publish makes bytes copied so far visible and wakes the consumer.
	publish := func() {
		if t == published {
			return
		}
		r.tail.Store(t)
		if r.stats != nil {
			r.stats.RingOccupancy.Add(int64(t - published))
		}
		published = t
		r.cons.wake()
	}
	for _, p := range bufs {
		for len(p) > 0 {
			if r.closed.Load() {
				publish()
				return written, errRingClosed
			}
			free := capacity - (t - r.cachedHead)
			if free == 0 {
				r.cachedHead = r.head.Load()
				free = capacity - (t - r.cachedHead)
				if free == 0 {
					// Hand the consumer what is copied so far, then wait
					// for it to drain.
					publish()
					if err := r.waitSpace(t, capacity, deadline); err != nil {
						return written, err
					}
					continue
				}
			}
			n := uint64(len(p))
			if n > free {
				n = free
			}
			off := t & r.mask
			first := capacity - off
			if first > n {
				first = n
			}
			copy(r.buf[off:off+first], p[:first])
			copy(r.buf[:n-first], p[first:n])
			t += n
			written += int64(n)
			p = p[n:]
		}
	}
	publish()
	return written, nil
}

// waitSpace blocks the producer until the consumer frees space, the
// ring closes, or the deadline passes.
func (r *spscRing) waitSpace(tail, capacity uint64, deadline time.Time) error {
	ready := func() bool {
		return r.closed.Load() || capacity-(tail-r.head.Load()) > 0
	}
	for i := 0; i < ringSpinYields; i++ {
		if ready() {
			return nil
		}
		runtime.Gosched()
	}
	var timer *time.Timer
	if !deadline.IsZero() {
		d := time.Until(deadline)
		if d <= 0 {
			return errRingWriteTimeout
		}
		// The timer just wakes the parked producer; the deadline test
		// below decides whether the wake was a timeout.
		timer = time.AfterFunc(d, r.prod.wake)
	}
	r.prod.park(ready)
	if timer != nil {
		timer.Stop()
	}
	if !ready() && !deadline.IsZero() && !time.Now().Before(deadline) {
		return errRingWriteTimeout
	}
	return nil
}

// read copies up to len(p) available bytes out of the ring, blocking
// while it is empty. A closed ring drains its remaining bytes, then
// reports io.EOF — the socket close contract.
func (r *spscRing) read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	for {
		h := r.head.Load()
		avail := r.cachedTail - h
		if avail == 0 {
			r.cachedTail = r.tail.Load()
			avail = r.cachedTail - h
			if avail == 0 {
				if r.closed.Load() {
					// Re-check after the closed load: a close racing a
					// final write must not drop bytes.
					if r.cachedTail = r.tail.Load(); r.cachedTail-h > 0 {
						continue
					}
					return 0, io.EOF
				}
				r.waitData(h)
				continue
			}
		}
		n := uint64(len(p))
		if n > avail {
			n = avail
		}
		off := h & r.mask
		first := uint64(len(r.buf)) - off
		if first > n {
			first = n
		}
		copy(p[:first], r.buf[off:off+first])
		copy(p[first:n], r.buf[:n-first])
		r.head.Store(h + n)
		if r.stats != nil {
			r.stats.RingOccupancy.Add(-int64(n))
		}
		r.prod.wake()
		return int(n), nil
	}
}

// waitData blocks the consumer until the producer publishes bytes or
// the ring closes.
func (r *spscRing) waitData(head uint64) {
	ready := func() bool { return r.closed.Load() || r.tail.Load() != head }
	for i := 0; i < ringSpinYields; i++ {
		if ready() {
			return
		}
		runtime.Gosched()
	}
	r.cons.park(ready)
}

// close marks the ring closed and wakes both sides.
func (r *spscRing) close() {
	r.closed.Store(true)
	r.prod.wake()
	r.cons.wake()
}

// occupancy returns the bytes currently buffered in the ring.
func (r *spscRing) occupancy() uint64 { return r.tail.Load() - r.head.Load() }

// ringConn is one endpoint's view of a ring connection: it reads from
// one ring and writes to the other, and satisfies wireConn so the
// whole TCP connection machinery (frame reader, MPSC-fed write loop,
// worker dispatch) runs on it unchanged. Close closes both rings, so
// either side tearing down takes the pair with it — the socket
// contract the transport already handles.
type ringConn struct {
	rd, wr *spscRing
	// wdeadline is touched only by the connection's single writer
	// goroutine (SetWriteDeadline then Write), so it needs no locking.
	wdeadline time.Time
}

// newRingPair returns the two connected endpoints of a ring
// connection (first the dialing side, then the serving side).
func newRingPair(size int, stats *Stats) (*ringConn, *ringConn) {
	c2s := newSPSCRing(size, stats)
	s2c := newSPSCRing(size, stats)
	return &ringConn{rd: s2c, wr: c2s}, &ringConn{rd: c2s, wr: s2c}
}

func (c *ringConn) Read(p []byte) (int, error)  { return c.rd.read(p) }
func (c *ringConn) Write(p []byte) (int, error) { return c.wr.write(p, c.wdeadline) }

// writeBuffers is the gather-write fast path the write loop prefers
// over net.Buffers.WriteTo (which degrades to one Write per slice on
// non-socket writers): the whole batch lands in the ring with one
// publish and one consumer wake.
func (c *ringConn) writeBuffers(bufs [][]byte) (int64, error) {
	return c.wr.writev(bufs, c.wdeadline)
}

func (c *ringConn) SetWriteDeadline(t time.Time) error {
	c.wdeadline = t
	return nil
}

func (c *ringConn) Close() error {
	c.rd.close()
	c.wr.close()
	return nil
}
