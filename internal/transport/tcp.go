package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"partsvc/internal/wire"
)

// TCP is the network transport: v2 frames (request-ID multiplexed) of
// wire-encoded messages over TCP connections. Each endpoint keeps many
// calls in flight on one connection: producers link outbound frames
// onto a lock-free MPSC write queue (no channel locks on the enqueue
// path), a writer goroutine detaches the queue in batches, gathers
// them into a net.Buffers and hands the whole burst to the kernel
// with one writev (scatter-gather — no intermediate copy), a reader
// goroutine demultiplexes responses by frame ID back to the waiting
// callers. Servers decode requests zero-copy (slab-backed messages,
// released once the response is encoded) and dispatch handler
// invocations on a bounded worker pool behind a bounded admission
// queue: when both are full the request is answered immediately with a
// KindError backpressure reply (ErrOverloaded) instead of stalling the
// connection reader, so overload degrades gracefully.
//
// An endpoint dialed by a node wrapper to an instance the same wrapper
// serves stops using its connection after the upgrade handshake (see
// upgrade.go) and invokes the listener's handler directly.
type TCP struct {
	// Workers bounds concurrent handler invocations per listener
	// (0 means DefaultWorkers()).
	Workers int
	// QueueDepth bounds requests queued for the worker pool per
	// listener (0 means defaultQueueDepth of the worker count). A
	// request arriving with the queue full is shed: answered with a
	// KindError reply carrying CodeOverloaded, without occupying a
	// worker.
	QueueDepth int
	// CallTimeout bounds each endpoint call (0 means no timeout).
	CallTimeout time.Duration
	// WriteTimeout bounds each write flush on a connection (0 means
	// DefaultWriteTimeout). A peer that stops reading makes the flush
	// miss this deadline, which kills the connection instead of
	// blocking its writer goroutine forever.
	WriteTimeout time.Duration
	// ZeroCopyResponses makes endpoints decode responses zero-copy:
	// returned messages are slab-backed (wire.UnmarshalMessageSlab),
	// so the caller should wire.Message.Release them when done to keep
	// the buffer pool hot. Off by default because released messages
	// must not be used afterwards; turn it on for high-rate callers
	// that own their responses end to end.
	ZeroCopyResponses bool
	// Ring is accepted and ignored, so configurations that set it keep
	// compiling. Every dial is a socket; co-located linkages skip it
	// through the upgrade handshake (upgrade.go) instead.
	Ring bool

	stats Stats

	// local indexes this instance's live listeners by address, so an
	// upgrade handshake can detect co-location without touching the
	// network.
	mu    sync.Mutex
	local map[string]*tcpListener
}

// DefaultWorkers returns the default per-listener handler pool size:
// 4× GOMAXPROCS, read at call time — a container whose CPU limit (and
// with it GOMAXPROCS) is adjusted after package init still gets the
// right pool size for listeners created afterwards.
func DefaultWorkers() int { return 4 * runtime.GOMAXPROCS(0) }

// defaultQueueDepth sizes the admission queue for a worker pool: deep
// enough to absorb bursts several times the pool, shallow enough that
// queue wait — not timeout collapse — is the overload signal.
func defaultQueueDepth(workers int) int {
	if q := 4 * workers; q > 256 {
		return q
	}
	return 256
}

// DefaultWriteTimeout is the default per-flush write deadline.
var DefaultWriteTimeout = 10 * time.Second

// ErrCallTimeout reports a call that exceeded the transport's
// CallTimeout while waiting for its response.
var ErrCallTimeout = errors.New("transport: call timed out")

// errStalled reports a connection killed because its peer stopped
// draining responses (runaway write queue or missed write deadline).
var errStalled = errors.New("transport: peer not reading responses")

// stallLimit is the write-queue depth past which a server connection
// is declared stalled. Healthy peers keep the queue near the writer's
// batch size; a queue this deep means the peer has stopped reading
// (the write deadline is the second, slower tripwire).
const stallLimit = 1024

func (t *TCP) writeTimeout() time.Duration {
	if t.WriteTimeout > 0 {
		return t.WriteTimeout
	}
	return DefaultWriteTimeout
}

// NewTCP returns the TCP transport.
func NewTCP() *TCP { return &TCP{} }

// Stats returns a snapshot of the transport's data-plane counters.
func (t *TCP) Stats() StatsSnapshot { return t.stats.Snapshot() }

// outFrame is one frame queued for a connection's writer goroutine.
// Payloads come from the wire buffer pool and are returned to it after
// the write (or on shutdown).
type outFrame struct {
	id      uint64
	payload []byte
}

// maxWriteBatch bounds the frames gathered into one writev: it caps
// the header scratch buffer and keeps a firehose connection from
// starving the writer's close check.
const maxWriteBatch = 256

// maxCoalesceYields bounds how many scheduler yields the writer takes
// while its batch keeps growing before committing to a writev.
const maxCoalesceYields = 3

// writeLoop owns the write half of a connection. It detaches every
// frame linked onto the MPSC queue while a write is pending into one
// net.Buffers and writes the whole burst with a single writev: frame
// headers are encoded into a reusable scratch buffer, payloads go to
// the kernel from their pooled buffers directly, so a burst of N
// frames is one syscall and zero intermediate copies. Every batch runs
// under a write deadline: a peer that stops reading fails the writev
// within timeout instead of pinning this goroutine (and anyone waiting
// on it) forever. When the queue closes it drains what is linked,
// writes, and exits. The first write error is reported through onErr
// (at most once) and stops the loop.
func writeLoop(conn net.Conn, q *writeQueue, timeout time.Duration, stats *Stats, onErr func(error)) {
	var (
		batch = make([]outFrame, 0, maxWriteBatch)
		hdrs  = make([]byte, 0, wire.FrameHeaderLenV2*maxWriteBatch)
		iov   = make(net.Buffers, 0, 2*maxWriteBatch)
		// deadline is the write deadline currently set on conn. It is
		// refreshed only once it has less than half the timeout left,
		// so the per-flush cost is usually a clock read, not a runtime
		// timer modification. A stalled peer still fails within
		// [timeout/2, timeout].
		deadline time.Time
	)
	recycle := func() {
		for i := range batch {
			wire.PutBuffer(batch[i].payload)
		}
		batch = batch[:0]
	}
	fail := func(err error) {
		recycle()
		onErr(err)
		q.drain(func(f outFrame) { wire.PutBuffer(f.payload) })
	}
	// flush writevs the gathered batch. hdrs never grows past its
	// initial capacity (batch is bounded by maxWriteBatch), so the
	// header slices handed to iov stay valid.
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		stats.WriteBatch.Observe(float64(len(batch)))
		hdrs = hdrs[:0]
		iov = iov[:0]
		var n uint64
		for i := range batch {
			f := &batch[i]
			if len(f.payload) > wire.MaxFrame {
				return wire.ErrFrameTooLarge
			}
			start := len(hdrs)
			hdrs = wire.AppendFrameHeader(hdrs, f.id, len(f.payload))
			iov = append(iov, hdrs[start:], f.payload)
			n += uint64(len(hdrs)-start) + uint64(len(f.payload))
		}
		if now := time.Now(); now.Add(timeout / 2).After(deadline) {
			deadline = now.Add(timeout)
			conn.SetWriteDeadline(deadline)
		}
		// WriteTo consumes (and may modify) the slice it is given, so
		// hand it a view; the batch keeps the payloads for recycling.
		w := iov
		if _, err := (&w).WriteTo(conn); err != nil {
			return err
		}
		stats.FramesSent.Add(int64(len(batch)))
		stats.BytesSent.Add(int64(n))
		recycle()
		return nil
	}
	for {
		batch = q.popBatch(batch[:0], maxWriteBatch)
		if len(batch) == 0 {
			if q.isClosed() {
				// Final drain: write frames linked before the close,
				// still under a deadline so a dead peer cannot block
				// teardown.
				for {
					batch = q.popBatch(batch[:0], maxWriteBatch)
					if len(batch) == 0 {
						return
					}
					if err := flush(); err != nil {
						fail(err)
						return
					}
				}
			}
			q.wait()
			continue
		}
		// Scheduler yields before committing to a syscall: on a busy
		// endpoint the producers that woke this loop are often still
		// runnable with more frames to queue, and letting them run
		// turns N near-empty writevs into one large one. Keep
		// yielding while each yield actually grows the batch (up to
		// maxCoalesceYields), then write. When idle a yield costs a
		// few hundred nanoseconds; under load this halves (or
		// better) the syscall count.
		for y := 0; y < maxCoalesceYields && len(batch) < maxWriteBatch; y++ {
			before := len(batch)
			runtime.Gosched()
			batch = q.popBatch(batch, maxWriteBatch)
			if len(batch) == before {
				break
			}
		}
		if err := flush(); err != nil {
			fail(err)
			return
		}
	}
}

// Serve listens on addr ("host:port"; empty means "127.0.0.1:0") and
// dispatches incoming messages to h on a bounded worker pool.
func (t *TCP) Serve(addr string, h Handler) (Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	workers := t.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	depth := t.QueueDepth
	if depth <= 0 {
		depth = defaultQueueDepth(workers)
	}
	l := &tcpListener{
		t:            t,
		ln:           ln,
		h:            h,
		conns:        map[net.Conn]struct{}{},
		dispatch:     make(chan dispatchReq, depth),
		quit:         make(chan struct{}),
		writeTimeout: t.writeTimeout(),
		stats:        &t.stats,
	}
	// The bounded worker pool: persistent goroutines shared by every
	// connection, so a request costs a queue hop, not a goroutine spawn,
	// and one slow handler can never occupy more than its worker.
	for i := 0; i < workers; i++ {
		go l.worker()
	}
	go l.acceptLoop()
	t.mu.Lock()
	if t.local == nil {
		t.local = map[string]*tcpListener{}
	}
	t.local[l.Addr()] = l
	t.mu.Unlock()
	return l, nil
}

// lookupLocal returns the live listener this instance serves on addr,
// or nil — the co-location test behind the upgrade handshake.
func (t *TCP) lookupLocal(addr string) *tcpListener {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.local[addr]
}

func (t *TCP) forgetListener(addr string) {
	t.mu.Lock()
	delete(t.local, addr)
	t.mu.Unlock()
}

// dispatchReq is one handler invocation queued to the worker pool.
type dispatchReq struct {
	req      *wire.Message
	frameID  uint64
	enqueue  func(outFrame) // parks the response on the request's connection
	queuedAt time.Time      // admission time when sampled; zero when not
}

type tcpListener struct {
	t            *TCP
	ln           net.Listener
	h            Handler
	dispatch     chan dispatchReq // bounded admission queue feeding the pool
	quit         chan struct{}    // closed when the listener closes
	writeTimeout time.Duration
	stats        *Stats
	// node is the node whose wrapper serves this listener (TagNode);
	// nil for listeners nobody may dispatch to in process.
	node atomic.Pointer[string]

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// worker drains the dispatch queue until the listener closes.
func (l *tcpListener) worker() {
	for {
		// Fast path: while the queue has work, a single-channel receive
		// with default is far cheaper than the two-case select below, and
		// a loaded queue is exactly when per-dispatch overhead matters.
		// Shutdown is still prompt — the fast path only runs while
		// requests keep arriving, and the slow path watches quit.
		select {
		case d := <-l.dispatch:
			l.serveOne(d)
			continue
		default:
		}
		select {
		case d := <-l.dispatch:
			l.serveOne(d)
		case <-l.quit:
			return
		}
	}
}

// serveOne runs a single queued request through the handler and parks
// the encoded response on its connection's writer.
func (l *tcpListener) serveOne(d dispatchReq) {
	l.stats.QueueDepth.Add(-1)
	if !d.queuedAt.IsZero() {
		l.stats.QueueWait.Observe(float64(time.Since(d.queuedAt)) / float64(time.Millisecond))
	}
	resp := serveObserved(l.h, d.req)
	if resp == nil {
		resp = ErrorResponse(d.req, "handler returned nil")
	}
	// AppendTo returns the scratch buffer unmodified on error, so the
	// pooled buffer is reused for the error response instead of leaking.
	buf, err := resp.AppendTo(wire.GetBufferSize(resp.EncodedLen()))
	if err != nil {
		buf, _ = ErrorResponse(d.req, "encoding response: %v", err).AppendTo(buf[:0])
	}
	// The response is encoded; the request's slab (which the response
	// may alias) can go back to the pool.
	d.req.Release()
	d.enqueue(outFrame{id: d.frameID, payload: buf})
}

func (l *tcpListener) Addr() string { return l.ln.Addr().String() }

func (l *tcpListener) Close() error {
	l.t.forgetListener(l.Addr())
	l.mu.Lock()
	already := l.closed
	l.closed = true
	conns := make([]net.Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	if !already {
		close(l.quit) // releases the worker pool
	}
	err := l.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	return err
}

// acceptLoop registers each accepted connection and starts serving it,
// until the listener closes.
func (l *tcpListener) acceptLoop() {
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.conns[conn] = struct{}{}
		l.mu.Unlock()
		go l.serveConn(conn)
	}
}

// serveConn reads frames, admits each request to the bounded dispatch
// queue, and queues responses (tagged with the request's frame ID and
// echoing its frame version) to the connection's MPSC write queue.
// Requests are decoded zero-copy: the slab backing a message is
// released by the worker once the response is encoded. When the
// admission queue is full the request is shed — answered with a
// CodeOverloaded KindError built right here on the reader, bypassing
// the saturated pool — so the reader never stalls and the peer learns
// immediately. A frame that fails to decode gets a best-effort final
// error response before the connection drops, and bumps the
// transport_decode_errors counter.
func (l *tcpListener) serveConn(conn net.Conn) {
	q := newWriteQueue(l.stats)
	writerDone := make(chan struct{})
	var connDown atomic.Bool
	var deadOnce sync.Once
	// markDead also closes the connection: it unblocks a writer parked
	// in conn.Write and makes the read loop exit, so one failed half
	// tears the whole connection down promptly.
	markDead := func(error) {
		deadOnce.Do(func() {
			connDown.Store(true)
			conn.Close()
		})
	}
	go func() {
		defer close(writerDone)
		writeLoop(conn, q, l.writeTimeout, l.stats, markDead)
	}()

	// enqueue parks a response on the writer's MPSC queue unless the
	// connection has already failed. It NEVER blocks: the pool workers
	// are shared by every connection, so a peer that sends requests but
	// stops reading responses (runaway write queue behind a stalled
	// writer) must cost this connection its life, not stall the whole
	// listener.
	enqueue := func(f outFrame) {
		if connDown.Load() || !q.push(f) {
			// Already dead (or the queue closed under teardown): the
			// writer is gone, just drop the frame.
			wire.PutBuffer(f.payload)
			return
		}
		if q.len() > stallLimit {
			markDead(errStalled)
		}
	}

	fr := wire.NewFrameReader(conn)
	// Queue-wait is sampled 1-in-8 per connection (the first request is
	// always sampled) so the hot path usually skips the clock read; the
	// admitted/shed counters stay exact.
	var reqSeq uint64
readLoop:
	for {
		f, err := fr.Next()
		if err != nil {
			if isDecodeFraming(err) {
				// Corrupt framing: nothing to correlate a response to.
				l.stats.DecodeErrors.Add(1)
			}
			break
		}
		l.stats.FramesReceived.Add(1)
		l.stats.BytesReceived.Add(int64(len(f.Payload) + wire.FrameHeaderLenV2))
		req, derr := wire.UnmarshalMessageSlab(f.Payload)
		if derr != nil {
			// The frame was well-formed but the message was not: tell
			// the caller (correlated by frame ID) before dropping the
			// connection instead of dying silently. The decoder left
			// payload ownership with us.
			wire.PutBuffer(f.Payload)
			l.stats.DecodeErrors.Add(1)
			buf, _ := ErrorResponse(&wire.Message{}, "decoding request: %v", derr).AppendTo(wire.GetBuffer())
			enqueue(outFrame{id: f.ID, payload: buf})
			break
		}
		d := dispatchReq{req: req, frameID: f.ID, enqueue: enqueue}
		if reqSeq&7 == 0 {
			d.queuedAt = time.Now()
		}
		reqSeq++
		select {
		case l.dispatch <- d:
			l.stats.QueueDepth.Add(1)
		default:
			select {
			case <-l.quit:
				req.Release()
				break readLoop
			default:
			}
			// Admission queue full: shed. The backpressure reply is
			// encoded on this goroutine — it must not touch the
			// saturated pool — and the peer gets it at write speed.
			l.stats.Shed.Add(1)
			buf, _ := OverloadResponse(req).AppendTo(wire.GetBuffer())
			req.Release()
			enqueue(outFrame{id: f.ID, payload: buf})
		}
	}
	// Flush whatever responses are already queued, then cut loose any
	// handler still trying to enqueue one. The writer's final drain runs
	// under a write deadline, so a peer that half-closed its read side
	// without draining responses cannot pin this goroutine (or leak the
	// connection) past writeTimeout.
	q.close()
	<-writerDone
	markDead(nil)
	l.mu.Lock()
	delete(l.conns, conn)
	l.mu.Unlock()
	conn.Close()
}

// isDecodeFraming reports whether a frame-read error indicates corrupt
// framing rather than a clean close or I/O failure.
func isDecodeFraming(err error) bool {
	return errors.Is(err, wire.ErrFrameTooLarge) || errors.Is(err, wire.ErrFrameVersion)
}

// Dial connects to a served address over TCP.
func (t *TCP) Dial(addr string) (Endpoint, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return t.newEndpoint(conn, addr), nil
}

// newEndpoint builds the multiplexed client side over an established
// connection to addr and starts its reader and writer goroutines.
func (t *TCP) newEndpoint(conn net.Conn, addr string) *tcpEndpoint {
	e := &tcpEndpoint{
		t:        t,
		addr:     addr,
		conn:     conn,
		timeout:  t.CallTimeout,
		zeroCopy: t.ZeroCopyResponses,
		stats:    &t.stats,
		q:        newWriteQueue(&t.stats),
		done:     make(chan struct{}),
		pending:  map[uint64]chan callResult{},
	}
	go e.readLoop()
	go writeLoop(conn, e.q, t.writeTimeout(), &t.stats, e.shutdown)
	return e
}

type callResult struct {
	resp *wire.Message
	err  error
}

// waiterPool recycles the per-call response channels. A channel is only
// ever sent to once (delivery and map removal happen atomically under
// the endpoint mutex), so a drained channel is safe to reuse.
var waiterPool = sync.Pool{New: func() any { return make(chan callResult, 1) }}

func getWaiter() chan callResult { return waiterPool.Get().(chan callResult) }

// putWaiter drains a possibly raced delivery and recycles the channel.
func putWaiter(ch chan callResult) {
	select {
	case res := <-ch:
		if res.resp != nil {
			res.resp.Release() // zero-copy response nobody will read
		}
	default:
	}
	waiterPool.Put(ch)
}

// timerPool recycles call-timeout timers so the common case of a Call
// is not a runtime timer allocation. Only timers whose Stop() returns
// true are pooled: that guarantees (under any Go timer semantics) the
// timer never fired, its channel is empty, and Reset on reuse cannot
// deliver a stale expiry. Fired timers — the rare timeout path — are
// simply dropped for the GC.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putTimer(t *time.Timer) {
	if t.Stop() {
		timerPool.Put(t)
	}
}

// tcpEndpoint is the multiplexed client side of one connection. Any
// number of goroutines may Call concurrently: each call
// is assigned a frame ID, linked onto the writer's MPSC queue, and
// parked until the reader delivers the matching response. Close (or
// connection death) interrupts every pending call.
type tcpEndpoint struct {
	t        *TCP
	addr     string // as dialed: the key of the upgrade handshake's listener lookup
	conn     net.Conn
	timeout  time.Duration
	zeroCopy bool
	stats    *Stats
	q        *writeQueue
	done     chan struct{} // closed once on shutdown
	// local, once set by the upgrade handshake, is the co-located
	// listener every later call dispatches to in process. The connection
	// stays open but idle: it dies with the listener, which takes the
	// endpoint down exactly as it would an un-upgraded one.
	local atomic.Pointer[tcpListener]

	mu      sync.Mutex
	pending map[uint64]chan callResult
	nextID  uint64
	err     error // terminal error, set before done closes
	down    bool
}

// Call sends a message and waits for its response, with the transport's
// CallTimeout applied when configured.
func (e *tcpEndpoint) Call(m *wire.Message) (*wire.Message, error) {
	return e.CallContext(context.Background(), m)
}

// CallContext is Call bounded by a caller-supplied context: cancelling
// ctx abandons the wait (the response, if it still arrives, is
// discarded by the reader).
func (e *tcpEndpoint) CallContext(ctx context.Context, m *wire.Message) (*wire.Message, error) {
	if m.Kind == wire.KindUpgrade {
		return e.upgrade(m), nil
	}
	ctx, obs := beginClientCall(ctx, m)
	var (
		resp *wire.Message
		err  error
	)
	if l := e.local.Load(); l != nil {
		resp, err = e.callLocal(ctx, l, m)
	} else {
		resp, err = e.callContext(ctx, m)
	}
	obs.end(m, err)
	return resp, err
}

// upgrade answers the co-location handshake: when this transport
// instance serves the dialed address on a listener tagged with the
// caller's node, every later call dispatches to it in process.
func (e *tcpEndpoint) upgrade(m *wire.Message) *wire.Message {
	if l := e.t.lookupLocal(e.addr); l != nil {
		if node := l.node.Load(); node != nil && *node == m.Meta[upgradeNodeKey] {
			e.local.Store(l)
			return upgradeReply(m, "true")
		}
	}
	return upgradeReply(m, "false")
}

// callLocal is a call over an upgraded linkage: the listener's handler
// runs on the caller's goroutine and request and response pass by
// reference — no encode, no frame, no worker hop. The handler may read
// m only until it returns (the slab rule, now also for messages that
// never were frames), and the caller owns the response. As with InProc
// a running handler cannot be interrupted, so ctx and CallTimeout are
// only honoured before dispatch. A closed listener or endpoint fails
// the call with ErrClosed, before or after the handler ran: a reply
// the listener's connections would have dropped is dropped here too,
// so killing a node wrapper looks like a crash from inside the node as
// well.
func (e *tcpEndpoint) callLocal(ctx context.Context, l *tcpListener, m *wire.Message) (*wire.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := e.localDown(l); err != nil {
		return nil, err
	}
	e.stats.LocalCalls.Add(1)
	e.stats.InFlight.Add(1)
	resp := serveObserved(l.h, m)
	e.stats.InFlight.Add(-1)
	if err := e.localDown(l); err != nil {
		return nil, err
	}
	if resp == nil {
		resp = ErrorResponse(m, "handler returned nil")
	}
	return resp, nil
}

// localDown reports why an upgraded linkage can no longer be used (nil
// while it can). The listener is checked first: its Close marks it
// before it drops the connections, so a call that loses to a listener
// close fails with ErrClosed whether or not the reader has noticed.
func (e *tcpEndpoint) localDown(l *tcpListener) error {
	select {
	case <-l.quit:
		return ErrClosed
	default:
	}
	select {
	case <-e.done:
		return e.terminalErr()
	default:
	}
	return nil
}

func (e *tcpEndpoint) callContext(ctx context.Context, m *wire.Message) (*wire.Message, error) {
	// On error AppendTo returns the scratch buffer unmodified, so it
	// goes back to the pool instead of leaking.
	payload, err := m.AppendTo(wire.GetBufferSize(m.EncodedLen()))
	if err != nil {
		wire.PutBuffer(payload)
		return nil, fmt.Errorf("transport: encoding request: %w", err)
	}
	ch := getWaiter()
	e.mu.Lock()
	if e.down {
		err := e.err
		e.mu.Unlock()
		putWaiter(ch)
		wire.PutBuffer(payload)
		return nil, err
	}
	e.nextID++
	id := e.nextID
	e.pending[id] = ch
	e.mu.Unlock()

	e.stats.InFlight.Add(1)
	defer e.stats.InFlight.Add(-1)

	// The single enqueue path: the MPSC push never blocks (callers are
	// naturally bounded — each has at most one frame outstanding), so
	// the only slow path is an endpoint already torn down.
	if !e.enqueueFrame(outFrame{id: id, payload: payload}) {
		e.forget(id, ch)
		return nil, e.terminalErr()
	}

	var timeoutC <-chan time.Time
	if e.timeout > 0 {
		timer := getTimer(e.timeout)
		defer putTimer(timer)
		timeoutC = timer.C
	}
	// The common case (background context) waits on three channels; the
	// four-case select only runs when the caller brought a cancelable
	// context. selectgo scans nil cases too, so the split is not free to
	// skip.
	if ctxDone := ctx.Done(); ctxDone != nil {
		select {
		case res := <-ch:
			putWaiter(ch)
			return res.resp, res.err
		case <-e.done:
			return e.downResult(id, ch)
		case <-ctxDone:
			e.forget(id, ch)
			return nil, ctx.Err()
		case <-timeoutC:
			e.forget(id, ch)
			return nil, fmt.Errorf("%w after %v", ErrCallTimeout, e.timeout)
		}
	}
	select {
	case res := <-ch:
		putWaiter(ch)
		return res.resp, res.err
	case <-e.done:
		return e.downResult(id, ch)
	case <-timeoutC:
		e.forget(id, ch)
		return nil, fmt.Errorf("%w after %v", ErrCallTimeout, e.timeout)
	}
}

// enqueueFrame links one request frame onto the writer's queue. On
// refusal (endpoint torn down) it recycles the payload and returns
// false; the caller resolves the error.
func (e *tcpEndpoint) enqueueFrame(f outFrame) bool {
	if e.q.push(f) {
		return true
	}
	wire.PutBuffer(f.payload)
	return false
}

// downResult resolves a call that lost the race with endpoint teardown:
// the response may have been delivered in the same instant the endpoint
// went down, and if so it is preferred over the terminal error.
func (e *tcpEndpoint) downResult(id uint64, ch chan callResult) (*wire.Message, error) {
	select {
	case res := <-ch:
		putWaiter(ch)
		return res.resp, res.err
	default:
	}
	e.forget(id, ch)
	return nil, e.terminalErr()
}

// forget abandons a pending call registration and recycles its waiter.
// Deliveries are atomic with map removal (both happen under mu), so
// after the delete either no result will ever arrive or it is already
// buffered in ch — putWaiter drains both cases.
func (e *tcpEndpoint) forget(id uint64, ch chan callResult) {
	e.mu.Lock()
	delete(e.pending, id)
	e.mu.Unlock()
	putWaiter(ch)
}

// terminalErr returns the error that took the endpoint down.
func (e *tcpEndpoint) terminalErr() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return e.err
	}
	return ErrClosed
}

// shutdown takes the endpoint down exactly once: it records the
// terminal error, closes the connection and write queue, and fails
// every pending call.
func (e *tcpEndpoint) shutdown(cause error) {
	e.mu.Lock()
	if e.down {
		e.mu.Unlock()
		return
	}
	e.down = true
	if cause == nil {
		cause = ErrClosed
	}
	e.err = cause
	// Deliver under the mutex: delivery and map removal must be atomic
	// so recycled waiter channels can never receive a stale result.
	for id, ch := range e.pending {
		delete(e.pending, id)
		ch <- callResult{nil, cause} // buffered: never blocks
	}
	e.mu.Unlock()
	close(e.done)
	e.q.close()
	e.conn.Close()
}

// readLoop demultiplexes response frames to their waiting callers.
func (e *tcpEndpoint) readLoop() {
	fr := wire.NewFrameReader(e.conn)
	for {
		f, err := fr.Next()
		if err != nil {
			e.shutdown(fmt.Errorf("transport: reading response: %w", err))
			return
		}
		e.stats.FramesReceived.Add(1)
		e.stats.BytesReceived.Add(int64(len(f.Payload)) + wire.FrameHeaderLenV2)
		var resp *wire.Message
		var derr error
		if e.zeroCopy {
			// Slab decode: the payload buffer transfers to the slab;
			// the caller receiving the response owns the reference and
			// should Release it (unreleased messages are merely
			// garbage collected, costing pool hits, never correctness).
			resp, derr = wire.UnmarshalMessageSlab(f.Payload)
			if derr != nil {
				wire.PutBuffer(f.Payload)
			}
		} else {
			resp, derr = wire.UnmarshalMessage(f.Payload)
			wire.PutBuffer(f.Payload)
		}
		if derr != nil {
			e.stats.DecodeErrors.Add(1)
			e.shutdown(fmt.Errorf("transport: decoding response: %w", derr))
			return
		}
		e.mu.Lock()
		if ch, ok := e.pending[f.ID]; ok {
			delete(e.pending, f.ID)
			ch <- callResult{resp, nil} // buffered: never blocks
			e.mu.Unlock()
			continue
		}
		e.mu.Unlock()
		// Responses without a waiter (timed out or cancelled calls) are
		// dropped; release reclaims a slab-backed one immediately.
		resp.Release()
	}
}

// Close interrupts every pending call with ErrClosed and releases the
// connection. It never waits for in-flight calls.
func (e *tcpEndpoint) Close() error {
	e.shutdown(ErrClosed)
	return nil
}
