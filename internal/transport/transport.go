// Package transport carries wire.Messages between framework pieces. It
// abstracts the communication substrate behind small Endpoint/Listener
// interfaces with two implementations: in-process (for tests and
// single-machine examples) and TCP (for real deployments). The
// discrete-event simulator plays the same role for benchmarks via the
// internal/bench harness.
package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"partsvc/internal/wire"
)

// Handler processes one message and returns the response. Handlers must
// be safe for concurrent use: transports may deliver messages from
// multiple connections at once.
type Handler interface {
	Handle(m *wire.Message) *wire.Message
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(m *wire.Message) *wire.Message

// Handle calls f.
func (f HandlerFunc) Handle(m *wire.Message) *wire.Message { return f(m) }

// Endpoint is a client connection to a served address. Endpoints are
// safe for concurrent use: multiplexed transports keep every
// concurrent call in flight at once, and Close interrupts calls still
// waiting with ErrClosed.
type Endpoint interface {
	// CallContext sends a message and waits for the response, abandoned
	// when ctx is cancelled.
	CallContext(ctx context.Context, m *wire.Message) (*wire.Message, error)
	// Call is CallContext with context.Background().
	Call(m *wire.Message) (*wire.Message, error)
	// Close releases the endpoint.
	Close() error
}

// Call is ep.CallContext(ctx, m).
func Call(ctx context.Context, ep Endpoint, m *wire.Message) (*wire.Message, error) {
	return ep.CallContext(ctx, m)
}

// Listener is a served address.
type Listener interface {
	// Addr returns the address clients dial.
	Addr() string
	// Close stops serving.
	Close() error
}

// Transport binds Serve and Dial over one substrate.
type Transport interface {
	// Serve registers a handler, returning its listener. An empty addr
	// requests an automatically assigned address.
	Serve(addr string, h Handler) (Listener, error)
	// Dial connects to a served address.
	Dial(addr string) (Endpoint, error)
}

// ErrClosed reports use of a closed endpoint or listener.
var ErrClosed = errors.New("transport: closed")

// ErrNoSuchAddr reports a dial to an unserved in-process address.
var ErrNoSuchAddr = errors.New("transport: no such address")

// ErrOverloaded reports a request shed by server-side admission
// control: the handler pool and its bounded queue were both full, so
// the server refused the request immediately instead of queueing it
// into timeout collapse. The server is alive — callers should back off
// and retry, and health probers must NOT count it as a failure.
// AsError wraps shed replies (CodeOverloaded) in this sentinel, so
// errors.Is(err, ErrOverloaded) identifies them.
var ErrOverloaded = errors.New("transport: server overloaded")

// CodeOverloaded is the Meta["code"] value marking a KindError reply
// produced by admission-control shedding.
const CodeOverloaded = "overloaded"

// ErrorResponse builds a KindError reply carrying a message.
func ErrorResponse(req *wire.Message, format string, args ...any) *wire.Message {
	return &wire.Message{
		Kind:   wire.KindError,
		ID:     req.ID,
		Target: req.Target,
		Method: req.Method,
		Meta:   map[string]string{"error": fmt.Sprintf(format, args...)},
	}
}

// OverloadResponse builds the backpressure reply for a shed request: a
// KindError tagged CodeOverloaded. Servers encode it on the connection
// reader itself — the whole point is that it must not touch the
// saturated worker pool.
func OverloadResponse(req *wire.Message) *wire.Message {
	return &wire.Message{
		Kind:   wire.KindError,
		ID:     req.ID,
		Target: req.Target,
		Method: req.Method,
		Meta: map[string]string{
			"error": "server overloaded: request shed before dispatch",
			"code":  CodeOverloaded,
		},
	}
}

// AsError converts a KindError response into a Go error (nil
// otherwise). Shed replies (CodeOverloaded) come back wrapped in
// ErrOverloaded. The returned error owns its text even when resp is a
// zero-copy message whose fields alias a slab, so it stays valid after
// the response is released.
func AsError(resp *wire.Message) error {
	if resp == nil || resp.Kind != wire.KindError {
		return nil
	}
	msg := ""
	if resp.Meta != nil {
		msg = resp.Meta["error"]
		if resp.Meta["code"] == CodeOverloaded {
			if msg == "" {
				return ErrOverloaded
			}
			return fmt.Errorf("%w: %s", ErrOverloaded, msg)
		}
	}
	if msg != "" {
		return errors.New(strings.Clone(msg))
	}
	return errors.New("transport: remote error")
}

// Clock abstracts time so components run identically on the wall clock
// and in the simulator.
type Clock interface {
	// NowMS returns the current time in milliseconds (monotonic origin
	// unspecified).
	NowMS() float64
}

// RealClock is the wall-clock implementation of Clock.
type RealClock struct{ start time.Time }

// NewRealClock returns a Clock reading the wall clock from a fixed
// origin.
func NewRealClock() *RealClock { return &RealClock{start: time.Now()} }

// NowMS returns milliseconds since the clock was created.
func (c *RealClock) NowMS() float64 { return float64(time.Since(c.start)) / float64(time.Millisecond) }

// InProc is an in-process transport: handlers are invoked directly on
// the caller's goroutine, so calls from different goroutines proceed
// concurrently exactly as they do over the multiplexed TCP transport.
// The zero value is not usable; use NewInProc.
type InProc struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	next     int
	stats    Stats
}

// NewInProc returns an empty in-process transport.
func NewInProc() *InProc { return &InProc{handlers: map[string]Handler{}} }

// Stats returns a snapshot of the transport's data-plane counters.
func (t *InProc) Stats() StatsSnapshot { return t.stats.Snapshot() }

// Serve registers a handler under addr (auto-assigned when empty).
func (t *InProc) Serve(addr string, h Handler) (Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if addr == "" {
		t.next++
		addr = fmt.Sprintf("inproc-%d", t.next)
	}
	if _, dup := t.handlers[addr]; dup {
		return nil, fmt.Errorf("transport: address %q already served", addr)
	}
	t.handlers[addr] = h
	return &inprocListener{t: t, addr: addr}, nil
}

// Dial returns an endpoint for a served address. The address is
// resolved on each Call, so an endpoint dialed before Serve fails only
// when used, and re-serving an address rebinds existing endpoints.
func (t *InProc) Dial(addr string) (Endpoint, error) {
	return &inprocEndpoint{t: t, addr: addr}, nil
}

type inprocListener struct {
	t    *InProc
	addr string
}

func (l *inprocListener) Addr() string { return l.addr }

func (l *inprocListener) Close() error {
	l.t.mu.Lock()
	defer l.t.mu.Unlock()
	delete(l.t.handlers, l.addr)
	return nil
}

type inprocEndpoint struct {
	t      *InProc
	addr   string
	mu     sync.Mutex
	closed bool
}

func (e *inprocEndpoint) Call(m *wire.Message) (*wire.Message, error) {
	return e.CallContext(context.Background(), m)
}

// CallContext mirrors the TCP endpoint's contract as far as a direct
// dispatch can: the context is checked before the handler runs (a
// handler already executing on the caller's goroutine cannot be
// interrupted).
func (e *inprocEndpoint) CallContext(ctx context.Context, m *wire.Message) (*wire.Message, error) {
	ctx, obs := beginClientCall(ctx, m)
	resp, err := e.callContext(ctx, m)
	obs.end(m, err)
	return resp, err
}

func (e *inprocEndpoint) callContext(ctx context.Context, m *wire.Message) (*wire.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	e.t.mu.RLock()
	h, ok := e.t.handlers[e.addr]
	e.t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchAddr, e.addr)
	}
	stats := &e.t.stats
	stats.InFlight.Add(1)
	defer stats.InFlight.Add(-1)
	// Round-trip through the wire encoding even in process, so the
	// in-process transport exercises exactly the same serialization
	// paths as TCP (catching non-encodable payloads in tests). The
	// scratch buffers come from the shared wire pool, as on TCP.
	data, err := m.AppendTo(wire.GetBufferSize(m.EncodedLen()))
	if err != nil {
		wire.PutBuffer(data)
		return nil, fmt.Errorf("transport: encoding request: %w", err)
	}
	stats.FramesSent.Add(1)
	stats.BytesSent.Add(int64(len(data)))
	// Requests decode zero-copy exactly as on the TCP server side, so
	// handlers see the same slab-backed messages (and the same lifetime
	// rules) whichever transport runs under them.
	req, err := wire.UnmarshalMessageSlab(data)
	if err != nil {
		wire.PutBuffer(data)
		stats.DecodeErrors.Add(1)
		return nil, fmt.Errorf("transport: decoding request: %w", err)
	}
	resp := serveObserved(h, req)
	if resp == nil {
		req.Release()
		return nil, fmt.Errorf("transport: handler for %q returned nil", e.addr)
	}
	data, err = resp.AppendTo(wire.GetBufferSize(resp.EncodedLen()))
	// The response is encoded (or failed before writing a byte): the
	// request slab it may alias can go back to the pool either way.
	req.Release()
	if err != nil {
		wire.PutBuffer(data)
		return nil, fmt.Errorf("transport: encoding response: %w", err)
	}
	stats.FramesReceived.Add(1)
	stats.BytesReceived.Add(int64(len(data)))
	out, err := wire.UnmarshalMessage(data)
	wire.PutBuffer(data)
	if err != nil {
		stats.DecodeErrors.Add(1)
		return nil, fmt.Errorf("transport: decoding response: %w", err)
	}
	return out, nil
}

func (e *inprocEndpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	return nil
}
