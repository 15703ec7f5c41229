package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

// Span kinds. A client span is a load-generator operation (the root of
// a request), a call span is the dialing side of one transport hop, a
// serve span is the handler side of that hop, and an event span is a
// zero-length control-plane callback (adapt/fleet).
const (
	kindClient = "client"
	kindCall   = "call"
	kindServe  = "serve"
	kindEvent  = "event"
)

// span is one recorded interval. Name is the operation for client and
// event spans and the listener address for call and serve spans (the
// harness maps addresses to components after deployment). Parent and
// Request are filled in by link, not at record time: the wrapper never
// touches a message, so traced and untraced runs put identical bytes on
// the wire.
type span struct {
	ID      int    `json:"id"`
	Kind    string `json:"kind"`
	Name    string `json:"name"`
	Method  string `json:"method,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`  // span ID, -1 for a root
	Request int    `json:"request"` // root span ID shared by a request's spans, -1 if unknown
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps spans in memory until the run ends. What it stores per
// span holds no pointers (names are interned to indices), so the
// collector never scans the growing list: with strings in it, a traced
// mailbox-mix round ran 7 % slower than an untraced one.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	raw   []rawSpan
	names []string
	index map[string]int32
}

type rawSpan struct {
	kind, name, method int32
	startNS, endNS     int64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), index: map[string]int32{}, raw: make([]rawSpan, 0, 1<<17)}
}

// intern must be called with mu held.
func (r *recorder) intern(s string) int32 {
	i, ok := r.index[s]
	if !ok {
		i = int32(len(r.names))
		s = strings.Clone(s) // server-side messages are slab-backed: their fields die with the response
		r.names = append(r.names, s)
		r.index[s] = i
	}
	return i
}

func (r *recorder) add(kind, name, method string, start, end time.Time) {
	r.mu.Lock()
	r.raw = append(r.raw, rawSpan{
		kind: r.intern(kind), name: r.intern(name), method: r.intern(method),
		startNS: int64(start.Sub(r.t0)), endNS: int64(end.Sub(r.t0)),
	})
	r.mu.Unlock()
}

// methodOf returns the message's method as a string the recorder owns.
func (r *recorder) methodOf(m *wire.Message) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.names[r.intern(m.Method)]
}

// event records a control-plane callback as a zero-length span.
func (r *recorder) event(name, detail string) {
	now := time.Now()
	r.add(kindEvent, name, detail, now, now)
}

// take returns the spans recorded so far, numbered from 0, and starts a
// fresh list.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, len(r.raw))
	for i, s := range r.raw {
		out[i] = span{
			ID: i, Kind: r.names[s.kind], Name: r.names[s.name], Method: r.names[s.method],
			StartNS: s.startNS, EndNS: s.endNS, Parent: -1, Request: -1,
		}
	}
	r.raw = r.raw[:0]
	return out
}

// tracedTransport is the benchmark-owned transport wrapper handed to
// the engine and the node wrappers in a traced run: every listener it
// serves and every endpoint it dials records one span per message.
type tracedTransport struct {
	inner transport.Transport
	rec   *recorder
}

func (t *tracedTransport) Serve(addr string, h transport.Handler) (transport.Listener, error) {
	th := &tracedHandler{inner: h, rec: t.rec}
	ln, err := t.inner.Serve(addr, th)
	if err != nil {
		return nil, err
	}
	a := ln.Addr()
	th.addr.Store(&a)
	return ln, nil
}

func (t *tracedTransport) Dial(addr string) (transport.Endpoint, error) {
	ep, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &tracedEndpoint{inner: ep, addr: addr, rec: t.rec}, nil
}

type tracedHandler struct {
	inner transport.Handler
	rec   *recorder
	addr  atomic.Pointer[string] // set once Serve has returned the listener
}

func (h *tracedHandler) Handle(m *wire.Message) *wire.Message {
	// The method is read before the handler runs: the message is
	// slab-backed and may be released once the response is encoded.
	method := h.rec.methodOf(m)
	start := time.Now()
	resp := h.inner.Handle(m)
	end := time.Now()
	name := ""
	if a := h.addr.Load(); a != nil {
		name = *a
	}
	h.rec.add(kindServe, name, method, start, end)
	return resp
}

type tracedEndpoint struct {
	inner transport.Endpoint
	addr  string
	rec   *recorder
}

func (e *tracedEndpoint) Call(m *wire.Message) (*wire.Message, error) {
	return e.CallContext(context.Background(), m)
}

// CallContext implements transport.ContextEndpoint so cancellation
// reaches the wrapped endpoint exactly as it would untraced.
func (e *tracedEndpoint) CallContext(ctx context.Context, m *wire.Message) (*wire.Message, error) {
	method := e.rec.methodOf(m)
	start := time.Now()
	resp, err := transport.Call(ctx, e.inner, m)
	e.rec.add(kindCall, e.addr, method, start, time.Now())
	return resp, err
}

func (e *tracedEndpoint) Close() error { return e.inner.Close() }

// link gives every span the innermost span that contains it in time as
// its parent, and every span under a client root that root's ID as its
// request. This is exact when requests do not overlap (the traced data
// workloads run one caller); for overlapping requests (recover's open
// loop) only intervals nested inside exactly one root get a request.
func link(spans []span) {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.StartNS != y.StartNS {
			return x.StartNS < y.StartNS
		}
		if x.EndNS != y.EndNS {
			return x.EndNS > y.EndNS // the longer interval is the outer one
		}
		return x.ID > y.ID // equal intervals: the outer span was recorded later
	})
	var stack []int
	for _, i := range order {
		s := &spans[i]
		for len(stack) > 0 && spans[stack[len(stack)-1]].EndNS < s.EndNS {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := spans[stack[len(stack)-1]]
			s.Parent = p.ID
			s.Request = p.Request
		}
		if s.Kind == kindClient {
			s.Request = s.ID
		}
		stack = append(stack, i)
	}
}

// selfTimes returns each span's duration minus the part of it that its
// direct children cover (children may overlap one another).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := spans[k].StartNS, spans[k].EndNS
			if lo < reach {
				lo = reach
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// writeSpans dumps a run's spans to benchmark/out/trace-<workload>.json.
func writeSpans(workload string, spans []span, names map[string]string) error {
	dir := filepath.Join(benchDir(), "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload   string            `json:"workload"`
		Components map[string]string `json:"components"` // listener address -> component
		Spans      []span            `json:"spans"`
	}{workload, names, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
