// Package trace is the request-tracing half of the observability
// plane: a lightweight span API whose context propagates across RPC
// boundaries inside wire messages, so one mail send yields a single
// causally-linked trace spanning client proxy, transport, server
// dispatch, mail handler, and coherence flush.
//
// The package is clock-abstracted: a Tracer reads time through a
// caller-supplied func() float64 (milliseconds), so the same spans
// carry wall-clock timestamps on real transports and virtual
// timestamps under internal/sim — where repeated runs produce
// byte-identical span trees.
//
// Tracing through the global Default tracer is off unless SetEnabled
// is called; the disabled fast path is a single atomic load, so
// instrumented hot paths stay within noise of uninstrumented code
// (measured against BenchmarkRPCThroughput in the CI guard).
package trace

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SpanContext identifies a span for cross-boundary propagation: it is
// what rides inside wire messages between processes.
type SpanContext struct {
	// TraceID groups every span of one request; it equals the root
	// span's ID.
	TraceID uint64
	// SpanID identifies the span itself (parent of whatever the remote
	// side starts).
	SpanID uint64
}

// Valid reports whether the context carries a trace.
func (c SpanContext) Valid() bool { return c.TraceID != 0 }

// Attr is one key=value span annotation.
type Attr struct {
	Key   string
	Value string
}

// Span is one timed operation. Completed spans are copied into the
// tracer's ring buffer on End; a nil *Span (tracing disabled) is safe
// to use everywhere.
type Span struct {
	// Name labels the operation ("proxy.send", "coherence.flush").
	Name string
	// TraceID and SpanID identify the span; Parent is the parent span
	// ID (0 for a root).
	TraceID uint64
	SpanID  uint64
	Parent  uint64
	// StartMS and DurMS are tracer-clock milliseconds.
	StartMS float64
	DurMS   float64
	// Attrs are optional annotations, in SetAttr order.
	Attrs []Attr

	tr *Tracer
	// ended is CASed by End; a plain uint32 (not atomic.Bool) so
	// completed spans stay copyable into the ring buffer.
	ended uint32
}

// Context returns the span's propagation context (zero for nil spans).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.TraceID, SpanID: s.SpanID}
}

// SetAttr annotates the span; no-op on nil spans.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// End stamps the duration and records the span in its tracer's ring
// buffer. Safe on nil spans and idempotent.
func (s *Span) End() {
	if s == nil || !atomic.CompareAndSwapUint32(&s.ended, 0, 1) {
		return
	}
	s.DurMS = s.tr.now() - s.StartMS
	s.tr.record(s)
}

// Tracer creates spans and retains the most recent completed ones in a
// fixed-capacity ring buffer. It is safe for concurrent use.
type Tracer struct {
	clock func() float64

	mu    sync.Mutex
	ring  []Span
	next  int    // ring write cursor
	total uint64 // spans ever recorded
	ids   atomic.Uint64
}

// DefaultCapacity is the ring-buffer capacity of tracers created with
// a non-positive capacity.
const DefaultCapacity = 4096

// NewTracer returns a tracer reading time from clock (milliseconds;
// nil means the process wall clock from a fixed origin) and retaining
// the last capacity completed spans.
func NewTracer(capacity int, clock func() float64) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if clock == nil {
		clock = wallClock()
	}
	return &Tracer{clock: clock, ring: make([]Span, 0, capacity)}
}

// wallClock returns a monotonic wall-clock reader in milliseconds.
func wallClock() func() float64 {
	start := time.Now()
	return func() float64 { return float64(time.Since(start)) / float64(time.Millisecond) }
}

// Default is the process-wide tracer used by Start when the context
// carries no tracer. It records only while SetEnabled(true).
var Default = NewTracer(DefaultCapacity, nil)

var enabled atomic.Bool

// SetEnabled switches the Default-tracer observability plane on or
// off. Explicitly constructed tracers (the simulator's) are always on.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether default-tracer tracing is on. Hot paths use
// this single atomic load as their disabled fast path.
func Enabled() bool { return enabled.Load() }

func (t *Tracer) now() float64 { return t.clock() }

// newID returns the next span ID (1-based, tracer-local). IDs are
// dense and deterministic for single-threaded (simulator) use.
func (t *Tracer) newID() uint64 { return t.ids.Add(1) }

// StartSpan starts a span under an explicit parent context. A zero
// parent starts a new root (its span ID becomes the trace ID). This is
// the entry point for code outside a context.Context flow — the
// simulator worlds and transport server loops.
func (t *Tracer) StartSpan(parent SpanContext, name string) *Span {
	if t == nil {
		return nil
	}
	id := t.newID()
	s := &Span{Name: name, SpanID: id, StartMS: t.now(), tr: t}
	if parent.Valid() {
		s.TraceID = parent.TraceID
		s.Parent = parent.SpanID
	} else {
		s.TraceID = id
	}
	return s
}

// record copies a completed span into the ring buffer.
func (t *Tracer) record(s *Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, *s)
		t.next = len(t.ring) % cap(t.ring)
		return
	}
	t.ring[t.next] = *s
	t.next = (t.next + 1) % cap(t.ring)
}

// Spans returns the retained completed spans, oldest first. When more
// spans were recorded than the ring holds, only the most recent
// cap(ring) survive.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.ring))
	if len(t.ring) < cap(t.ring) {
		return append(out, t.ring...)
	}
	out = append(out, t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}

// Total reports how many spans were ever recorded (including ones the
// ring has since dropped).
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Reset drops all retained spans and restarts the ID sequence (tests
// and repeated deterministic runs).
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring = t.ring[:0]
	t.next = 0
	t.total = 0
	t.ids.Store(0)
}

// Context plumbing. A context carries at most one active span (and its
// tracer); Start parents new spans on it.

type ctxKey struct{}

type ctxSpan struct {
	tr *Tracer
	sc SpanContext
}

// ContextWithSpan returns a context carrying sc as the active span of
// tracer tr (nil tr means Default).
func ContextWithSpan(ctx context.Context, tr *Tracer, sc SpanContext) context.Context {
	if tr == nil {
		tr = Default
	}
	return context.WithValue(ctx, ctxKey{}, ctxSpan{tr: tr, sc: sc})
}

// Start begins a span named name as a child of the context's active
// span. With no active span it consults the Default tracer, which
// records only when enabled — so uninstrumented flows pay one atomic
// load. The returned context carries the new span for callees.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	if cs, ok := ctx.Value(ctxKey{}).(ctxSpan); ok {
		s := cs.tr.StartSpan(cs.sc, name)
		return ContextWithSpan(ctx, cs.tr, s.Context()), s
	}
	if !enabled.Load() {
		return ctx, nil
	}
	s := Default.StartSpan(SpanContext{}, name)
	return ContextWithSpan(ctx, Default, s.Context()), s
}

// StartRemote begins a span continuing a trace received from a peer
// (parent extracted from a wire message). The span lives on the
// Default tracer and is nil while tracing is disabled; the returned
// context carries it for downstream Start calls.
func StartRemote(ctx context.Context, parent SpanContext, name string) (context.Context, *Span) {
	if !enabled.Load() {
		return ctx, nil
	}
	s := Default.StartSpan(parent, name)
	return ContextWithSpan(ctx, Default, s.Context()), s
}

// Tree renders spans as indented per-trace trees, deterministically:
// traces order by root start time (then trace ID), siblings by start
// time (then span ID). Orphan spans (parent fell off the ring) render
// as roots. The format is stable enough to assert byte-identical
// simulator runs against.
func Tree(spans []Span) string {
	byParent := map[uint64][]*Span{}
	byID := map[uint64]*Span{}
	for i := range spans {
		byID[spans[i].SpanID] = &spans[i]
	}
	var roots []*Span
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 {
			if _, ok := byID[s.Parent]; ok {
				byParent[s.Parent] = append(byParent[s.Parent], s)
				continue
			}
		}
		roots = append(roots, s)
	}
	order := func(list []*Span) {
		sort.SliceStable(list, func(i, j int) bool {
			if list[i].StartMS != list[j].StartMS {
				return list[i].StartMS < list[j].StartMS
			}
			return list[i].SpanID < list[j].SpanID
		})
	}
	order(roots)
	var b strings.Builder
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "%s start=%.3fms dur=%.3fms", s.Name, s.StartMS, s.DurMS)
		for _, a := range s.Attrs {
			fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
		}
		b.WriteByte('\n')
		kids := byParent[s.SpanID]
		order(kids)
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	lastTrace := uint64(0)
	for _, r := range roots {
		if r.TraceID != lastTrace {
			fmt.Fprintf(&b, "trace %d\n", r.TraceID)
			lastTrace = r.TraceID
		}
		walk(r, 1)
	}
	return b.String()
}
