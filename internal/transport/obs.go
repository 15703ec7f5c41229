package transport

import (
	"context"
	"strings"
	"time"

	"partsvc/internal/metrics"
	"partsvc/internal/trace"
	"partsvc/internal/wire"
)

// Observability hooks shared by the TCP and in-process transports.
//
// The client side starts a "transport.call" span (parented on whatever
// span rides in ctx) and stamps its context into the outgoing message,
// so the serving side can continue the trace; the server side starts a
// "transport.serve" span from the stamped fields and re-stamps the
// request so the handler's own spans parent on it. Per-method latency
// histograms ("rpc.client.<method>", "rpc.server.<method>") land in
// metrics.DefaultRegistry.
//
// Everything here is gated so the disabled path costs one atomic load
// (plus a context value lookup on the client): the CI guard holds this
// below 2% of an RPC.

// clientObs carries one call's observation state across the call.
type clientObs struct {
	span         *trace.Span
	histo        *metrics.Histogram
	begin        time.Time
	prevT, prevS uint64
	stamped      bool
}

// beginClientCall starts the client-side span and histogram timer and
// stamps the span context into m (restored by end, so callers can
// reuse or re-send the message).
func beginClientCall(ctx context.Context, m *wire.Message) (context.Context, clientObs) {
	var o clientObs
	ctx, o.span = trace.Start(ctx, "transport.call")
	if o.span != nil {
		if m.Method != "" {
			// The span ring outlives the call, and a relay forwards the
			// slab-backed request it was handed: own the bytes.
			o.span.SetAttr("method", strings.Clone(m.Method))
		}
		o.prevT, o.prevS = m.TraceID, m.SpanID
		sc := o.span.Context()
		m.TraceID, m.SpanID = sc.TraceID, sc.SpanID
		o.stamped = true
	}
	if trace.Enabled() {
		o.histo = metrics.DefaultRegistry.Histogram("rpc.client." + methodLabel(m.Method))
		o.begin = time.Now()
	}
	return ctx, o
}

// end closes out the call's observation: message restored, span ended,
// latency observed.
func (o *clientObs) end(m *wire.Message, err error) {
	if o.stamped {
		m.TraceID, m.SpanID = o.prevT, o.prevS
	}
	if o.span != nil {
		if err != nil {
			o.span.SetAttr("error", err.Error())
		}
		o.span.End()
	}
	if o.histo != nil {
		o.histo.Observe(float64(time.Since(o.begin)) / float64(time.Millisecond))
	}
}

// serveObserved wraps one handler invocation in a "transport.serve"
// span continuing the trace stamped in req (a fresh root when the
// caller sent none), re-stamping req so handler-side spans parent on
// it. Server-side observation rides entirely on the global switch:
// there is no caller context to carry a tracer across the wire. Every
// transport dispatches through here, so this is also where an upgrade
// handshake that arrived as a request is refused before any handler
// sees it.
func serveObserved(h Handler, req *wire.Message) *wire.Message {
	if refusal := RefuseUpgrade(req); refusal != nil {
		return refusal
	}
	if !trace.Enabled() {
		return h.Handle(req)
	}
	span := trace.Default.StartSpan(trace.SpanContext{TraceID: req.TraceID, SpanID: req.SpanID}, "transport.serve")
	if req.Method != "" {
		// The span ring outlives the request; server requests are
		// slab-backed (zero-copy), so the attribute must own its bytes.
		span.SetAttr("method", strings.Clone(req.Method))
	}
	prevT, prevS := req.TraceID, req.SpanID
	sc := span.Context()
	req.TraceID, req.SpanID = sc.TraceID, sc.SpanID
	histo := metrics.DefaultRegistry.Histogram("rpc.server." + methodLabel(req.Method))
	begin := time.Now()
	resp := h.Handle(req)
	histo.Observe(float64(time.Since(begin)) / float64(time.Millisecond))
	req.TraceID, req.SpanID = prevT, prevS
	span.End()
	return resp
}

// methodLabel names the histogram for a method ("unknown" for
// methodless messages, so coherence pushes still aggregate somewhere).
func methodLabel(m string) string {
	if m == "" {
		return "unknown"
	}
	return m
}
