package transport

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"partsvc/internal/trace"
	"partsvc/internal/wire"
)

// TestTracedCallRecordsSpans is the transport-level span contract:
// with tracing enabled, one TCP call records a client span and a
// server span stitched into the same trace via the wire trace field.
func TestTracedCallRecordsSpans(t *testing.T) {
	trace.SetEnabled(true)
	defer trace.SetEnabled(false)
	trace.Default.Reset()
	defer trace.Default.Reset()

	tr := NewTCP()
	ln, err := tr.Serve("", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ep, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	if _, err := ep.Call(&wire.Message{Kind: wire.KindRequest, Method: "ping"}); err != nil {
		t.Fatal(err)
	}
	assertStitchedSpanPair(t)
}

// assertStitchedSpanPair checks the default tracer holds a
// transport.call span and a transport.serve span of the same trace,
// the serve span parented on the call span.
func assertStitchedSpanPair(t *testing.T) {
	t.Helper()
	spans := trace.Default.Spans()
	var call, serve *trace.Span
	for i := range spans {
		switch spans[i].Name {
		case "transport.call":
			call = &spans[i]
		case "transport.serve":
			serve = &spans[i]
		}
	}
	if call == nil || serve == nil {
		t.Fatalf("missing spans in %d recorded", len(spans))
	}
	if serve.TraceID != call.TraceID {
		t.Errorf("server span trace %d, client trace %d — not stitched", serve.TraceID, call.TraceID)
	}
	if serve.Parent != call.SpanID {
		t.Errorf("server span parent %d, want client span %d", serve.Parent, call.SpanID)
	}
}

// TestTracedCallMessageUnstamped checks the caller's message is handed
// back unmodified: the trace stamp lives only on the wire.
func TestTracedCallMessageUnstamped(t *testing.T) {
	trace.SetEnabled(true)
	defer trace.SetEnabled(false)
	defer trace.Default.Reset()

	tr := NewInProc()
	if _, err := tr.Serve("s", echoHandler); err != nil {
		t.Fatal(err)
	}
	ep, err := tr.Dial("s")
	if err != nil {
		t.Fatal(err)
	}
	m := &wire.Message{Kind: wire.KindRequest, Method: "ping"}
	if _, err := ep.Call(m); err != nil {
		t.Fatal(err)
	}
	if m.TraceID != 0 || m.SpanID != 0 {
		t.Errorf("caller's message left stamped: trace %d span %d", m.TraceID, m.SpanID)
	}
}

// TestRawPeerReceivesTracedCall pins the trace wire field from outside
// the transport's own endpoint: a peer that frames its messages by hand
// sends a request carrying trace context, the server adopts it for its
// span, and the response does not reflect it back.
func TestRawPeerReceivesTracedCall(t *testing.T) {
	trace.SetEnabled(true)
	defer trace.SetEnabled(false)
	trace.Default.Reset()
	defer trace.Default.Reset()

	tr := NewTCP()
	ln, err := tr.Serve("", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// The raw peer replays a traced request captured from a caller.
	conn, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	payload, err := (&wire.Message{
		Kind: wire.KindRequest, ID: 3, Method: "ping", Body: []byte("legacy"),
		TraceID: 0xABCD, SpanID: 0x1234,
	}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(append(wire.AppendFrameHeader(nil, 9, len(payload)), payload...)); err != nil {
		t.Fatal(err)
	}
	f, err := wire.NewFrameReader(conn).Next()
	if err != nil || f.ID != 9 {
		t.Fatalf("reading response frame: id %d, %v", f.ID, err)
	}
	resp, err := wire.UnmarshalMessage(f.Payload)
	if err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if resp.Kind != wire.KindResponse || string(resp.Body) != "echo:legacy" {
		t.Fatalf("resp = %+v, want echo", resp)
	}
	// The context is not reflected back: responses carry no trace field
	// unless a handler explicitly stamps one.
	if resp.TraceID != 0 || resp.SpanID != 0 {
		t.Errorf("response carries trace context %d/%d, want dropped", resp.TraceID, resp.SpanID)
	}
	// But the server did adopt the incoming context for its own span.
	found := false
	for _, s := range trace.Default.Spans() {
		if s.Name == "transport.serve" && s.TraceID == 0xABCD && s.Parent == 0x1234 {
			found = true
		}
	}
	if !found {
		t.Error("server span did not adopt the legacy caller's trace context")
	}

	// And an old-style decoder (generic value decode, unknown fields
	// ignored) accepts the traced payload — what "v1 peer receives a
	// traced call" means at the message layer.
	if _, _, err := wire.DecodeValue(payload); err != nil {
		t.Fatalf("generic decode of traced payload: %v", err)
	}
}

// TestStatsTwoConcurrentTransports is the attribution regression: two
// transports carrying different traffic at once must each report only
// their own frames and bytes, while the buffer pool counters stay
// process-wide in wire.SnapshotPool.
func TestStatsTwoConcurrentTransports(t *testing.T) {
	serve := func() (*TCP, *TCP, Endpoint, func()) {
		srv := NewTCP()
		ln, err := srv.Serve("", echoHandler)
		if err != nil {
			t.Fatal(err)
		}
		cli := NewTCP()
		ep, err := cli.Dial(ln.Addr())
		if err != nil {
			ln.Close()
			t.Fatal(err)
		}
		return srv, cli, ep, func() { ep.Close(); ln.Close() }
	}
	srvA, cliA, epA, closeA := serve()
	defer closeA()
	srvB, cliB, epB, closeB := serve()
	defer closeB()

	const callsA, callsB = 24, 9
	bodyA := bytes.Repeat([]byte("a"), 512)
	bodyB := bytes.Repeat([]byte("b"), 64)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < callsA; i++ {
			if _, err := epA.Call(&wire.Message{Kind: wire.KindRequest, Body: bodyA}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < callsB; i++ {
			if _, err := epB.Call(&wire.Message{Kind: wire.KindRequest, Body: bodyB}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	check := func(name string, st StatsSnapshot, calls int) {
		t.Helper()
		if st.FramesSent != uint64(calls) || st.FramesReceived != uint64(calls) {
			t.Errorf("%s: frames %d/%d, want %d/%d — counters leaked across transports",
				name, st.FramesSent, st.FramesReceived, calls, calls)
		}
		if st.InFlight != 0 {
			t.Errorf("%s: in_flight %d after drain", name, st.InFlight)
		}
	}
	check("clientA", cliA.Stats(), callsA)
	check("serverA", srvA.Stats(), callsA)
	check("clientB", cliB.Stats(), callsB)
	check("serverB", srvB.Stats(), callsB)
	if cliA.Stats().BytesSent <= cliB.Stats().BytesSent {
		t.Errorf("clientA bytes %d not > clientB bytes %d despite larger bodies",
			cliA.Stats().BytesSent, cliB.Stats().BytesSent)
	}
}

// TestDisabledTracingZeroStamp: with tracing off and no ctx span, the
// wire message must stay unstamped so encodings remain byte-identical
// to the pre-tracing format.
func TestDisabledTracingZeroStamp(t *testing.T) {
	trace.SetEnabled(false)
	var captured wire.Message
	h := HandlerFunc(func(m *wire.Message) *wire.Message {
		captured = *m
		return &wire.Message{Kind: wire.KindResponse, ID: m.ID}
	})
	tr := NewTCP()
	ln, err := tr.Serve("", h)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ep, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if _, err := Call(context.Background(), ep, &wire.Message{Kind: wire.KindRequest}); err != nil {
		t.Fatal(err)
	}
	if captured.TraceID != 0 || captured.SpanID != 0 {
		t.Errorf("disabled path stamped the wire message: %d/%d", captured.TraceID, captured.SpanID)
	}
}
