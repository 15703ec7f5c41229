package transport

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"partsvc/internal/trace"
	"partsvc/internal/wire"
)

// countingEcho echoes like echoHandler and counts what reached it.
type countingEcho struct{ calls, upgrades atomic.Int64 }

func (h *countingEcho) Handle(m *wire.Message) *wire.Message {
	h.calls.Add(1)
	if m.Kind == wire.KindUpgrade {
		h.upgrades.Add(1)
	}
	return echoHandler.Handle(m)
}

// serveTagged serves h on tr, tagged as hosted by node ("" = untagged),
// and dials it.
func serveTagged(t *testing.T, tr *TCP, h Handler, node string) (Listener, Endpoint) {
	t.Helper()
	ln, err := tr.Serve("", h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	if node != "" {
		TagNode(ln, node)
	}
	ep, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	return ln, ep
}

func ping(t *testing.T, ep Endpoint) {
	t.Helper()
	resp, err := ep.Call(&wire.Message{Kind: wire.KindRequest, ID: 1, Method: "ping", Body: []byte("hi")})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "echo:hi" {
		t.Fatalf("reply %q", resp.Body)
	}
}

// TestUpgradeCoLocated is the handshake's contract on the one path
// that accepts it: same transport instance, listener tagged with the
// caller's node. After it, calls reach the handler without a frame.
func TestUpgradeCoLocated(t *testing.T) {
	tr := NewTCP()
	h := &countingEcho{}
	_, ep := serveTagged(t, tr, h, "sd-2")
	// Before the handshake the linkage is a socket. (FramesReceived is
	// the counter to compare exactly: both readers count a frame before
	// acting on it, the writers count theirs after the write returns.)
	ping(t, ep)
	if got := tr.Stats(); got.LocalCalls != 0 || got.FramesReceived != 2 {
		t.Fatalf("before upgrade: %d local calls, %d frames received", got.LocalCalls, got.FramesReceived)
	}
	if !Upgrade(ep, "sd-2") {
		t.Fatal("co-located endpoint refused the upgrade")
	}
	before := tr.Stats()
	for i := 0; i < 10; i++ {
		ping(t, ep)
	}
	after := tr.Stats()
	if sent, rcvd := after.FramesSent-before.FramesSent, after.FramesReceived-before.FramesReceived; sent != 0 || rcvd != 0 {
		t.Errorf("upgraded linkage sent %d frames and received %d", sent, rcvd)
	}
	if d := after.LocalCalls - before.LocalCalls; d != 10 {
		t.Errorf("local_calls moved by %d, want 10", d)
	}
	if after.InFlight != 0 {
		t.Errorf("in_flight left at %d", after.InFlight)
	}
	if h.upgrades.Load() != 0 {
		t.Error("the handshake reached the handler")
	}
	if h.calls.Load() != 11 {
		t.Errorf("handler saw %d calls, want 11", h.calls.Load())
	}
}

// TestUpgradeRefused covers every endpoint that must answer "not
// upgraded" and leave the handler untouched: InProc, a listener of
// another transport instance (a remote address, as far as this one can
// tell), an untagged listener (a control listener), and a listener
// tagged with a different node.
func TestUpgradeRefused(t *testing.T) {
	t.Run("inproc", func(t *testing.T) {
		tr := NewInProc()
		h := &countingEcho{}
		ln, err := tr.Serve("", h)
		if err != nil {
			t.Fatal(err)
		}
		ep, _ := tr.Dial(ln.Addr())
		if Upgrade(ep, "sd-2") {
			t.Error("InProc upgraded")
		}
		if h.calls.Load() != 0 {
			t.Error("the handshake reached the handler")
		}
	})
	cases := []struct {
		name, tag string
		remote    bool
	}{
		{"remote", "sd-2", true},
		{"untagged", "", false},
		{"other-node", "ny-1", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			server, client := NewTCP(), NewTCP()
			if !tc.remote {
				client = server
			}
			h := &countingEcho{}
			ln, _ := serveTagged(t, server, h, tc.tag)
			ep, err := client.Dial(ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer ep.Close()
			if Upgrade(ep, "sd-2") {
				t.Fatal("upgraded")
			}
			if got := client.Stats().FramesSent; got != 0 {
				t.Errorf("the handshake put %d frames on the socket", got)
			}
			ping(t, ep)
			if got := client.Stats(); got.LocalCalls != 0 || got.FramesReceived == 0 {
				t.Errorf("after a refused upgrade: %d local calls, %d frames received", got.LocalCalls, got.FramesReceived)
			}
			if h.upgrades.Load() != 0 {
				t.Error("the handshake reached the handler")
			}
		})
	}
}

// TestUpgradeOverSocketRefusedBeforeHandler sends the handshake as a
// frame, as a peer that does not answer it locally would: the serving
// side refuses it before dispatch.
func TestUpgradeOverSocketRefusedBeforeHandler(t *testing.T) {
	tr := NewTCP()
	h := &countingEcho{}
	_, ep := serveTagged(t, tr, h, "sd-2")
	req := &wire.Message{Kind: wire.KindUpgrade, ID: 9, Meta: map[string]string{upgradeNodeKey: "sd-2"}}
	resp, err := ep.(*tcpEndpoint).callContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != wire.KindResponse || resp.ID != 9 || resp.Meta[upgradedKey] != "false" {
		t.Errorf("reply %+v", resp)
	}
	if h.calls.Load() != 0 {
		t.Error("the handshake reached the handler")
	}
}

// TestUpgradedLinkageDiesWithListenerOrEndpoint: closing the provider's
// listener (a wrapper uninstalling or crashing) or the endpoint fails
// the next call with ErrClosed, as a dropped connection would.
func TestUpgradedLinkageDiesWithListenerOrEndpoint(t *testing.T) {
	tr := NewTCP()
	ln, ep := serveTagged(t, tr, echoHandler, "sd-2")
	if !Upgrade(ep, "sd-2") {
		t.Fatal("not upgraded")
	}
	ping(t, ep)
	ln.Close()
	if _, err := ep.Call(&wire.Message{Kind: wire.KindRequest}); !errors.Is(err, ErrClosed) {
		t.Errorf("call after listener close: %v, want ErrClosed", err)
	}

	_, ep = serveTagged(t, tr, echoHandler, "sd-2")
	if !Upgrade(ep, "sd-2") {
		t.Fatal("not upgraded")
	}
	ep.Close()
	if _, err := ep.Call(&wire.Message{Kind: wire.KindRequest}); !errors.Is(err, ErrClosed) {
		t.Errorf("call after endpoint close: %v, want ErrClosed", err)
	}
}

// TestUpgradedReplyLostWhenListenerClosesMidCall: a handler still
// running when its listener closes has nowhere to send its reply.
func TestUpgradedReplyLostWhenListenerClosesMidCall(t *testing.T) {
	tr := NewTCP()
	var ln Listener
	closing := HandlerFunc(func(m *wire.Message) *wire.Message {
		ln.Close()
		return echoHandler.Handle(m)
	})
	ln, ep := serveTagged(t, tr, closing, "sd-2")
	if !Upgrade(ep, "sd-2") {
		t.Fatal("not upgraded")
	}
	if _, err := ep.Call(&wire.Message{Kind: wire.KindRequest}); !errors.Is(err, ErrClosed) {
		t.Errorf("call across a listener close: %v, want ErrClosed", err)
	}
}

// TestUpgradedCallKeepsSpanPair: a co-located hop still yields the
// transport.call / transport.serve pair, stitched as over a socket.
func TestUpgradedCallKeepsSpanPair(t *testing.T) {
	tr := NewTCP()
	_, ep := serveTagged(t, tr, echoHandler, "sd-2")
	if !Upgrade(ep, "sd-2") {
		t.Fatal("not upgraded")
	}
	trace.SetEnabled(true)
	defer trace.SetEnabled(false)
	trace.Default.Reset()
	defer trace.Default.Reset()

	m := &wire.Message{Kind: wire.KindRequest, Method: "ping", Body: []byte("hi")}
	if _, err := ep.Call(m); err != nil {
		t.Fatal(err)
	}
	if m.TraceID != 0 || m.SpanID != 0 {
		t.Errorf("caller's message left stamped: trace %d span %d", m.TraceID, m.SpanID)
	}
	assertStitchedSpanPair(t)
}

// TestUpgradedConcurrentCallers drives one upgraded endpoint from 64
// goroutines (run under -race): every call gets its own reply.
func TestUpgradedConcurrentCallers(t *testing.T) {
	tr := NewTCP()
	_, ep := serveTagged(t, tr, echoHandler, "sd-2")
	if !Upgrade(ep, "sd-2") {
		t.Fatal("not upgraded")
	}
	const callers, perCaller = 64, 200
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body := []byte{byte(c)}
			for i := 0; i < perCaller; i++ {
				resp, err := ep.Call(&wire.Message{Kind: wire.KindRequest, ID: uint64(i), Body: body})
				if err != nil {
					t.Error(err)
					return
				}
				if resp.ID != uint64(i) || len(resp.Body) != 6 || resp.Body[5] != byte(c) {
					t.Errorf("caller %d call %d got reply %d %q", c, i, resp.ID, resp.Body)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if got := tr.Stats(); got.LocalCalls != callers*perCaller || got.InFlight != 0 {
		t.Errorf("local_calls %d in_flight %d", got.LocalCalls, got.InFlight)
	}
}

// TestEchoSteadyStateStaysInThePool: a 10 KiB echo over the socket at
// steady state draws every buffer from the class that fits — nothing
// outgrows a 4 KiB scratch buffer onto the heap any more.
func TestEchoSteadyStateStaysInThePool(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries and adds allocations of its own")
	}
	tr := &TCP{ZeroCopyResponses: true}
	ln, err := tr.Serve("", HandlerFunc(func(m *wire.Message) *wire.Message {
		return &wire.Message{Kind: wire.KindResponse, ID: m.ID, Body: m.Body}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ep, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	req := &wire.Message{Kind: wire.KindRequest, ID: 1, Method: "echo", Body: make([]byte, 10<<10)}
	call := func() {
		resp, err := ep.Call(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}
	for i := 0; i < 200; i++ {
		call()
	}
	const ops = 2000
	poolBefore := wire.SnapshotPool()
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	for i := 0; i < ops; i++ {
		call()
	}
	runtime.ReadMemStats(&memAfter)
	poolAfter := wire.SnapshotPool()
	perOp := float64(memAfter.TotalAlloc-memBefore.TotalAlloc) / ops
	if perOp >= 1024 {
		t.Errorf("10 KiB echo allocates %.0f B/op at steady state, want < 1 KiB", perOp)
	}
	window := wire.PoolSnapshot{Hits: poolAfter.Hits - poolBefore.Hits, Misses: poolAfter.Misses - poolBefore.Misses}
	if rate := window.HitRate(); rate < 0.99 {
		t.Errorf("pool hit rate %.4f (%d hits, %d misses), want >= 0.99", rate, window.Hits, window.Misses)
	}
}
