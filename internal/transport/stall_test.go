package transport

import (
	"bufio"
	"net"
	"testing"
	"time"

	"partsvc/internal/wire"
)

// TestMuxStalledClientDoesNotStarveOthers is the listener-starvation
// regression: a peer that floods requests but never reads a byte of
// the responses fills the connection's write queue. The shared pool
// workers must never block on that queue — the stalled connection is
// killed and every other connection keeps being served.
func TestMuxStalledClientDoesNotStarveOthers(t *testing.T) {
	tr := NewTCP()
	tr.WriteTimeout = 250 * time.Millisecond
	tr.CallTimeout = 10 * time.Second
	// Big responses so the stalled peer's backlog overwhelms the kernel
	// socket buffers quickly.
	body := make([]byte, 32<<10)
	h := HandlerFunc(func(m *wire.Message) *wire.Message {
		return &wire.Message{Kind: wire.KindResponse, ID: m.ID, Body: body}
	})
	ln, err := tr.Serve("", h)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	stalled, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	go func() {
		bw := bufio.NewWriter(stalled)
		req, _ := (&wire.Message{Kind: wire.KindRequest}).Marshal()
		for i := 0; i < 2000; i++ {
			bw.Write(wire.AppendFrameHeader(nil, uint64(i+1), len(req)))
			if _, err := bw.Write(req); err != nil {
				return
			}
			if i%64 == 0 && bw.Flush() != nil {
				return
			}
		}
		bw.Flush()
	}()

	// A healthy client on its own connection must keep being served
	// while the stalled one clogs up and dies.
	ep, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	for i := 0; i < 20; i++ {
		if _, err := ep.Call(&wire.Message{Kind: wire.KindRequest}); err != nil {
			t.Fatalf("healthy call %d starved by the stalled connection: %v", i, err)
		}
	}

	// The stalled connection must be torn down, not leaked. The peer
	// still reads nothing: draining now would relieve the very stall
	// under test before the server has judged it (the admitted requests
	// alone owe it over 8 MB, more than the loopback buffers of a peer
	// that never reads absorb — but a peer that starts reading a few
	// milliseconds in lets every response through, and the connection
	// then idles open). So the teardown is watched on the server: its
	// connection table drops to the healthy connection alone.
	l := ln.(*tcpListener)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		l.mu.Lock()
		open := len(l.conns)
		l.mu.Unlock()
		if open <= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never closed the stalled connection")
		}
	}
	// And the peer sees it: what was in flight drains into EOF or a reset.
	stalled.SetReadDeadline(time.Now().Add(10 * time.Second))
	drain := make([]byte, 1<<16)
	for {
		if _, err := stalled.Read(drain); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("the stalled peer never saw its connection closed")
			}
			return
		}
	}
}
