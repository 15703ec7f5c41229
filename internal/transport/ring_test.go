package transport

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"partsvc/internal/wire"
)

// TestRingDialUsesRing checks the co-located fast path selection: with
// Ring set, dialing an address served by the same transport instance
// must come back as a ring connection (no socket), counted in
// ring_conns, with calls behaving exactly like TCP.
func TestRingDialUsesRing(t *testing.T) {
	tr := NewTCP()
	tr.Ring = true
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
	if _, ok := ep.(*tcpEndpoint).conn.(*ringConn); !ok {
		t.Fatalf("co-located dial produced %T, want *ringConn", ep.(*tcpEndpoint).conn)
	}
	if got := tr.Stats().RingConns; got != 1 {
		t.Fatalf("RingConns = %d, want 1", got)
	}
	for i := 0; i < 100; i++ {
		resp, err := ep.Call(&wire.Message{Kind: wire.KindRequest, ID: uint64(i), Method: "ping", Body: []byte("ring")})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Kind != wire.KindResponse || resp.ID != uint64(i) || string(resp.Body) != "echo:ring" {
			t.Fatalf("resp = %+v", resp)
		}
	}
}

// TestRingDialFallsBackToTCP checks the miss path: Ring set but the
// address belongs to a different transport instance (a remote node, as
// far as this instance knows) — the dial must transparently use TCP.
func TestRingDialFallsBackToTCP(t *testing.T) {
	server := NewTCP()
	ln, err := server.Serve("", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	client := NewTCP()
	client.Ring = true
	ep, err := client.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if _, ok := ep.(*tcpEndpoint).conn.(*ringConn); ok {
		t.Fatal("dial to a foreign listener produced a ring connection")
	}
	if got := client.Stats().RingConns; got != 0 {
		t.Fatalf("RingConns = %d, want 0", got)
	}
	resp, err := ep.Call(&wire.Message{Kind: wire.KindRequest, ID: 1, Body: []byte("x")})
	if err != nil || string(resp.Body) != "echo:x" {
		t.Fatalf("fallback call: resp=%+v err=%v", resp, err)
	}
}

// TestRingConcurrentCallers hammers one ring connection from many
// goroutines — the MPSC producers and both ring directions under
// contention (run with -race).
func TestRingConcurrentCallers(t *testing.T) {
	tr := NewTCP()
	tr.Ring = true
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

	const callers, perCaller = 16, 200
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				id := uint64(c*perCaller + i)
				resp, err := ep.Call(&wire.Message{Kind: wire.KindRequest, ID: id, Body: []byte("c")})
				if err != nil {
					errs <- err
					return
				}
				if resp.ID != id {
					t.Errorf("caller %d: resp ID %d, want %d (demux broken)", c, resp.ID, id)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRingLargeMessageStreams checks that frames much larger than the
// ring stream through it like a socket buffer instead of deadlocking.
func TestRingLargeMessageStreams(t *testing.T) {
	tr := NewTCP()
	tr.Ring = true
	tr.RingSize = 4096 // far smaller than the payload
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

	body := bytes.Repeat([]byte("s"), 256<<10)
	resp, err := ep.Call(&wire.Message{Kind: wire.KindRequest, ID: 42, Body: body})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 42 || len(resp.Body) != len(body)+len("echo:") {
		t.Fatalf("large echo: id=%d len=%d", resp.ID, len(resp.Body))
	}
}

// TestRingShedUnderLoad checks that admission control sheds identically
// over rings: a saturated 1-worker listener answers overflow with
// ErrOverloaded while the worker is still parked.
func TestRingShedUnderLoad(t *testing.T) {
	tr := NewTCP()
	tr.Ring = true
	tr.Workers = 1
	tr.QueueDepth = 2
	tr.CallTimeout = 30 * time.Second

	release := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(1)
	var enterOnce sync.Once
	slow := HandlerFunc(func(m *wire.Message) *wire.Message {
		enterOnce.Do(entered.Done)
		<-release
		return &wire.Message{Kind: wire.KindResponse, ID: m.ID}
	})
	ln, err := tr.Serve("", slow)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ep, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if _, ok := ep.(*tcpEndpoint).conn.(*ringConn); !ok {
		t.Fatal("expected a ring connection")
	}

	const burst = 16
	var wg sync.WaitGroup
	results := make(chan error, burst)
	call := func() {
		defer wg.Done()
		resp, err := ep.Call(&wire.Message{Kind: wire.KindRequest, Method: "slow"})
		if err == nil {
			err = AsError(resp)
		}
		results <- err
	}
	wg.Add(1)
	go call()
	entered.Wait()
	for i := 0; i < burst-1; i++ {
		wg.Add(1)
		go call()
	}
	select {
	case err := <-results:
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("first completed call got %v, want ErrOverloaded", err)
		}
		results <- err
	case <-time.After(10 * time.Second):
		t.Fatal("no shed reply over the ring while the pool was saturated")
	}
	close(release)
	wg.Wait()
	close(results)
	var ok, overloaded int
	for err := range results {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrOverloaded):
			overloaded++
		default:
			t.Fatalf("call failed with %v, want nil or ErrOverloaded", err)
		}
	}
	if ok == 0 || overloaded == 0 || ok+overloaded != burst {
		t.Fatalf("ok=%d overloaded=%d of %d: want both outcomes and no losses", ok, overloaded, burst)
	}
}

// TestRingListenerCloseFailsCalls checks teardown: closing the listener
// must fail in-flight and future calls on ring endpoints, exactly like
// a closed socket.
func TestRingListenerCloseFailsCalls(t *testing.T) {
	tr := NewTCP()
	tr.Ring = true
	ln, err := tr.Serve("", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if _, err := ep.Call(&wire.Message{Kind: wire.KindRequest, ID: 1}); err != nil {
		t.Fatal(err)
	}
	ln.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := ep.Call(&wire.Message{Kind: wire.KindRequest, ID: 2}); err != nil {
			return // endpoint observed the close
		}
		if time.Now().After(deadline) {
			t.Fatal("calls still succeed after listener close")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRingDialAfterListenerClose checks the registry is cleaned up: a
// Ring dial after Close must not find the dead listener (and the TCP
// fallback must refuse).
func TestRingDialAfterListenerClose(t *testing.T) {
	tr := NewTCP()
	tr.Ring = true
	ln, err := tr.Serve("", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr()
	ln.Close()
	if l := tr.lookupLocal(addr); l != nil {
		t.Fatal("closed listener still registered for ring dials")
	}
	if _, err := tr.Dial(addr); err == nil {
		t.Fatal("dial to a closed listener succeeded")
	}
}

// TestSPSCRingByteStream pins the raw ring contract: bytes come out in
// order across wrap-around, a closed ring drains then reports EOF, and
// a full ring honours the write deadline when the peer stops reading.
func TestSPSCRingByteStream(t *testing.T) {
	r := newSPSCRing(64, nil) // tiny: forces wrap and backpressure
	var got []byte
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 13) // odd size: misaligns with the ring
		for {
			n, err := r.read(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				if err != io.EOF {
					t.Errorf("read: %v", err)
				}
				return
			}
		}
	}()
	want := make([]byte, 1000)
	for i := range want {
		want[i] = byte(i)
	}
	for off := 0; off < len(want); off += 100 {
		if _, err := r.write(want[off:off+100], time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	r.close()
	<-done
	if !bytes.Equal(got, want) {
		t.Fatalf("ring stream corrupted: got %d bytes, want %d (first diff at %d)", len(got), len(want), firstDiff(got, want))
	}
	if occ := r.occupancy(); occ != 0 {
		t.Fatalf("occupancy after drain = %d", occ)
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestSPSCRingWriteDeadline checks stalled-peer isolation over shared
// memory: a full ring with no reader must fail the write within the
// deadline, not block forever.
func TestSPSCRingWriteDeadline(t *testing.T) {
	r := newSPSCRing(64, nil)
	payload := make([]byte, 256) // several times the capacity
	start := time.Now()
	_, err := r.write(payload, time.Now().Add(50*time.Millisecond))
	if !errors.Is(err, errRingWriteTimeout) {
		t.Fatalf("write to a stalled ring: err=%v, want errRingWriteTimeout", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("deadline took %v to fire", waited)
	}
}
