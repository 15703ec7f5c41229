package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"partsvc/internal/wire"
)

// TestMuxConcurrentCallsOneEndpoint drives many goroutines through ONE
// endpoint (one TCP connection) and checks every response reaches its
// caller — the demultiplexing contract.
func TestMuxConcurrentCallsOneEndpoint(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr Transport) {
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
		var wg sync.WaitGroup
		errs := make(chan error, 32)
		for c := 0; c < 32; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					body := fmt.Sprintf("c%d-%d", c, i)
					resp, err := ep.Call(&wire.Message{Kind: wire.KindRequest, Body: []byte(body)})
					if err != nil {
						errs <- err
						return
					}
					if string(resp.Body) != "echo:"+body {
						errs <- fmt.Errorf("response for %q was %q: cross-caller delivery", body, resp.Body)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}

// TestMuxSlowCallDoesNotBlockFastCalls checks pipelining: a slow
// handler invocation must not head-of-line-block other requests on the
// same connection.
func TestMuxSlowCallDoesNotBlockFastCalls(t *testing.T) {
	release := make(chan struct{})
	h := HandlerFunc(func(m *wire.Message) *wire.Message {
		if m.Method == "slow" {
			<-release
		}
		return &wire.Message{Kind: wire.KindResponse, ID: m.ID, Method: m.Method}
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

	slowDone := make(chan error, 1)
	go func() {
		_, err := ep.Call(&wire.Message{Kind: wire.KindRequest, Method: "slow"})
		slowDone <- err
	}()
	// The fast call must complete while the slow one is still parked.
	fastDone := make(chan error, 1)
	go func() {
		_, err := ep.Call(&wire.Message{Kind: wire.KindRequest, Method: "fast"})
		fastDone <- err
	}()
	select {
	case err := <-fastDone:
		if err != nil {
			t.Fatalf("fast call: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fast call blocked behind the slow one")
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call: %v", err)
	}
}

// TestMuxCloseInterruptsPendingCall is the close-during-call
// regression: Close must interrupt a parked call with ErrClosed instead
// of blocking until the response arrives.
func TestMuxCloseInterruptsPendingCall(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	h := HandlerFunc(func(m *wire.Message) *wire.Message {
		started <- struct{}{}
		<-release
		return &wire.Message{Kind: wire.KindResponse, ID: m.ID}
	})
	defer close(release)
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
	callDone := make(chan error, 1)
	go func() {
		_, err := ep.Call(&wire.Message{Kind: wire.KindRequest, Method: "hang"})
		callDone <- err
	}()
	<-started // the call is in the handler, so it is definitely pending
	closeDone := make(chan error, 1)
	go func() { closeDone <- ep.Close() }()
	select {
	case err := <-closeDone:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on the in-flight call")
	}
	select {
	case err := <-callDone:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("pending call err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call not interrupted by Close")
	}
}

// TestMuxConnectionDeathFailsAllPending checks error propagation: when
// the server vanishes, every parked caller gets an error, not a hang.
func TestMuxConnectionDeathFailsAllPending(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	h := HandlerFunc(func(m *wire.Message) *wire.Message {
		<-release
		return &wire.Message{Kind: wire.KindResponse, ID: m.ID}
	})
	tr := NewTCP()
	ln, err := tr.Serve("", h)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	const callers = 8
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := ep.Call(&wire.Message{Kind: wire.KindRequest})
			errs <- err
			once.Do(func() { close(release) })
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the calls park
	ln.Close()                        // kill the server with calls in flight
	for i := 0; i < callers; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Error("pending call survived connection death")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("pending call hung after connection death")
		}
	}
}

// TestMuxCallTimeout checks the per-call timeout.
func TestMuxCallTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	h := HandlerFunc(func(m *wire.Message) *wire.Message {
		<-release
		return &wire.Message{Kind: wire.KindResponse, ID: m.ID}
	})
	tr := NewTCP()
	tr.CallTimeout = 50 * time.Millisecond
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
	if _, err := ep.Call(&wire.Message{Kind: wire.KindRequest}); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("err = %v, want ErrCallTimeout", err)
	}
}

// TestMuxCallContextCancel checks caller-side cancellation.
func TestMuxCallContextCancel(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	h := HandlerFunc(func(m *wire.Message) *wire.Message {
		<-release
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
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := Call(ctx, ep, &wire.Message{Kind: wire.KindRequest}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestMuxDecodeErrorGetsFinalResponse checks the serveConn satellite: a
// well-framed but undecodable message must produce a final error
// response and a decode-errors counter bump, not a silent drop.
func TestMuxDecodeErrorGetsFinalResponse(t *testing.T) {
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
	before := tr.Stats().DecodeErrors
	// Queue a garbage frame through the endpoint's own writer with a
	// registered pending call, so the server's final error response
	// demultiplexes back to us.
	raw := ep.(*tcpEndpoint)
	ch := make(chan callResult, 1)
	raw.mu.Lock()
	raw.nextID++
	id := raw.nextID
	raw.pending[id] = ch
	raw.mu.Unlock()
	payload := append(wire.GetBuffer(), 0x7f, 0x00) // unknown tag
	raw.q.push(outFrame{id: id, payload: payload})
	select {
	case res := <-ch:
		if res.err != nil {
			t.Fatalf("frame result err = %v", res.err)
		}
		if err := AsError(res.resp); err == nil {
			t.Fatalf("resp = %+v, want a KindError response", res.resp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no final error response for the corrupt message")
	}
	if after := tr.Stats().DecodeErrors; after != before+1 {
		t.Errorf("DecodeErrors = %d, want %d", after, before+1)
	}
}

// TestMuxWorkerPoolBounded checks that the handler pool caps
// server-side concurrency at the configured size.
func TestMuxWorkerPoolBounded(t *testing.T) {
	var mu sync.Mutex
	active, peak := 0, 0
	release := make(chan struct{})
	h := HandlerFunc(func(m *wire.Message) *wire.Message {
		mu.Lock()
		active++
		if active > peak {
			peak = active
		}
		mu.Unlock()
		<-release
		mu.Lock()
		active--
		mu.Unlock()
		return &wire.Message{Kind: wire.KindResponse, ID: m.ID}
	})
	tr := NewTCP()
	tr.Workers = 2
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
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep.Call(&wire.Message{Kind: wire.KindRequest})
		}()
	}
	time.Sleep(100 * time.Millisecond) // let calls pile into the pool
	close(release)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if peak > 2 {
		t.Errorf("peak concurrent handlers = %d, want <= 2", peak)
	}
	if peak == 0 {
		t.Error("no handler ran")
	}
}

// TestMuxStatsCount checks the per-endpoint counters move.
func TestMuxStatsCount(t *testing.T) {
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
	for i := 0; i < 10; i++ {
		if _, err := ep.Call(&wire.Message{Kind: wire.KindRequest, Body: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	// Client sent 10 requests, server sent 10 responses: both halves
	// share the transport's counters.
	st := settledStats(tr, 20)
	if st.FramesSent != 20 || st.FramesReceived != 20 {
		t.Errorf("frames sent/received = %d/%d, want 20 each", st.FramesSent, st.FramesReceived)
	}
	if st.BytesSent == 0 || st.BytesReceived == 0 {
		t.Errorf("bytes sent/received = %d/%d", st.BytesSent, st.BytesReceived)
	}
	if st.InFlight != 0 {
		t.Errorf("InFlight = %d after all calls returned", st.InFlight)
	}
	if pool := wire.SnapshotPool(); pool.Hits+pool.Misses == 0 {
		t.Error("buffer pool counters not moving")
	}
}
