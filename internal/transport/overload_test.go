package transport

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"partsvc/internal/wire"
)

// TestShedUnderLoad is the admission-control regression: a saturating
// burst against a 1-worker listener with a tiny queue must produce
// immediate ErrOverloaded replies for the overflow — never a stalled
// reader, a blocked healthy call, or a starved pool.
func TestShedUnderLoad(t *testing.T) {
	tr := NewTCP()
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

	// Occupy the single worker, then saturate queue + shed path.
	var wg sync.WaitGroup
	const burst = 16
	results := make(chan error, burst)
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := ep.Call(&wire.Message{Kind: wire.KindRequest, Method: "slow"})
		if err == nil {
			err = AsError(resp)
		}
		results <- err
	}()
	entered.Wait() // the worker is now parked in the handler
	for i := 0; i < burst-1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ep.Call(&wire.Message{Kind: wire.KindRequest, Method: "slow"})
			if err == nil {
				err = AsError(resp)
			}
			results <- err
		}()
	}

	// Shed replies must come back while the worker is still parked: wait
	// for at least one without releasing the handler.
	select {
	case err := <-results:
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("first completed call got %v, want ErrOverloaded (worker is parked)", err)
		}
		results <- err // put it back for the tally
	case <-time.After(10 * time.Second):
		t.Fatal("no shed reply while the pool was saturated — reader stalled instead of shedding")
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
	snap := tr.Stats()
	if snap.Shed != uint64(overloaded) {
		t.Fatalf("stats.Shed=%d, but %d calls saw ErrOverloaded", snap.Shed, overloaded)
	}
	if snap.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain, want 0", snap.QueueDepth)
	}
	if snap.QueueWaited == 0 {
		t.Fatal("no queue-wait samples recorded for admitted requests")
	}
}

// TestOverloadErrorMapping pins the wire contract: a shed reply decodes
// back to ErrOverloaded through AsError, on zero-copy and copy-decoded
// messages alike.
func TestOverloadErrorMapping(t *testing.T) {
	req := &wire.Message{Kind: wire.KindRequest, ID: 9, Method: "m", Target: "t"}
	resp := OverloadResponse(req)
	if resp.Kind != wire.KindError || resp.ID != req.ID {
		t.Fatalf("OverloadResponse = %+v", resp)
	}
	err := AsError(resp)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("AsError(OverloadResponse) = %v, want ErrOverloaded", err)
	}
	// Round-trip through the wire, then release the slab before using
	// the error: its text must have been copied out.
	data, _ := resp.Marshal()
	buf := append(wire.GetBufferSize(len(data)), data...)
	decoded, derr := wire.UnmarshalMessageSlab(buf)
	if derr != nil {
		t.Fatal(derr)
	}
	err = AsError(decoded)
	decoded.Release()
	if !errors.Is(err, ErrOverloaded) || err.Error() == "" {
		t.Fatalf("decoded shed reply maps to %v", err)
	}
	_ = err.Error() // must not read released slab memory (caught by -race/asan if it did)
}

// TestZeroCopyResponses exercises the opt-in client-side slab decode:
// responses are slab-backed, field-correct, and releasable.
func TestZeroCopyResponses(t *testing.T) {
	tr := NewTCP()
	tr.ZeroCopyResponses = true
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
	for i := 0; i < 50; i++ {
		resp, err := ep.Call(&wire.Message{Kind: wire.KindRequest, ID: uint64(i), Body: []byte("zc")})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.ZeroCopy() {
			t.Fatal("response is not slab-backed with ZeroCopyResponses on")
		}
		if resp.ID != uint64(i) || string(resp.Body) != "echo:zc" {
			t.Fatalf("resp = %+v", resp)
		}
		resp.Release()
	}
}

// TestDefaultWorkersTracksGOMAXPROCS pins the Serve-time sizing fix: a
// GOMAXPROCS change after package init must be reflected in the pool
// size of listeners created afterwards.
func TestDefaultWorkersTracksGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	runtime.GOMAXPROCS(old + 2)
	if got, want := DefaultWorkers(), 4*(old+2); got != want {
		t.Fatalf("DefaultWorkers() = %d after GOMAXPROCS(%d), want %d", got, old+2, want)
	}
	runtime.GOMAXPROCS(old)
	if got, want := DefaultWorkers(), 4*old; got != want {
		t.Fatalf("DefaultWorkers() = %d after restore, want %d", got, want)
	}
}
