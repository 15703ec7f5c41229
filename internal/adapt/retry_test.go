package adapt_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"partsvc/internal/adapt"
	"partsvc/internal/smock"
	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

func serveFn(t *testing.T, tr transport.Transport, fn func(*wire.Message) *wire.Message) transport.Listener {
	t.Helper()
	ln, err := tr.Serve("", transport.HandlerFunc(fn))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

func okHandler(calls *atomic.Int64) func(*wire.Message) *wire.Message {
	return func(m *wire.Message) *wire.Message {
		calls.Add(1)
		return &wire.Message{Kind: wire.KindResponse, ID: m.ID, Meta: map[string]string{"ok": "1"}}
	}
}

// quick makes the backoffs of a retry test negligible on the real clock.
func quick(cfg adapt.RetryConfig) adapt.RetryConfig {
	cfg.BackoffMS = 1
	return cfg
}

// TestRebindSurvivesListenerDeath: the bound target dies, the resolver
// starts answering with a replacement, and the next call lands there
// after transparent re-resolution — the client never sees the failure.
func TestRebindSurvivesListenerDeath(t *testing.T) {
	tr := transport.NewInProc()
	var aCalls, bCalls atomic.Int64
	lnA := serveFn(t, tr, okHandler(&aCalls))
	lnB := serveFn(t, tr, okHandler(&bCalls))
	current := lnA.Addr()
	reb := adapt.NewRebindEndpoint(tr, func() (string, error) { return current, nil },
		quick(adapt.RetryConfig{MaxAttempts: 4}))
	defer reb.Close()

	if _, err := reb.Call(&wire.Message{Kind: wire.KindRequest, ID: 1, Method: "ping"}); err != nil {
		t.Fatalf("first call: %v", err)
	}
	lnA.Close()
	current = lnB.Addr()
	if _, err := reb.Call(&wire.Message{Kind: wire.KindRequest, ID: 2, Method: "ping"}); err != nil {
		t.Fatalf("call after target death: %v", err)
	}
	if aCalls.Load() != 1 || bCalls.Load() != 1 {
		t.Fatalf("calls = A:%d B:%d, want 1 each", aCalls.Load(), bCalls.Load())
	}
	if reb.Addr() != lnB.Addr() {
		t.Fatalf("bound addr = %q, want the replacement %q", reb.Addr(), lnB.Addr())
	}
}

// TestRebindRetriesTransientErrorResponse: an application-level error
// response that wraps a transport failure (a live relay whose upstream
// died) is retried like a transport error; re-resolution fixes it.
func TestRebindRetriesTransientErrorResponse(t *testing.T) {
	tr := transport.NewInProc()
	var calls atomic.Int64
	ln := serveFn(t, tr, func(m *wire.Message) *wire.Message {
		if calls.Add(1) <= 2 {
			return transport.ErrorResponse(m, "relay: %s", transport.ErrClosed)
		}
		return &wire.Message{Kind: wire.KindResponse, ID: m.ID}
	})
	reb := adapt.NewRebindEndpoint(tr, func() (string, error) { return ln.Addr(), nil },
		quick(adapt.RetryConfig{MaxAttempts: 5}))
	defer reb.Close()

	resp, err := reb.Call(&wire.Message{Kind: wire.KindRequest, ID: 1, Method: "flush"})
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if appErr := transport.AsError(resp); appErr != nil {
		t.Fatalf("final response is still an error: %v", appErr)
	}
	if calls.Load() != 3 {
		t.Fatalf("handler called %d times, want 3 (two transient failures + success)", calls.Load())
	}
}

// TestRebindDoesNotRetryApplicationError: a genuine application error
// proves the service is reachable; retrying it would duplicate a
// request that already executed.
func TestRebindDoesNotRetryApplicationError(t *testing.T) {
	tr := transport.NewInProc()
	var calls atomic.Int64
	ln := serveFn(t, tr, func(m *wire.Message) *wire.Message {
		calls.Add(1)
		return transport.ErrorResponse(m, "mail: no such account %q", "mallory")
	})
	reb := adapt.NewRebindEndpoint(tr, func() (string, error) { return ln.Addr(), nil },
		quick(adapt.RetryConfig{MaxAttempts: 5}))
	defer reb.Close()

	resp, err := reb.Call(&wire.Message{Kind: wire.KindRequest, ID: 1, Method: "send"})
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if appErr := transport.AsError(resp); appErr == nil || !strings.Contains(appErr.Error(), "no such account") {
		t.Fatalf("application error must pass through, got %v", appErr)
	}
	if calls.Load() != 1 {
		t.Fatalf("handler called %d times, want 1 (no retry)", calls.Load())
	}
}

// TestRebindSetAddrFlips: a controller-pushed address takes effect on
// the next call without any failure in between.
func TestRebindSetAddrFlips(t *testing.T) {
	tr := transport.NewInProc()
	var aCalls, bCalls atomic.Int64
	lnA := serveFn(t, tr, okHandler(&aCalls))
	lnB := serveFn(t, tr, okHandler(&bCalls))
	reb := adapt.NewRebindEndpoint(tr, func() (string, error) { return lnA.Addr(), nil },
		quick(adapt.RetryConfig{}))
	defer reb.Close()

	if _, err := reb.Call(&wire.Message{Kind: wire.KindRequest, ID: 1}); err != nil {
		t.Fatal(err)
	}
	reb.SetAddr(lnB.Addr())
	if _, err := reb.Call(&wire.Message{Kind: wire.KindRequest, ID: 2}); err != nil {
		t.Fatal(err)
	}
	if aCalls.Load() != 1 || bCalls.Load() != 1 {
		t.Fatalf("calls = A:%d B:%d, want 1 each after the flip", aCalls.Load(), bCalls.Load())
	}
}

// TestRebindExhaustsAttemptsWithBackoff: when nothing answers and
// nobody flips the endpoint, the budget is spent with doubling backoff
// on the real clock and the last error surfaces.
func TestRebindExhaustsAttemptsWithBackoff(t *testing.T) {
	tr := transport.NewInProc()
	var attempts atomic.Int64
	reb := adapt.NewRebindEndpoint(tr, func() (string, error) { attempts.Add(1); return "inproc-nowhere", nil },
		adapt.RetryConfig{MaxAttempts: 3, BackoffMS: 10})
	defer reb.Close()

	start := time.Now()
	_, err := reb.Call(&wire.Message{Kind: wire.KindRequest, ID: 1})
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "3 attempts failed") {
		t.Fatalf("err = %v, want attempt-budget failure", err)
	}
	if attempts.Load() != 3 {
		t.Fatalf("resolved %d times, want one resolution per attempt (3)", attempts.Load())
	}
	if elapsed < 30*time.Millisecond {
		t.Fatalf("3 attempts took %v, want at least the 10+20 ms of backoff", elapsed)
	}
}

// countingTransport counts what its endpoints go through: calls that
// failed at the transport level, and closes. onFailedCall, when set,
// runs inside a failing call before it returns to the retry loop.
type countingTransport struct {
	transport.Transport
	failedCalls, closes atomic.Int64
	onFailedCall        func()
}

type countingEndpoint struct {
	transport.Endpoint
	tr *countingTransport
}

func (c *countingTransport) Dial(addr string) (transport.Endpoint, error) {
	ep, err := c.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &countingEndpoint{Endpoint: ep, tr: c}, nil
}

func (e *countingEndpoint) Call(m *wire.Message) (*wire.Message, error) {
	return e.CallContext(context.Background(), m)
}

func (e *countingEndpoint) CallContext(ctx context.Context, m *wire.Message) (*wire.Message, error) {
	resp, err := e.Endpoint.CallContext(ctx, m)
	if err != nil {
		e.tr.failedCalls.Add(1)
		if e.tr.onFailedCall != nil {
			e.tr.onFailedCall()
		}
	}
	return resp, err
}

func (e *countingEndpoint) Close() error { e.tr.closes.Add(1); return e.Endpoint.Close() }

// deadThenFlipped builds a rebind endpoint whose resolver only ever
// answers with a dead address (an endpoint nobody re-registers: only a
// flip can save its callers) and a live listener to flip it to.
func deadThenFlipped(t *testing.T, cfg adapt.RetryConfig) (reb *adapt.RebindEndpoint, live transport.Listener, tr *countingTransport, served *atomic.Int64) {
	t.Helper()
	tr = &countingTransport{Transport: transport.NewInProc()}
	served = new(atomic.Int64)
	live = serveFn(t, tr, okHandler(served))
	reb = adapt.NewRebindEndpoint(tr, func() (string, error) { return "inproc-nowhere", nil }, cfg)
	t.Cleanup(func() { reb.Close() })
	return reb, live, tr, served
}

// TestRebindFlipWakesParkedCall: a call parked in a 10 s backoff
// returns within milliseconds of SetAddr, served by the new address.
func TestRebindFlipWakesParkedCall(t *testing.T) {
	reb, live, tr, served := deadThenFlipped(t, adapt.RetryConfig{MaxAttempts: 3, BackoffMS: 10_000})
	done := make(chan error, 1)
	go func() {
		_, err := reb.Call(&wire.Message{Kind: wire.KindRequest, ID: 1})
		done <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return tr.failedCalls.Load() >= 1 }, "timed out waiting for the first attempt to fail")
	time.Sleep(20 * time.Millisecond) // let the caller reach its park
	flip := time.Now()
	reb.SetAddr(live.Addr())
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("call after flip: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the parked call slept through the flip")
	}
	if woke := time.Since(flip); woke > 250*time.Millisecond {
		t.Errorf("parked call returned %v after SetAddr, want milliseconds", woke)
	}
	if served.Load() != 1 {
		t.Errorf("new address served %d calls, want 1", served.Load())
	}
}

// TestRebindFlipWakesEveryParkedCaller: 32 callers parked on one
// endpoint all wake on a single flip.
func TestRebindFlipWakesEveryParkedCaller(t *testing.T) {
	const callers = 32
	reb, live, tr, served := deadThenFlipped(t, adapt.RetryConfig{MaxAttempts: 3, BackoffMS: 10_000})
	done := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			_, err := reb.Call(&wire.Message{Kind: wire.KindRequest, ID: uint64(i + 1)})
			done <- err
		}(i)
	}
	waitFor(t, 5*time.Second, func() bool { return tr.failedCalls.Load() >= callers }, "timed out waiting for every caller's first attempt to fail")
	time.Sleep(20 * time.Millisecond)
	reb.SetAddr(live.Addr())
	for i := 0; i < callers; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("caller after flip: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d parked callers woke on the flip", i, callers)
		}
	}
	if served.Load() != callers {
		t.Errorf("new address served %d calls, want %d", served.Load(), callers)
	}
}

// TestRebindFlipInFailureWindowIsNotLost: a flip that lands after an
// attempt began failing but before the caller parked must still end the
// wait. First deterministically — the doomed call itself performs the
// flip before it returns its error, squarely inside the window — then
// with a second goroutine racing SetAddr against the failure.
func TestRebindFlipInFailureWindowIsNotLost(t *testing.T) {
	run := func(i int, flipInside bool) {
		tr := &countingTransport{Transport: transport.NewInProc()}
		var served atomic.Int64
		live := serveFn(t, tr, okHandler(&served))
		reb := adapt.NewRebindEndpoint(tr, func() (string, error) { return "inproc-nowhere", nil },
			adapt.RetryConfig{MaxAttempts: 2, BackoffMS: 10_000})
		defer reb.Close()
		defer live.Close()
		var once sync.Once
		flip := func() { once.Do(func() { reb.SetAddr(live.Addr()) }) }
		if flipInside {
			tr.onFailedCall = flip
		}
		done := make(chan error, 1)
		go func() {
			_, err := reb.Call(&wire.Message{Kind: wire.KindRequest, ID: 1})
			done <- err
		}()
		if !flipInside {
			for spin := 0; spin < i%64; spin++ {
				runtime.Gosched()
			}
			flip()
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("iteration %d (flip inside the failing call: %v): the flip was lost and the caller slept on", i, flipInside)
		}
		if served.Load() != 1 {
			t.Fatalf("iteration %d: new address served %d calls, want 1", i, served.Load())
		}
	}
	for i := 0; i < 50; i++ {
		run(i, true)
	}
	for i := 0; i < 500; i++ {
		run(i, false)
	}
}

// TestRebindSetAddrUnchangedWakesNobody: pushing the address the
// endpoint is already bound to is not a flip — it closes nothing and a
// caller parked beside a healthy binding stays parked; a real flip then
// wakes it.
func TestRebindSetAddrUnchangedWakesNobody(t *testing.T) {
	tr := &countingTransport{Transport: transport.NewInProc()}
	var failed, healthy, moved atomic.Int64
	// The bound target relays a dead upstream for "flush" only.
	lnA := serveFn(t, tr, func(m *wire.Message) *wire.Message {
		if m.Method == "flush" {
			failed.Add(1)
			return transport.ErrorResponse(m, "relay: %s", transport.ErrClosed)
		}
		return okHandler(&healthy)(m)
	})
	lnB := serveFn(t, tr, okHandler(&moved))
	reb := adapt.NewRebindEndpoint(tr, func() (string, error) { return lnA.Addr(), nil },
		adapt.RetryConfig{MaxAttempts: 2, BackoffMS: 10_000})
	defer reb.Close()

	done := make(chan error, 1)
	go func() {
		_, err := reb.Call(&wire.Message{Kind: wire.KindRequest, ID: 1, Method: "flush"})
		done <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return failed.Load() == 1 }, "timed out waiting for the flush to fail")
	waitFor(t, 5*time.Second, func() bool { return reb.Addr() == "" }, "timed out waiting for the failed binding to be dropped")
	// A healthy call re-binds the endpoint to the same address.
	if _, err := reb.Call(&wire.Message{Kind: wire.KindRequest, ID: 2, Method: "ping"}); err != nil {
		t.Fatal(err)
	}
	closesBefore := tr.closes.Load()

	reb.SetAddr(lnA.Addr())
	select {
	case err := <-done:
		t.Fatalf("an unchanged SetAddr woke the parked caller (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	if got := tr.closes.Load(); got != closesBefore {
		t.Errorf("an unchanged SetAddr closed %d endpoint(s)", got-closesBefore)
	}
	if _, err := reb.Call(&wire.Message{Kind: wire.KindRequest, ID: 3, Method: "ping"}); err != nil {
		t.Fatal(err)
	}
	if healthy.Load() != 2 || failed.Load() != 1 {
		t.Errorf("target saw %d healthy and %d failing calls, want 2 and 1", healthy.Load(), failed.Load())
	}

	reb.SetAddr(lnB.Addr())
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("parked caller after the real flip: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the real flip did not wake the parked caller")
	}
	if moved.Load() != 1 {
		t.Errorf("new address served %d calls, want the woken flush", moved.Load())
	}
}

// TestRebindUnflippedRecoversOnTimer: an endpoint nobody binds to a
// session chases the lookup on its own — the timer fallback — with the
// attempt budget unchanged: the entry is repointed while the caller
// waits, and the retry that finds it is attempt 3 of 4.
func TestRebindUnflippedRecoversOnTimer(t *testing.T) {
	tr := transport.NewInProc()
	var served atomic.Int64
	live := serveFn(t, tr, okHandler(&served))
	lookup := smock.NewLookup()
	const service = "mail-head"
	if err := lookup.Register(smock.Entry{Service: service, ServerAddr: "inproc-nowhere"}); err != nil {
		t.Fatal(err)
	}
	// The entry is repointed right after the second resolution read the
	// dead address, so the third attempt is the first that can succeed.
	var attempts atomic.Int64
	resolve := adapt.LookupResolver(lookup, service)
	reb := adapt.NewRebindEndpoint(tr, func() (string, error) {
		addr, err := resolve()
		if attempts.Add(1) == 2 {
			_ = lookup.Register(smock.Entry{Service: service, ServerAddr: live.Addr()})
		}
		return addr, err
	}, adapt.RetryConfig{MaxAttempts: 4, BackoffMS: 10})
	defer reb.Close()

	start := time.Now()
	if _, err := reb.Call(&wire.Message{Kind: wire.KindRequest, ID: 1}); err != nil {
		t.Fatalf("call: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("recovered after %v: the retries must have waited out the 10+20 ms timers", elapsed)
	}
	if attempts.Load() != 3 || served.Load() != 1 {
		t.Errorf("resolved %d times and served %d calls, want 3 and 1", attempts.Load(), served.Load())
	}

	// And with nothing to find, the same budget is spent and no more.
	attempts.Store(2) // past the repointing above
	if err := lookup.Register(smock.Entry{Service: service, ServerAddr: "inproc-nowhere"}); err != nil {
		t.Fatal(err)
	}
	live.Close()
	if _, err := reb.Call(&wire.Message{Kind: wire.KindRequest, ID: 2}); err == nil || !strings.Contains(err.Error(), "4 attempts failed") {
		t.Fatalf("err = %v, want the 4-attempt budget exhausted", err)
	}
}

// TestRebindCancelEndsWait: cancelling the context ends a parked call
// with ctx.Err().
func TestRebindCancelEndsWait(t *testing.T) {
	reb, _, tr, _ := deadThenFlipped(t, adapt.RetryConfig{MaxAttempts: 3, BackoffMS: 10_000})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := reb.CallContext(ctx, &wire.Message{Kind: wire.KindRequest, ID: 1})
		done <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return tr.failedCalls.Load() >= 1 }, "timed out waiting for the first attempt to fail")
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not end the backoff wait")
	}
	if got := tr.failedCalls.Load(); got != 1 {
		t.Errorf("%d attempts after cancellation, want 1", got)
	}
}

// TestTransient classifies transport-ish failures as retryable and
// everything else as not.
func TestTransient(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{nil, false},
		{transport.ErrClosed, true},
		{transport.ErrNoSuchAddr, true},
		{transport.ErrCallTimeout, true},
		{fmt.Errorf("relay: %w", transport.ErrClosed), true},
		{errors.New("dial tcp 127.0.0.1:9: connection refused"), true},
		{errors.New("read: connection reset by peer"), true},
		{errors.New("mail: view flush: relay: transport: closed"), true},
		{errors.New("mail: no such account"), false},
		{errors.New("planner: no feasible deployment"), false},
	} {
		if got := adapt.Transient(tc.err); got != tc.want {
			t.Errorf("Transient(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestTransportProber: a healthy wrapper-style status handler passes,
// an impostor answering as the wrong node fails, and a dead address
// fails.
func TestTransportProber(t *testing.T) {
	tr := transport.NewInProc()
	ln := serveFn(t, tr, func(m *wire.Message) *wire.Message {
		if m.Method != "status" {
			return transport.ErrorResponse(m, "unexpected method %q", m.Method)
		}
		return &wire.Message{Kind: wire.KindResponse, ID: m.ID, Meta: map[string]string{"node": "x"}}
	})
	p := adapt.NewTransportProber(tr)
	if err := p.Probe("x", ln.Addr(), 500); err != nil {
		t.Fatalf("probe of live node: %v", err)
	}
	if err := p.Probe("y", ln.Addr(), 500); err == nil {
		t.Fatal("probe must fail when the responder identifies as a different node")
	}
	if err := p.Probe("x", "inproc-nowhere", 500); err == nil {
		t.Fatal("probe of a dead address must fail")
	}
}

// TestTransportProberOverloadedIsAlive: a shed (ErrOverloaded) reply is
// proof of life — the node's admission control answered — so it must
// not count as a suspicion strike, while ordinary errors still do.
func TestTransportProberOverloadedIsAlive(t *testing.T) {
	tr := transport.NewInProc()
	ln := serveFn(t, tr, func(m *wire.Message) *wire.Message {
		return transport.OverloadResponse(m)
	})
	p := adapt.NewTransportProber(tr)
	if err := p.Probe("x", ln.Addr(), 500); err != nil {
		t.Fatalf("probe of an overloaded-but-alive node must pass, got %v", err)
	}
	lnErr := serveFn(t, tr, func(m *wire.Message) *wire.Message {
		return transport.ErrorResponse(m, "wrapper on fire")
	})
	if err := p.Probe("x", lnErr.Addr(), 500); err == nil {
		t.Fatal("a genuine error reply must still count as a probe failure")
	}
}

// TestRebindRefusesUpgrade: what a rebind endpoint is bound to changes
// with every cutover, so it answers the co-location handshake "not
// upgraded" itself — even when its current target would accept — and
// never resolves, dials or reaches a handler for it.
func TestRebindRefusesUpgrade(t *testing.T) {
	tr := transport.NewTCP()
	var calls atomic.Int64
	ln := serveFn(t, tr, okHandler(&calls))
	transport.TagNode(ln, "sd-2")
	reb := adapt.NewRebindEndpoint(tr, func() (string, error) { return ln.Addr(), nil },
		quick(adapt.RetryConfig{}))
	defer reb.Close()
	if transport.Upgrade(reb, "sd-2") {
		t.Error("rebind endpoint upgraded before its first bind")
	}
	if reb.Addr() != "" {
		t.Errorf("the handshake bound the endpoint to %q", reb.Addr())
	}
	if _, err := reb.Call(&wire.Message{Kind: wire.KindRequest, ID: 1}); err != nil {
		t.Fatal(err)
	}
	if transport.Upgrade(reb, "sd-2") {
		t.Error("rebind endpoint upgraded through a co-located target")
	}
	if _, err := reb.Call(&wire.Message{Kind: wire.KindRequest, ID: 2}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Stats(); got.LocalCalls != 0 || calls.Load() != 2 {
		t.Errorf("%d local calls, handler saw %d requests; want 0 and 2", got.LocalCalls, calls.Load())
	}
}
