package adapt_test

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"partsvc/internal/adapt"
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

// noSleep makes retry tests instant.
func noSleep(cfg adapt.RetryConfig) adapt.RetryConfig {
	cfg.Sleep = func(float64) {}
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
		noSleep(adapt.RetryConfig{MaxAttempts: 4}))
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
		noSleep(adapt.RetryConfig{MaxAttempts: 5}))
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
		noSleep(adapt.RetryConfig{MaxAttempts: 5}))
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
		noSleep(adapt.RetryConfig{}))
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

// TestRebindExhaustsAttemptsWithBackoff: when nothing answers, the
// budget is spent with doubling backoff and the last error surfaces.
func TestRebindExhaustsAttemptsWithBackoff(t *testing.T) {
	tr := transport.NewInProc()
	var sleeps []float64
	reb := adapt.NewRebindEndpoint(tr, func() (string, error) { return "inproc-nowhere", nil },
		adapt.RetryConfig{MaxAttempts: 3, BackoffMS: 10, Sleep: func(ms float64) { sleeps = append(sleeps, ms) }})
	defer reb.Close()

	_, err := reb.Call(&wire.Message{Kind: wire.KindRequest, ID: 1})
	if err == nil || !strings.Contains(err.Error(), "3 attempts failed") {
		t.Fatalf("err = %v, want attempt-budget failure", err)
	}
	if fmt.Sprint(sleeps) != "[10 20]" {
		t.Fatalf("backoff sleeps = %v, want [10 20]", sleeps)
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
		noSleep(adapt.RetryConfig{}))
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
