package adapt

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"partsvc/internal/metrics"
	"partsvc/internal/smock"
	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

// Flippable is a client binding the controller can repoint at a new
// head address during a cutover (Figure 1's "replaces itself with a
// service-specific proxy", made repeatable).
type Flippable interface {
	SetAddr(addr string)
}

// RetryConfig tunes the rebind endpoint's failure handling.
type RetryConfig struct {
	// MaxAttempts bounds the total tries per call (default 4).
	MaxAttempts int
	// BackoffMS is the longest wait before the first retry (default
	// 10ms); each subsequent retry doubles it. A SetAddr ends the wait
	// early.
	BackoffMS float64
}

// Transient reports whether an error (possibly an application response
// wrapping a relay's upstream failure) looks like a connectivity
// problem that re-resolving and retrying can fix, rather than a real
// application error. A request can reach a live relay whose own
// upstream died mid-cutover; the failure comes back as an error
// *response*, not a transport error, but rebinding still fixes it.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	msg := err.Error()
	for _, marker := range []string{
		"transport: ", // every transport sentinel (closed, no such address, timeout)
		"connection refused", "connection reset", "broken pipe",
		"use of closed network connection", "i/o timeout", "EOF",
	} {
		if strings.Contains(msg, marker) {
			return true
		}
	}
	return false
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BackoffMS <= 0 {
		c.BackoffMS = 10
	}
	return c
}

// RebindEndpoint is a transport.Endpoint that survives reconfiguration:
// a call that fails at the transport level (closed listener, vanished
// address, timeout) is retried with exponential backoff, re-resolving
// the target address each time — against the lookup service, or
// whatever the resolve function consults — and redialing. Application
// errors (KindError responses) are never retried; they already prove
// the service is reachable. The semantics during a cutover are
// therefore at-least-once: a request that died mid-flight may execute
// twice on the new instance.
//
// It also implements Flippable, so an adaptation controller can push
// the new head address instead of waiting for a failure to trigger
// re-resolution. The push is also the wake-up: a call waiting out its
// backoff retries the moment SetAddr lands, so a cutover's flip — not
// the next retry slot — ends a stalled request. The timer remains the
// fallback for endpoints nobody flips.
type RebindEndpoint struct {
	tr      transport.Transport
	resolve func() (string, error)
	cfg     RetryConfig
	retries *metrics.Counter
	rebinds *metrics.Counter

	mu   sync.Mutex
	addr string
	ep   transport.Endpoint
	// flipped is closed, and replaced, by every SetAddr that changes the
	// address. A call captures it before an attempt and waits on it after
	// the attempt failed, so a flip at any point in between is seen as an
	// already-closed channel — no wake-up is ever lost.
	flipped chan struct{}
}

// NewRebindEndpoint returns a rebind endpoint that dials addresses from
// resolve on demand. resolve is consulted lazily — before the first
// call and after every transport-level failure.
func NewRebindEndpoint(tr transport.Transport, resolve func() (string, error), cfg RetryConfig) *RebindEndpoint {
	return &RebindEndpoint{
		tr: tr, resolve: resolve, cfg: cfg.withDefaults(),
		retries: metrics.DefaultRegistry.Counter("adapt.retries"),
		rebinds: metrics.DefaultRegistry.Counter("adapt.rebinds"),
		flipped: make(chan struct{}),
	}
}

// SetAddr implements Flippable: the next call dials addr, and every
// call waiting out a backoff retries at once. Pushing the address the
// endpoint is already bound to changes nothing and wakes nobody.
func (r *RebindEndpoint) SetAddr(addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if addr == r.addr {
		return
	}
	if r.ep != nil {
		r.ep.Close()
		r.ep = nil
	}
	r.addr = addr
	close(r.flipped)
	r.flipped = make(chan struct{})
}

// park waits out one backoff: until flipped closes (the address changed
// since the failed attempt began), the timer fires, or ctx ends.
func park(ctx context.Context, flipped <-chan struct{}, ms float64) error {
	t := time.NewTimer(time.Duration(ms * float64(time.Millisecond)))
	defer t.Stop()
	select {
	case <-flipped:
	case <-t.C:
	case <-ctx.Done():
		return ctx.Err()
	}
	return nil
}

// Addr returns the currently bound address ("" before the first call).
func (r *RebindEndpoint) Addr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.addr
}

// drop discards a failed endpoint so the next attempt re-resolves, but
// only if no concurrent SetAddr or rebind replaced it already.
func (r *RebindEndpoint) drop(failed transport.Endpoint) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ep == failed {
		r.ep.Close()
		r.ep = nil
		r.addr = ""
	}
}

// endpoint returns the live endpoint, resolving and dialing as needed,
// together with the channel the next address change will close —
// captured under the same lock, before the attempt that uses the
// endpoint: see park.
func (r *RebindEndpoint) endpoint() (transport.Endpoint, <-chan struct{}, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ep != nil {
		return r.ep, r.flipped, nil
	}
	if r.addr == "" {
		addr, err := r.resolve()
		if err != nil {
			return nil, r.flipped, fmt.Errorf("adapt: resolving target: %w", err)
		}
		r.addr = addr
	}
	ep, err := r.tr.Dial(r.addr)
	if err != nil {
		r.addr = "" // the resolved address is bad; re-resolve next time
		return nil, r.flipped, err
	}
	r.ep = ep
	return ep, r.flipped, nil
}

// Call implements transport.Endpoint.
func (r *RebindEndpoint) Call(m *wire.Message) (*wire.Message, error) {
	return r.CallContext(context.Background(), m)
}

// CallContext implements transport.Endpoint with the retry
// loop: transport-level failures re-resolve, redial, and try again —
// after the backoff or as soon as SetAddr repoints the endpoint — until
// the attempt budget or the context runs out. A co-location
// handshake is refused: the endpoint behind this one changes with every
// rebind, so no linkage through it is fixed to one node.
func (r *RebindEndpoint) CallContext(ctx context.Context, m *wire.Message) (*wire.Message, error) {
	if refusal := transport.RefuseUpgrade(m); refusal != nil {
		return refusal, nil
	}
	var lastErr error
	var flipped <-chan struct{}
	backoff := r.cfg.BackoffMS
	for attempt := 0; attempt < r.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			r.retries.Inc()
			if err := park(ctx, flipped, backoff); err != nil {
				return nil, err
			}
			backoff *= 2
			r.rebinds.Inc()
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var ep transport.Endpoint
		var err error
		ep, flipped, err = r.endpoint()
		if err != nil {
			lastErr = err
			continue
		}
		resp, err := ep.CallContext(ctx, m)
		if err == nil {
			// A live target can still relay a dead upstream's failure back
			// as an error response; those rebind and retry like transport
			// errors. Genuine application errors return immediately.
			if appErr := transport.AsError(resp); appErr != nil && Transient(appErr) {
				lastErr = appErr
				r.drop(ep)
				continue
			}
			return resp, nil
		}
		lastErr = err
		r.drop(ep)
	}
	return nil, fmt.Errorf("adapt: %d attempts failed: %w", r.cfg.MaxAttempts, lastErr)
}

// Close implements transport.Endpoint.
func (r *RebindEndpoint) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ep != nil {
		err := r.ep.Close()
		r.ep = nil
		return err
	}
	return nil
}

// LookupResolver returns a resolve function that re-Finds service in
// the lookup on every resolution — the standard way a rebind endpoint
// chases a service's head address across cutovers.
func LookupResolver(l *smock.Lookup, service string) func() (string, error) {
	return func() (string, error) {
		entries := l.Find(service, nil)
		if len(entries) == 0 {
			return "", fmt.Errorf("adapt: no %q entry in lookup", service)
		}
		return entries[0].ServerAddr, nil
	}
}
