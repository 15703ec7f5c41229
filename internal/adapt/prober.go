package adapt

import (
	"context"
	"errors"
	"fmt"
	"time"

	"partsvc/internal/netmodel"
	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

// Prober checks whether a node answers on its wrapper control address.
// A nil error means the node is alive; any error is one strike toward
// the suspicion threshold.
type Prober interface {
	Probe(node netmodel.NodeID, addr string, timeoutMS float64) error
}

// TransportProber probes by sending a "status" request to the wrapper
// control address over a real transport. It dials fresh per probe:
// reusing a pooled connection would let a probe succeed against a
// kernel buffer long after the process died.
type TransportProber struct{ tr transport.Transport }

// NewTransportProber probes over tr.
func NewTransportProber(tr transport.Transport) *TransportProber {
	return &TransportProber{tr: tr}
}

// Probe implements Prober.
func (p *TransportProber) Probe(node netmodel.NodeID, addr string, timeoutMS float64) error {
	ep, err := p.tr.Dial(addr)
	if err != nil {
		return err
	}
	defer ep.Close()
	ctx := context.Background()
	if timeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(timeoutMS*float64(time.Millisecond)))
		defer cancel()
	}
	resp, err := ep.CallContext(ctx, &wire.Message{Kind: wire.KindRequest, ID: 1, Method: "status"})
	if err != nil {
		return err
	}
	if err := transport.AsError(resp); err != nil {
		// A shed reply is proof of life: the wrapper's admission control
		// answered from its own reader because the worker pool is
		// saturated. Counting it as a strike would turn transient
		// overload into suspicion, eviction, and a pointless migration
		// storm — exactly when the node can least afford one.
		if errors.Is(err, transport.ErrOverloaded) {
			return nil
		}
		return err
	}
	if got := resp.Meta["node"]; got != string(node) {
		return fmt.Errorf("adapt: probe of %s answered as %q", node, got)
	}
	return nil
}

// ProberFunc adapts a function to the Prober interface (simulation
// models and tests).
type ProberFunc func(node netmodel.NodeID, addr string, timeoutMS float64) error

// Probe implements Prober.
func (f ProberFunc) Probe(node netmodel.NodeID, addr string, timeoutMS float64) error {
	return f(node, addr, timeoutMS)
}
