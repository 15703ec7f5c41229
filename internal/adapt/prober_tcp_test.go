package adapt_test

import (
	"testing"

	"partsvc/internal/adapt"
	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

// TestTransportProberOverTCP: liveness probes over real sockets — a
// healthy node passes, a shed reply still counts as proof of life, and
// a closed listener fails. The prober dials fresh per probe, so each
// probe opens its own connection.
func TestTransportProberOverTCP(t *testing.T) {
	tr := transport.NewTCP()
	ln := serveFn(t, tr, func(m *wire.Message) *wire.Message {
		if m.Method != "status" {
			return transport.ErrorResponse(m, "unexpected method %q", m.Method)
		}
		return &wire.Message{Kind: wire.KindResponse, ID: m.ID, Meta: map[string]string{"node": "x"}}
	})
	p := adapt.NewTransportProber(tr)
	if err := p.Probe("x", ln.Addr(), 2000); err != nil {
		t.Fatalf("probe over TCP: %v", err)
	}
	overloaded := serveFn(t, tr, func(m *wire.Message) *wire.Message {
		return transport.OverloadResponse(m)
	})
	if err := p.Probe("x", overloaded.Addr(), 2000); err != nil {
		t.Fatalf("overloaded-but-alive node over TCP must pass, got %v", err)
	}
	ln.Close()
	if err := p.Probe("x", ln.Addr(), 500); err == nil {
		t.Fatal("probe of a closed listener must fail")
	}
}
