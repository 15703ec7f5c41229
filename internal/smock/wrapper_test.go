package smock

import (
	"bytes"
	"sync/atomic"
	"testing"

	"partsvc/internal/property"
	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

// FuzzInstallOrder throws arbitrary bytes at the install-order decoder:
// it must never panic, and every order it accepts must re-encode to
// exactly the bytes it was decoded from.
func FuzzInstallOrder(f *testing.F) {
	f.Add(appendInstallOrder(nil, &InstallOrder{Component: "Echo", InstanceID: "Echo@n1#1"}))
	f.Add(appendInstallOrder(nil, &InstallOrder{
		Component:  "ViewMailServer",
		InstanceID: "ViewMailServer@sd-2#3",
		Config: property.Set{
			"TrustLevel": property.Int(4), "Flag": property.Bool(false),
			"User": property.Str("42"), "Mode": property.Str("T"),
		},
		State:           []byte("snapshot"),
		Upstreams:       map[string]string{"B": "addr-b", "A": "addr-a"},
		UpstreamSecrets: map[string][]byte{"A": {1, 2, 3}},
		ServeSecret:     []byte{9, 9},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := decodeInstallOrder(data)
		if err != nil {
			return
		}
		if re := appendInstallOrder(nil, &o); !bytes.Equal(re, data) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", re, data)
		}
	})
}

// openCounter is an in-process transport that counts the endpoints
// dialed through it and not yet closed.
type openCounter struct {
	*transport.InProc
	open atomic.Int64
}

func (t *openCounter) Dial(addr string) (transport.Endpoint, error) {
	ep, err := t.InProc.Dial(addr)
	if err != nil {
		return nil, err
	}
	t.open.Add(1)
	return &countedEndpoint{Endpoint: ep, t: t}, nil
}

type countedEndpoint struct {
	transport.Endpoint
	t *openCounter
}

func (e *countedEndpoint) Close() error { e.t.open.Add(-1); return e.Endpoint.Close() }

// TestUninstallClosesUpstreamEndpoints: the endpoints Install dials to an
// instance's providers belong to the wrapper. Uninstall and Close
// release them after the listener, and a failed install releases what
// it dialed; over TCP each one left open is a connection, two
// goroutines and the peer's server side.
func TestUninstallClosesUpstreamEndpoints(t *testing.T) {
	tr := &openCounter{InProc: transport.NewInProc()}
	reg := NewRegistry()
	echo := transport.HandlerFunc(func(m *wire.Message) *wire.Message {
		return &wire.Message{Kind: wire.KindResponse, ID: m.ID, Body: m.Body}
	})
	for _, name := range []string{"Up", "Down"} {
		if err := reg.Register(name, func(*ActivationContext) (transport.Handler, error) { return echo, nil }); err != nil {
			t.Fatal(err)
		}
	}
	w := NewNodeWrapper("n1", tr, reg, transport.NewRealClock())
	upAddr, err := w.Install(InstallOrder{Component: "Up", InstanceID: "up"})
	if err != nil {
		t.Fatal(err)
	}
	wired := func(component, id string) InstallOrder {
		return InstallOrder{Component: component, InstanceID: id, Upstreams: map[string]string{"I": upAddr}}
	}
	expectOpen := func(want int64, after string) {
		t.Helper()
		if got := tr.open.Load(); got != want {
			t.Fatalf("after %s: %d upstream endpoints still open, want %d", after, got, want)
		}
	}

	if _, err := w.Install(wired("Down", "down")); err != nil {
		t.Fatal(err)
	}
	expectOpen(1, "installing down")
	if err := w.Uninstall("down"); err != nil {
		t.Fatal(err)
	}
	expectOpen(0, "uninstalling down")

	if _, err := w.Install(wired("Nosuch", "ghost")); err == nil {
		t.Fatal("installing an unknown component succeeded")
	}
	expectOpen(0, "a failed activation")
	if _, err := w.Install(InstallOrder{Component: "Down", InstanceID: "x",
		Upstreams: map[string]string{"A": upAddr, "B": upAddr}}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Install(wired("Down", "x")); err == nil {
		t.Fatal("installing a duplicate instance ID succeeded")
	}
	expectOpen(2, "a duplicate install")

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	expectOpen(0, "closing the wrapper")
}
