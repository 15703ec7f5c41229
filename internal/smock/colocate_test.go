package smock_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"partsvc/internal/netmodel"
	"partsvc/internal/smock"
	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

// linkWorld is two node wrappers over one shared *transport.TCP with a
// provider that echoes and a consumer whose factory hands the test the
// upstream endpoint the wrapper wired for it — so a test can drive a
// linkage directly and read the transport's frame counters around it.
type linkWorld struct {
	tcp      *transport.TCP
	a, b     *smock.NodeWrapper
	provided atomic.Int64 // requests that reached a provider handler
	upgrades atomic.Int64 // handshakes that reached a provider handler

	mu        sync.Mutex
	upstreams map[string]transport.Endpoint // consumer instance -> its upstream
}

func newLinkWorld(t *testing.T) *linkWorld {
	t.Helper()
	w := &linkWorld{tcp: transport.NewTCP(), upstreams: map[string]transport.Endpoint{}}
	reg := smock.NewRegistry()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(reg.Register("provider", func(ctx *smock.ActivationContext) (transport.Handler, error) {
		return transport.HandlerFunc(func(m *wire.Message) *wire.Message {
			w.provided.Add(1)
			if m.Kind == wire.KindUpgrade {
				w.upgrades.Add(1)
			}
			return &wire.Message{Kind: wire.KindResponse, ID: m.ID, Body: m.Body}
		}), nil
	}))
	must(reg.Register("consumer", func(ctx *smock.ActivationContext) (transport.Handler, error) {
		w.mu.Lock()
		w.upstreams[ctx.InstanceID] = ctx.Upstreams["up"]
		w.mu.Unlock()
		return transport.HandlerFunc(func(m *wire.Message) *wire.Message {
			return transport.ErrorResponse(m, "consumer serves nothing")
		}), nil
	}))
	clock := transport.NewRealClock()
	w.a = smock.NewNodeWrapper(netmodel.NodeID("node-a"), w.tcp, reg, clock)
	w.b = smock.NewNodeWrapper(netmodel.NodeID("node-b"), w.tcp, reg, clock)
	t.Cleanup(func() { w.a.Close(); w.b.Close() })
	return w
}

// consumer installs a consumer of the provider at addr on wr and
// returns the endpoint the wrapper wired.
func (w *linkWorld) consumer(t *testing.T, wr *smock.NodeWrapper, id, addr string) transport.Endpoint {
	t.Helper()
	if _, err := wr.Install(smock.InstallOrder{
		Component: "consumer", InstanceID: id, Upstreams: map[string]string{"up": addr},
	}); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.upstreams[id]
}

func echoThrough(t *testing.T, ep transport.Endpoint, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		resp, err := ep.Call(&wire.Message{Kind: wire.KindRequest, ID: uint64(i), Body: []byte("x")})
		if err != nil {
			t.Fatal(err)
		}
		if resp.ID != uint64(i) || string(resp.Body) != "x" {
			t.Fatalf("reply %d %q", resp.ID, resp.Body)
		}
	}
}

// TestCoLocatedLinkageSkipsTheSocket: two instances on one wrapper
// exchange no frames, while a consumer on another node reaches the same
// provider, over the same shared transport, through the socket.
func TestCoLocatedLinkageSkipsTheSocket(t *testing.T) {
	w := newLinkWorld(t)
	addr, err := w.a.Install(smock.InstallOrder{Component: "provider", InstanceID: "p"})
	if err != nil {
		t.Fatal(err)
	}
	near := w.consumer(t, w.a, "near", addr)
	far := w.consumer(t, w.b, "far", addr)
	if w.upgrades.Load() != 0 {
		t.Fatal("a handshake reached the provider's handler")
	}

	before := w.tcp.Stats()
	echoThrough(t, near, 20)
	mid := w.tcp.Stats()
	if sent, rcvd := mid.FramesSent-before.FramesSent, mid.FramesReceived-before.FramesReceived; sent != 0 || rcvd != 0 {
		t.Errorf("co-located linkage sent %d frames and received %d", sent, rcvd)
	}
	if d := mid.LocalCalls - before.LocalCalls; d != 20 {
		t.Errorf("co-located linkage made %d local calls, want 20", d)
	}

	echoThrough(t, far, 20)
	after := w.tcp.Stats()
	// Readers count a frame before acting on it (writers only after the
	// write returns), so FramesReceived is exact once the calls are back.
	if d := after.FramesReceived - mid.FramesReceived; d != 40 {
		t.Errorf("cross-node linkage moved %d frames, want 40 (a request and a reply per call)", d)
	}
	if d := after.LocalCalls - mid.LocalCalls; d != 0 {
		t.Errorf("cross-node linkage made %d local calls", d)
	}
	if got := w.provided.Load(); got != 40 {
		t.Errorf("provider handled %d requests, want 40", got)
	}
}

// TestCoLocatedLinkageDiesWithItsProvider: uninstalling the provider,
// or closing its whole wrapper, fails the co-located consumer's next
// call with ErrClosed — inside the node a kill looks like a crash too.
func TestCoLocatedLinkageDiesWithItsProvider(t *testing.T) {
	for _, kill := range []string{"uninstall", "close"} {
		t.Run(kill, func(t *testing.T) {
			w := newLinkWorld(t)
			addr, err := w.a.Install(smock.InstallOrder{Component: "provider", InstanceID: "p"})
			if err != nil {
				t.Fatal(err)
			}
			near := w.consumer(t, w.a, "near", addr)
			echoThrough(t, near, 1)
			if kill == "uninstall" {
				if err := w.a.Uninstall("p"); err != nil {
					t.Fatal(err)
				}
			} else {
				w.a.Close()
			}
			if _, err := near.Call(&wire.Message{Kind: wire.KindRequest}); !errors.Is(err, transport.ErrClosed) {
				t.Errorf("call after %s: %v, want ErrClosed", kill, err)
			}
		})
	}
}

// TestControlListenerNeverUpgrades: liveness probes must keep crossing
// the socket, so the control listener refuses the handshake even from
// its own node.
func TestControlListenerNeverUpgrades(t *testing.T) {
	w := newLinkWorld(t)
	addr, err := w.a.ServeControl()
	if err != nil {
		t.Fatal(err)
	}
	ep, err := w.tcp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if transport.Upgrade(ep, string(w.a.Node())) {
		t.Fatal("control listener upgraded")
	}
	before := w.tcp.Stats()
	resp, err := ep.Call(&wire.Message{Kind: wire.KindRequest, Method: "status"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Meta["node"] != string(w.a.Node()) {
		t.Errorf("status reply %+v", resp.Meta)
	}
	after := w.tcp.Stats()
	if after.FramesReceived-before.FramesReceived != 2 || after.LocalCalls != before.LocalCalls {
		t.Errorf("probe moved %d frames and made %d local calls, want 2 and 0",
			after.FramesReceived-before.FramesReceived, after.LocalCalls-before.LocalCalls)
	}
}
