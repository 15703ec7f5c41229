package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"partsvc/internal/wire"
)

// echoHandler replies with the request body prefixed by "echo:".
var echoHandler = HandlerFunc(func(m *wire.Message) *wire.Message {
	return &wire.Message{
		Kind: wire.KindResponse, ID: m.ID, Target: m.Target, Method: m.Method,
		Body: append([]byte("echo:"), m.Body...),
	}
})

// transports under test, constructed fresh per test.
func eachTransport(t *testing.T, fn func(t *testing.T, tr Transport)) {
	t.Run("inproc", func(t *testing.T) { fn(t, NewInProc()) })
	t.Run("tcp", func(t *testing.T) { fn(t, NewTCP()) })
}

func TestCallRoundTrip(t *testing.T) {
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
		resp, err := ep.Call(&wire.Message{Kind: wire.KindRequest, ID: 7, Method: "ping", Body: []byte("hi")})
		if err != nil {
			t.Fatal(err)
		}
		if resp.ID != 7 || string(resp.Body) != "echo:hi" {
			t.Errorf("resp = %+v", resp)
		}
	})
}

func TestSequentialCallsReuseConnection(t *testing.T) {
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
		for i := 0; i < 50; i++ {
			resp, err := ep.Call(&wire.Message{Kind: wire.KindRequest, ID: uint64(i), Body: []byte{byte(i)}})
			if err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
			if resp.ID != uint64(i) {
				t.Fatalf("call %d: response ID %d", i, resp.ID)
			}
		}
	})
}

func TestConcurrentClients(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr Transport) {
		ln, err := tr.Serve("", echoHandler)
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				ep, err := tr.Dial(ln.Addr())
				if err != nil {
					errs <- err
					return
				}
				defer ep.Close()
				for i := 0; i < 20; i++ {
					body := fmt.Sprintf("c%d-%d", c, i)
					resp, err := ep.Call(&wire.Message{Kind: wire.KindRequest, Body: []byte(body)})
					if err != nil {
						errs <- err
						return
					}
					if string(resp.Body) != "echo:"+body {
						errs <- fmt.Errorf("got %q", resp.Body)
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

func TestClosedEndpointFails(t *testing.T) {
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
		if err := ep.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := ep.Call(&wire.Message{Kind: wire.KindRequest}); err == nil {
			t.Error("call on closed endpoint must fail")
		}
	})
}

func TestInProcDialUnknownAddr(t *testing.T) {
	tr := NewInProc()
	ep, err := tr.Dial("nowhere")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Call(&wire.Message{Kind: wire.KindRequest}); !errors.Is(err, ErrNoSuchAddr) {
		t.Errorf("err = %v, want ErrNoSuchAddr", err)
	}
}

func TestInProcDuplicateServe(t *testing.T) {
	tr := NewInProc()
	if _, err := tr.Serve("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Serve("a", echoHandler); err == nil {
		t.Error("duplicate address must be rejected")
	}
}

func TestInProcListenerCloseUnbinds(t *testing.T) {
	tr := NewInProc()
	ln, err := tr.Serve("svc", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	ep, _ := tr.Dial("svc")
	if _, err := ep.Call(&wire.Message{Kind: wire.KindRequest}); err != nil {
		t.Fatal(err)
	}
	ln.Close()
	if _, err := ep.Call(&wire.Message{Kind: wire.KindRequest}); err == nil {
		t.Error("call after listener close must fail")
	}
}

func TestInProcRejectsNilHandlerResponse(t *testing.T) {
	tr := NewInProc()
	ln, _ := tr.Serve("", HandlerFunc(func(*wire.Message) *wire.Message { return nil }))
	ep, _ := tr.Dial(ln.Addr())
	if _, err := ep.Call(&wire.Message{Kind: wire.KindRequest}); err == nil {
		t.Error("nil handler response must error")
	}
}

func TestTCPDialRefused(t *testing.T) {
	tr := NewTCP()
	if _, err := tr.Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to a dead port must fail")
	}
}

func TestTCPListenerCloseStopsService(t *testing.T) {
	tr := NewTCP()
	ln, err := tr.Serve("", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Call(&wire.Message{Kind: wire.KindRequest}); err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr()
	ln.Close()
	if _, err := ep.Call(&wire.Message{Kind: wire.KindRequest}); err == nil {
		t.Error("call after listener close must fail")
	}
	// The co-location index forgets the listener, and a fresh dial is
	// refused.
	if l := tr.lookupLocal(addr); l != nil {
		t.Error("closed listener still registered for upgrade handshakes")
	}
	if _, err := tr.Dial(addr); err == nil {
		t.Error("dial to a closed listener succeeded")
	}
}

func TestErrorResponseAndAsError(t *testing.T) {
	req := &wire.Message{Kind: wire.KindRequest, ID: 3, Method: "send"}
	resp := ErrorResponse(req, "boom %d", 42)
	if resp.Kind != wire.KindError || resp.ID != 3 {
		t.Errorf("resp = %+v", resp)
	}
	err := AsError(resp)
	if err == nil || !strings.Contains(err.Error(), "boom 42") {
		t.Errorf("AsError = %v", err)
	}
	if AsError(&wire.Message{Kind: wire.KindResponse}) != nil {
		t.Error("non-error response must map to nil")
	}
	if AsError(nil) != nil {
		t.Error("nil response must map to nil")
	}
	if AsError(&wire.Message{Kind: wire.KindError}) == nil {
		t.Error("error without message still maps to an error")
	}
}

func TestRealClockMonotonic(t *testing.T) {
	c := NewRealClock()
	a := c.NowMS()
	b := c.NowMS()
	if b < a {
		t.Errorf("clock went backwards: %v then %v", a, b)
	}
}

func TestTCPServeBadAddress(t *testing.T) {
	tr := NewTCP()
	if _, err := tr.Serve("256.256.256.256:99999", echoHandler); err == nil {
		t.Error("unlistenable address must fail")
	}
}

func TestTCPCorruptFrameDropsConnection(t *testing.T) {
	tr := NewTCP()
	ln, err := tr.Serve("", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Hand-roll a client that sends a garbage frame body.
	ep, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	raw := ep.(*tcpEndpoint)
	if err := wireWriteGarbage(raw); err != nil {
		t.Fatal(err)
	}
	// The server drops the connection; the next call errors.
	if _, err := ep.Call(&wire.Message{Kind: wire.KindRequest}); err == nil {
		t.Error("call on a dropped connection must fail")
	}
}

// wireWriteGarbage writes a framed payload that is not a valid message.
func wireWriteGarbage(e *tcpEndpoint) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, err := e.conn.Write(append(wire.AppendFrameHeader(nil, 0, 2), 0x7f, 0x00)) // ID 0 correlates with no call
	return err
}

// TestTCPUnversionedFrameDropsConnection: a length word without the v2
// flag — the framing no peer speaks any more, or line noise — is corrupt
// framing on either side of a connection: the reader rejects it with
// wire.ErrFrameVersion and the connection closes.
func TestTCPUnversionedFrameDropsConnection(t *testing.T) {
	unversioned := []byte{0, 0, 0, 2, 0x7f, 0x00}
	t.Run("server", func(t *testing.T) {
		tr := NewTCP()
		ln, err := tr.Serve("", echoHandler)
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		conn, err := net.Dial("tcp", ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(unversioned); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 16)); err != io.EOF {
			t.Fatalf("server answered %d bytes, err %v; want the connection closed", n, err)
		}
		if got := tr.Stats().DecodeErrors; got != 1 {
			t.Errorf("decode errors = %d, want 1", got)
		}
	})
	t.Run("client", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			if _, err := wire.NewFrameReader(conn).Next(); err == nil {
				conn.Write(unversioned)
				io.Copy(io.Discard, conn) // hold the socket until the client hangs up
			}
		}()
		ep, err := NewTCP().Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		if _, err := ep.Call(&wire.Message{Kind: wire.KindRequest, Method: "x"}); !errors.Is(err, wire.ErrFrameVersion) {
			t.Fatalf("call err = %v, want wire.ErrFrameVersion", err)
		}
		if _, err := ep.Call(&wire.Message{Kind: wire.KindRequest, Method: "x"}); err == nil {
			t.Error("the connection must stay closed after a framing error")
		}
	})
}

func TestTCPDoubleCloseIsIdempotent(t *testing.T) {
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
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ep.Close(); err != nil {
		t.Errorf("second close must be a no-op: %v", err)
	}
}

// TestPeerLostReportsOncePerEndpoint: closing a listener reports each
// client endpoint connected to it exactly once, by its dialed address;
// an endpoint closed locally reports nothing, before or after.
func TestPeerLostReportsOncePerEndpoint(t *testing.T) {
	tr := NewTCP()
	var mu sync.Mutex
	var lost []string
	tr.OnPeerLost(func(addr string) {
		mu.Lock()
		defer mu.Unlock()
		lost = append(lost, addr)
	})
	reports := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), lost...)
	}
	ln, err := tr.Serve("", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	var eps []Endpoint
	for i := 0; i < 3; i++ {
		ep, err := tr.Dial(ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		if _, err := ep.Call(&wire.Message{Kind: wire.KindRequest, ID: 1, Method: "ping"}); err != nil {
			t.Fatal(err)
		}
		eps = append(eps, ep)
	}
	eps[2].Close()
	time.Sleep(20 * time.Millisecond)
	if got := reports(); len(got) != 0 {
		t.Fatalf("a local Close reported %v", got)
	}

	ln.Close()
	deadline := time.Now().Add(5 * time.Second)
	for len(reports()) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for _, ep := range eps {
		ep.Close()
	}
	time.Sleep(20 * time.Millisecond)
	got := reports()
	if len(got) != 2 || got[0] != ln.Addr() || got[1] != ln.Addr() {
		t.Fatalf("peer-lost reports = %v, want %s once for each of the two open endpoints", got, ln.Addr())
	}
}
