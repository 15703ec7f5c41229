package mail

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"partsvc/internal/coherence"
	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

// sendRequest builds the slab-backed request a transport hands a mail
// handler for one send, over a buffer too small for the pool to keep —
// so once the request is released the test can scribble on its memory
// the way the next frame would.
func sendRequest(t *testing.T, from, to, subject string, body []byte, sens int) (*wire.Message, []byte) {
	t.Helper()
	encoded := appendArgs(nil, "send", &args{user: from, to: to, subject: subject, sens: sens, body: body})
	frame, err := (&wire.Message{Kind: wire.KindRequest, ID: 1, Method: "send", Body: encoded}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	req, err := wire.UnmarshalMessageSlab(frame)
	if err != nil {
		t.Fatal(err)
	}
	return req, frame
}

// TestSendArgsDoNotOutliveRequest: the send handler's mail body points
// into the request, so whatever a provider keeps must be its own copy.
// A view that stores the mail, and a primary that receives it forwarded,
// both return it intact after the request's memory has been released
// and overwritten.
func TestSendArgsDoNotOutliveRequest(t *testing.T) {
	srv, keys, clock := newPrimary(t, "alice", "bob")
	view := newTestView(t, srv, "vms-sd", 2, coherence.WriteThrough{}, clock, 1<<32)
	h := NewHandler(view)
	// Sensitivity 2 is stored by the view, 4 is forwarded to the primary.
	for _, sens := range []int{2, 4} {
		body := []byte(fmt.Sprintf("body at sensitivity %d", sens))
		subject := fmt.Sprintf("subject %d", sens)
		req, frame := sendRequest(t, "alice", "bob", subject, body, sens)
		resp := h.Handle(req)
		if err := transport.AsError(resp); err != nil {
			t.Fatal(err)
		}
		req.Release()
		for i := range frame {
			frame[i] = 0xAA
		}
	}
	if got := view.Store().InboxCount("bob"); got != 1 {
		t.Fatalf("view holds %d messages for bob, want the one within its trust", got)
	}
	msgs, err := NewClient("bob", keys, srv).Receive()
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 {
		t.Fatalf("primary holds %d messages for bob, want 2", len(msgs))
	}
	stored, err := NewClient("bob", keys, view).Receive()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(msgs, stored[0]) {
		wantBody := fmt.Sprintf("body at sensitivity %d", m.Sensitivity)
		wantSubject := fmt.Sprintf("subject %d", m.Sensitivity)
		if m.From != "alice" || m.To != "bob" || m.Subject != wantSubject || string(m.Body) != wantBody {
			t.Errorf("message %d came back as from=%q to=%q subject=%q body=%q", m.ID, m.From, m.To, m.Subject, m.Body)
		}
	}
}

// TestTunnelReusesBuffersWithoutCorruption runs distinct 10 KiB mails
// through view -> Encryptor -> TCP -> Decryptor -> primary, the path
// whose scratch buffers (argument encode, plaintext, sealed request,
// opened request) are all pooled and reused from one send to the next,
// then reads every mail back.
func TestTunnelReusesBuffersWithoutCorruption(t *testing.T) {
	srv, keys, clock := newPrimary(t, "alice", "bob")
	tr := transport.NewTCP()
	key, err := NewChannelKey()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tr.Serve("", NewDecryptorHandler(NewHandler(srv), key))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ep, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	upstream := NewRemote(NewEncryptorEndpoint(ep, key))
	defer upstream.Close()
	view, err := NewView(ViewConfig{
		ID: "vms-sd", Trust: 2, Keys: keys.SubRing(2),
		Upstream: upstream, Policy: coherence.WriteThrough{}, Clock: clock,
	}, 1<<32)
	if err != nil {
		t.Fatal(err)
	}
	alice := NewClient("alice", keys, newRemoteOver(t, tr, NewHandler(view)))
	const n = 50
	bodyOf := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 10<<10) }
	for i := 0; i < n; i++ {
		if _, err := alice.Send("bob", fmt.Sprint(i), bodyOf(i), 4); err != nil {
			t.Fatal(err)
		}
	}
	msgs, err := NewClient("bob", keys, upstream).Receive()
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != n {
		t.Fatalf("received %d messages through the tunnel, want %d", len(msgs), n)
	}
	for i, m := range msgs {
		if m.Subject != fmt.Sprint(i) || !bytes.Equal(m.Body, bodyOf(i)) {
			t.Fatalf("message %d came back with subject %q and a body starting %v", i, m.Subject, m.Body[:4])
		}
	}
}

// newRemoteOver serves h on tr and returns a client stub dialed to it.
func newRemoteOver(t *testing.T, tr transport.Transport, h transport.Handler) *Remote {
	t.Helper()
	ln, err := tr.Serve("", h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ep, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRemote(ep)
	t.Cleanup(func() { r.Close() })
	return r
}

// TestEncryptorRefusesUpgrade: what sits behind the tunnel is not the
// caller's neighbour, so the Encryptor answers the co-location
// handshake itself — nothing is sealed, sent or dispatched for it, even
// when the Decryptor's listener would accept.
func TestEncryptorRefusesUpgrade(t *testing.T) {
	tr := transport.NewTCP()
	key, err := NewChannelKey()
	if err != nil {
		t.Fatal(err)
	}
	var reached atomic.Int64
	inner := transport.HandlerFunc(func(m *wire.Message) *wire.Message {
		reached.Add(1)
		return &wire.Message{Kind: wire.KindResponse, ID: m.ID}
	})
	ln, err := tr.Serve("", NewDecryptorHandler(inner, key))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	transport.TagNode(ln, "sd-2")
	ep, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncryptorEndpoint(ep, key)
	defer enc.Close()
	if transport.Upgrade(enc, "sd-2") {
		t.Error("encryptor endpoint upgraded")
	}
	if got := tr.Stats(); got.FramesSent != 0 || got.LocalCalls != 0 || reached.Load() != 0 {
		t.Errorf("the handshake cost %d frames, %d local calls and reached the handler %d times",
			got.FramesSent, got.LocalCalls, reached.Load())
	}
	if _, err := enc.Call(&wire.Message{Kind: wire.KindRequest, ID: 1, Method: "ping"}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Stats(); got.LocalCalls != 0 || reached.Load() != 1 {
		t.Errorf("after the refusal: %d local calls, handler reached %d times; want 0 and 1", got.LocalCalls, reached.Load())
	}
}
