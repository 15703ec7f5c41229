package mail

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"partsvc/internal/coherence"
	"partsvc/internal/seccrypto"
	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

// spyUpstream stands between a view and its real upstream, records what
// the view asked for and fails the receives it is told to.
type spyUpstream struct {
	Upstream

	// Err, while set, fails every receive before it reaches the real
	// upstream; tests set and clear it between calls.
	Err error

	LastMethod   string
	LastAbove    int
	LastReturned int // messages in the last successful receive reply
	CallCount    int
}

func (s *spyUpstream) ReceiveCtx(ctx context.Context, user string, above int) ([]*Message, error) {
	s.LastMethod, s.LastAbove = "receive", above
	s.CallCount++
	if s.Err != nil {
		return nil, s.Err
	}
	msgs, err := s.Upstream.ReceiveCtx(ctx, user, above)
	s.LastReturned = len(msgs)
	return msgs, err
}

// sendAtLevels has the primary file one message from alice to the user
// at every given sensitivity; registered views replicate what they may
// hold.
func sendAtLevels(t *testing.T, srv *Server, to string, levels ...int) {
	t.Helper()
	for _, lvl := range levels {
		if _, err := srv.Send("alice", to, fmt.Sprintf("level %d", lvl), []byte(fmt.Sprintf("body %d", lvl)), lvl); err != nil {
			t.Fatal(err)
		}
	}
}

// TestViewReceiveUpstreamFailureSurfaces: the view asks its upstream
// once, for what is above its own trust, and an upstream that fails
// fails the receive — the local messages alone would pass for the whole
// inbox. An upstream that merely has never heard of the user does not.
// The upstream is reached through NewHandler/NewRemote, so the floor
// and the unknown-user answer cross the wire encoding.
func TestViewReceiveUpstreamFailureSurfaces(t *testing.T) {
	srv, keys, clock := newPrimary(t, "alice", "bob")
	spy := &spyUpstream{Upstream: newRemoteOver(t, transport.NewInProc(), NewHandler(srv))}
	view, err := NewView(ViewConfig{
		ID: "vms-sea", Trust: 2, Keys: keys.SubRing(2),
		Upstream: spy, Policy: coherence.WriteThrough{}, Clock: clock,
	}, 1<<32)
	if err != nil {
		t.Fatal(err)
	}
	srv.Directory().Register(ViewName, view.Replica())
	sendAtLevels(t, srv, "bob", 1, 4)

	msgs, err := view.ReceiveCtx(context.Background(), "bob", 0)
	if err != nil || len(msgs) != 2 {
		t.Fatalf("receive = %d messages, %v; want 2", len(msgs), err)
	}
	if spy.CallCount != 1 || spy.LastMethod != "receive" || spy.LastAbove != view.trust {
		t.Errorf("upstream saw %d calls, last %s above %d; want one receive above %d",
			spy.CallCount, spy.LastMethod, spy.LastAbove, view.trust)
	}
	if spy.LastReturned != 1 {
		t.Errorf("upstream returned %d messages, want only the level-4 one", spy.LastReturned)
	}

	spy.Err = errors.New("tunnel: closed")
	if msgs, err := view.ReceiveCtx(context.Background(), "bob", 0); !errors.Is(err, spy.Err) {
		t.Errorf("receive over a failing upstream = %d messages, %v; want the upstream's error", len(msgs), err)
	}
	spy.Err = nil
	if msgs, err := view.ReceiveCtx(context.Background(), "bob", 0); err != nil || len(msgs) != 2 {
		t.Errorf("receive after the upstream recovered = %d messages, %v", len(msgs), err)
	}

	// Nobody upstream knows erin: the view's (empty) local result stands.
	calls := spy.CallCount
	if msgs, err := view.ReceiveCtx(context.Background(), "erin", 0); err != nil || len(msgs) != 0 {
		t.Errorf("receive for a user unknown upstream = %d messages, %v; want none and no error", len(msgs), err)
	}
	if spy.CallCount != calls+1 {
		t.Errorf("the unknown-user receive reached upstream %d times, want 1", spy.CallCount-calls)
	}
	// Asked for the whole inbox, the primary still reports the missing
	// account.
	if _, err := srv.ReceiveCtx(context.Background(), "erin", 0); err == nil {
		t.Error("an unfloored receive for an unknown account must fail")
	}
}

// sealedBodies returns the (sealed) bodies of a receive by message ID.
func sealedBodies(t *testing.T, api API, user string) map[uint64][]byte {
	t.Helper()
	msgs, err := api.ReceiveCtx(context.Background(), user, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[uint64][]byte{}
	for _, m := range msgs {
		if _, dup := out[m.ID]; dup {
			t.Fatalf("message %d returned twice", m.ID)
		}
		out[m.ID] = append([]byte(nil), m.Body...)
	}
	return out
}

// TestReceiveTransformsEachMessageOnce: a transform draws a fresh nonce,
// so byte-identical sealed bodies from two receives mean the second one
// re-sealed nothing; after one more send exactly one body is new. Holds
// at the primary and at a view, whose above-trust mail comes from the
// primary's cache.
func TestReceiveTransformsEachMessageOnce(t *testing.T) {
	srv, _, clock := newPrimary(t, "alice", "bob")
	view := newTestView(t, srv, "vms-sd", 4, coherence.WriteThrough{}, clock, 1<<32)
	sendAtLevels(t, srv, "bob", 1, 3, 5)
	for name, api := range map[string]API{"primary": srv, "view": view} {
		first := sealedBodies(t, api, "bob")
		second := sealedBodies(t, api, "bob")
		if len(first) != 3 || len(second) != 3 {
			t.Fatalf("%s: receives returned %d and %d messages, want 3", name, len(first), len(second))
		}
		for id, body := range first {
			if !bytes.Equal(body, second[id]) {
				t.Errorf("%s: message %d was sealed again by the second receive", name, id)
			}
		}
	}
	before := sealedBodies(t, view, "bob")
	sendAtLevels(t, srv, "bob", 2)
	after := sealedBodies(t, view, "bob")
	fresh := 0
	for id, body := range after {
		if old, ok := before[id]; !ok {
			fresh++
		} else if !bytes.Equal(old, body) {
			t.Errorf("message %d was sealed again after an unrelated send", id)
		}
	}
	if len(after) != 4 || fresh != 1 {
		t.Errorf("after one more send the receive has %d messages, %d of them new; want 4 and 1", len(after), fresh)
	}
}

// chain is Seattle (trust 2) -> San Diego (trust 4) -> primary, linked
// either in process or through NewHandler/NewRemote at every hop.
func chain(t *testing.T, overWire bool) (srv *Server, keys *seccrypto.KeyRing, sd, sea *View, sdSpy, srvSpy *spyUpstream) {
	t.Helper()
	srv, keys, clock := newPrimary(t, "alice", "bob")
	link := func(up Upstream) *spyUpstream {
		if overWire {
			up = newRemoteOver(t, transport.NewInProc(), NewHandler(up))
		}
		return &spyUpstream{Upstream: up}
	}
	srvSpy = link(srv)
	sd, err := NewView(ViewConfig{
		ID: "vms-sd", Trust: 4, Keys: keys.SubRing(4),
		Upstream: srvSpy, Policy: coherence.WriteThrough{}, Clock: clock,
	}, 1<<32)
	if err != nil {
		t.Fatal(err)
	}
	sdSpy = link(sd)
	sea, err = NewView(ViewConfig{
		ID: "vms-sea", Trust: 2, Keys: keys.SubRing(2),
		Upstream: sdSpy, Policy: coherence.WriteThrough{}, Clock: clock,
	}, 1<<33)
	if err != nil {
		t.Fatal(err)
	}
	srv.Directory().Register(ViewName, sd.Replica())
	srv.Directory().Register(ViewName, sea.Replica())
	return srv, keys, sd, sea, sdSpy, srvSpy
}

// TestChainedViewsReturnEachMessageOnce: with mail at every level 1-5,
// a receive at the Seattle view returns each message exactly once, each
// from the nearest store that may hold it — Seattle 1-2, San Diego 3-4,
// the primary 5 — and the restricted client still elides what is above
// its trust.
func TestChainedViewsReturnEachMessageOnce(t *testing.T) {
	for _, overWire := range []bool{false, true} {
		name := "in process"
		if overWire {
			name = "over NewHandler and NewRemote"
		}
		t.Run(name, func(t *testing.T) {
			srv, keys, sd, sea, sdSpy, srvSpy := chain(t, overWire)
			sendAtLevels(t, srv, "bob", 1, 2, 3, 4, 5)
			if got := [3]int{sea.Store().InboxCount("bob"), sd.Store().InboxCount("bob"), srv.Store().InboxCount("bob")}; got != [3]int{2, 4, 5} {
				t.Fatalf("stores hold %v messages for bob, want [2 4 5]", got)
			}
			var head API = sea
			if overWire {
				head = newRemoteOver(t, transport.NewInProc(), NewHandler(sea))
			}
			msgs, err := NewClient("bob", keys, head).Receive()
			if err != nil {
				t.Fatal(err)
			}
			seen := map[int]int{}
			for _, m := range msgs {
				seen[m.Sensitivity]++
				if want := fmt.Sprintf("body %d", m.Sensitivity); string(m.Body) != want {
					t.Errorf("level-%d message decrypted to %q, want %q", m.Sensitivity, m.Body, want)
				}
			}
			for lvl := 1; lvl <= seccrypto.MaxLevel; lvl++ {
				if seen[lvl] != 1 {
					t.Errorf("level-%d message returned %d times, want once", lvl, seen[lvl])
				}
			}
			if sdSpy.CallCount != 1 || sdSpy.LastAbove != 2 || sdSpy.LastReturned != 3 {
				t.Errorf("San Diego was asked %d times, above %d, and returned %d messages; want once, above 2, 3 messages",
					sdSpy.CallCount, sdSpy.LastAbove, sdSpy.LastReturned)
			}
			if srvSpy.CallCount != 1 || srvSpy.LastAbove != 4 || srvSpy.LastReturned != 1 {
				t.Errorf("the primary was asked %d times, above %d, and returned %d messages; want once, above 4, 1 message",
					srvSpy.CallCount, srvSpy.LastAbove, srvSpy.LastReturned)
			}

			partner, err := NewViewClient("bob", 2, keys.SubRing(2), head).Receive()
			if err != nil {
				t.Fatal(err)
			}
			if len(partner) != 2 || partner[0].Sensitivity > 2 || partner[1].Sensitivity > 2 {
				t.Errorf("the restricted client received %d messages, want the two within its trust", len(partner))
			}
		})
	}
}

// receiveCount sends a raw receive request for bob with the given
// floor to a handler and returns how many messages the reply carries.
func receiveCount(t *testing.T, h transport.Handler, above int) int {
	t.Helper()
	body := appendArgs(nil, "receive", &args{user: "bob", sens: above})
	resp := h.Handle(&wire.Message{Kind: wire.KindRequest, ID: 1, Method: "receive", Body: body})
	if err := transport.AsError(resp); err != nil {
		t.Fatal(err)
	}
	res, err := decodeResult("receive", resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return len(res.msgs)
}

// TestReceiveRequestWithoutFloorGetsWholeInbox: a floor of 0 on the
// wire asks for everything; a floor asks for what is above it.
func TestReceiveRequestWithoutFloorGetsWholeInbox(t *testing.T) {
	srv, _, clock := newPrimary(t, "alice", "bob")
	view := newTestView(t, srv, "vms-sd", 4, coherence.WriteThrough{}, clock, 1<<32)
	sendAtLevels(t, srv, "bob", 1, 2, 3, 4, 5)
	for name, h := range map[string]transport.Handler{"primary": NewHandler(srv), "view": NewHandler(view)} {
		if got := receiveCount(t, h, 0); got != 5 {
			t.Errorf("%s: a request without a floor returned %d messages, want all 5", name, got)
		}
		if got := receiveCount(t, h, 3); got != 2 {
			t.Errorf("%s: above 3 returned %d messages, want levels 4 and 5", name, got)
		}
		if got := receiveCount(t, h, seccrypto.MaxLevel); got != 0 {
			t.Errorf("%s: above the highest level returned %d messages, want none", name, got)
		}
	}
}

// TestConcurrentReadersAndSendersOnOneUser: receives cache transforms
// into the slots senders are appending behind; every receive decrypts
// cleanly, never repeats a message, and once the senders are done two
// readers agree byte for byte. Run under -race.
func TestConcurrentReadersAndSendersOnOneUser(t *testing.T) {
	srv, keys, clock := newPrimary(t, "alice", "bob")
	view := newTestView(t, srv, "vms-sd", 4, coherence.WriteThrough{}, clock, 1<<32)
	const senders, perSender, readers = 3, 40, 3
	var sending, reading sync.WaitGroup
	done := make(chan struct{})
	for s := 0; s < senders; s++ {
		sending.Add(1)
		go func(s int) {
			defer sending.Done()
			for i := 0; i < perSender; i++ {
				// Level 5 goes to the primary, the rest stay at the view.
				if _, err := view.SendCtx(context.Background(), "alice", "bob", "s", []byte(fmt.Sprintf("%d/%d", s, i)), 1+(s+i)%5); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			bob := NewClient("bob", keys, view)
			for {
				msgs, err := bob.Receive()
				if err != nil {
					t.Error(err)
					return
				}
				ids := map[uint64]bool{}
				for _, m := range msgs {
					if ids[m.ID] {
						t.Errorf("message %d returned twice by one receive", m.ID)
					}
					ids[m.ID] = true
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	sending.Wait()
	close(done)
	reading.Wait()
	first, second := sealedBodies(t, view, "bob"), sealedBodies(t, view, "bob")
	if len(first) != senders*perSender {
		t.Fatalf("bob's inbox holds %d messages, %d were sent", len(first), senders*perSender)
	}
	for id, body := range first {
		if !bytes.Equal(body, second[id]) {
			t.Errorf("message %d: two receives of a settled inbox disagree", id)
		}
	}
}

// TestSnapshotCarriesNoCachedTransform: the transformed body is state of
// the store that made it. A snapshot taken after a receive is the one
// taken before it, a lower-trust restore sheds as before and starts
// with no transform cached, and what it kept still decrypts.
func TestSnapshotCarriesNoCachedTransform(t *testing.T) {
	srv, keys, _ := newPrimary(t, "alice", "bob")
	sendAtLevels(t, srv, "bob", 2, 5)
	cold, err := srv.Store().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ReceiveCtx(context.Background(), "bob", 0); err != nil {
		t.Fatal(err)
	}
	for _, f := range srv.Store().accounts["bob"].Folders[FolderInbox] {
		if f.owned == nil {
			t.Fatalf("message %d has no cached transform after a receive", f.ID)
		}
	}
	warm, err := srv.Store().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("a receive changed the store's snapshot")
	}
	clones, err := srv.Store().Folder("bob", FolderInbox)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range clones {
		if env, err := seccrypto.UnmarshalEnvelope(m.Body); err != nil || env.User != "alice" {
			t.Errorf("Folder returned message %d sealed for %v (%v), want the sender-sealed body", m.ID, env, err)
		}
	}

	restored, err := RestoreStore(warm, 2)
	if err != nil {
		t.Fatal(err)
	}
	inbox := restored.accounts["bob"].Folders[FolderInbox]
	if len(inbox) != 1 || inbox[0].Sensitivity != 2 {
		t.Fatalf("the trust-2 restore holds %d messages for bob, want only the level-2 one", len(inbox))
	}
	if inbox[0].owned != nil {
		t.Error("the restored store starts with a cached transform")
	}
	// The restored store serves a view holding only the escrowed keys.
	view, err := NewView(ViewConfig{
		ID: "vms-sea", Trust: 2, Keys: keys.SubRing(2), Upstream: srv,
		Policy: coherence.WriteThrough{}, Clock: &fakeClock{}, Snapshot: warm,
	}, 1<<32)
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := NewViewClient("bob", 2, keys.SubRing(2), view).Receive()
	if err != nil || len(msgs) != 1 || string(msgs[0].Body) != "body 2" {
		t.Errorf("receive from the restored view = %v, %v", msgs, err)
	}
}

// callEndpoint hands each request straight to a handler, as a
// co-located linkage does, and keeps the last response so a test can
// overwrite its memory once the caller is done with it.
type callEndpoint struct {
	h    transport.Handler
	last *wire.Message
}

func (e *callEndpoint) CallContext(_ context.Context, m *wire.Message) (*wire.Message, error) {
	e.last = e.h.Handle(m)
	return e.last, nil
}

func (e *callEndpoint) Call(m *wire.Message) (*wire.Message, error) {
	return e.CallContext(context.Background(), m)
}

func (e *callEndpoint) Close() error { return nil }

func scribble(b []byte) {
	for i := range b {
		b[i] = 0xAA
	}
}

// TestReceiveBodiesPointIntoTheReplyOnly: a Remote's receive decodes
// bodies pointing into the response it owns, and a store hands its own
// bytes to the reply encoder. Neither may leak: once the client has
// decrypted, the response's memory can be overwritten without touching
// a plaintext, and overwriting what a receive returned — the aliased
// sealed bodies of a Remote, the plaintexts of a Client — leaves the
// store's next receive as it was.
func TestReceiveBodiesPointIntoTheReplyOnly(t *testing.T) {
	srv, keys, clock := newPrimary(t, "alice", "bob")
	view := newTestView(t, srv, "vms-sd", 4, coherence.WriteThrough{}, clock, 1<<32)
	sendAtLevels(t, srv, "bob", 1, 3, 5)
	want := sealedBodies(t, view, "bob")

	ep := &callEndpoint{h: NewHandler(view)}
	remote := NewRemote(ep)
	msgs, err := NewClient("bob", keys, remote).Receive()
	if err != nil {
		t.Fatal(err)
	}
	scribble(ep.last.Body)
	if len(msgs) != 3 {
		t.Fatalf("received %d messages, want 3", len(msgs))
	}
	for _, m := range msgs {
		wantBody, wantSubject := fmt.Sprintf("body %d", m.Sensitivity), fmt.Sprintf("level %d", m.Sensitivity)
		if m.From != "alice" || m.To != "bob" || m.Subject != wantSubject || string(m.Body) != wantBody {
			t.Errorf("after the response was overwritten message %d reads from=%q to=%q subject=%q body=%q",
				m.ID, m.From, m.To, m.Subject, m.Body)
		}
		scribble(m.Body)
	}

	sealed, err := remote.ReceiveCtx(context.Background(), "bob", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range sealed {
		if !bytes.Equal(m.Body, want[m.ID]) {
			t.Errorf("message %d: the store's bytes changed after a client overwrote its plaintexts", m.ID)
		}
		scribble(m.Body)
	}
	for id, body := range sealedBodies(t, view, "bob") {
		if !bytes.Equal(body, want[id]) {
			t.Errorf("message %d: the store's bytes changed after a Remote's returned body was overwritten", id)
		}
	}
	// In process the client is handed the store's own bytes and only
	// ever reassigns Body.
	direct, err := NewClient("bob", keys, view).Receive()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range direct {
		scribble(m.Body)
	}
	for id, body := range sealedBodies(t, view, "bob") {
		if !bytes.Equal(body, want[id]) {
			t.Errorf("message %d: the store's bytes changed after an in-process client overwrote its plaintexts", id)
		}
	}
}

// TestDeliverFilesOneCopyInBothFolders: a delivery shares one immutable
// message between the recipient's inbox and the sender's sent folder,
// filed with the very body it was handed (deliver takes ownership; a
// sealed body is not copied again), and the per-folder duplicate rule
// still holds.
func TestDeliverFilesOneCopyInBothFolders(t *testing.T) {
	s := NewStore(0)
	s.EnsureAccount("alice")
	s.EnsureAccount("bob")
	body := []byte("sealed")
	m := &Message{ID: 9, From: "alice", To: "bob", Body: body, Sensitivity: 2}
	for i := 0; i < 2; i++ { // the second delivery is a replicated duplicate
		if err := s.deliver(m); err != nil {
			t.Fatal(err)
		}
	}
	inbox, sent := s.accounts["bob"].Folders[FolderInbox], s.accounts["alice"].Folders[FolderSent]
	if len(inbox) != 1 || len(sent) != 1 {
		t.Fatalf("inbox holds %d and sent %d messages, want 1 and 1", len(inbox), len(sent))
	}
	if inbox[0] != sent[0] {
		t.Error("inbox and sent folder hold separate copies of one delivery")
	}
	if &inbox[0].Body[0] != &body[0] {
		t.Error("deliver copied the body it was handed")
	}
	if err := s.deliver(&Message{ID: 10, From: "alice", To: "ghost", Sensitivity: 2}); err == nil {
		t.Error("the primary store must refuse mail for an unknown recipient")
	}
	if err := s.deliver(&Message{ID: 11, From: "ghost", To: "bob", Sensitivity: 2}); err != nil || s.HasAccount("ghost") {
		t.Errorf("a sender without an account gets no sent folder: %v", err)
	}
	v := NewStore(2)
	if err := v.deliver(&Message{ID: 12, From: "alice", To: "bob", Sensitivity: 3}); err == nil {
		t.Error("a view's store must refuse mail above its ceiling")
	}
	if err := v.deliver(&Message{ID: 13, From: "alice", To: "bob", Sensitivity: 2}); err != nil || v.InboxCount("bob") != 1 {
		t.Errorf("a view's store files replicated mail for an account it has not seen yet: %v", err)
	}
}
