package mail

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"partsvc/internal/coherence"
	"partsvc/internal/seccrypto"
	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

// fakeClock is a manually advanced clock for deterministic tests.
type fakeClock struct{ now float64 }

func (c *fakeClock) NowMS() float64 { return c.now }

func newPrimary(t *testing.T, users ...string) (*Server, *seccrypto.KeyRing, *fakeClock) {
	t.Helper()
	keys := seccrypto.NewKeyRing()
	clock := &fakeClock{}
	srv := NewServer(keys, clock)
	for _, u := range users {
		if err := srv.CreateAccount(u); err != nil {
			t.Fatal(err)
		}
	}
	return srv, keys, clock
}

func TestStoreAccountsAndFolders(t *testing.T) {
	s := NewStore(0)
	if err := s.CreateAccount("alice"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateAccount("alice"); err == nil {
		t.Error("duplicate account must fail")
	}
	if err := s.CreateAccount(""); err == nil {
		t.Error("empty user must fail")
	}
	if !s.HasAccount("alice") || s.HasAccount("bob") {
		t.Error("HasAccount wrong")
	}
	s.EnsureAccount("bob")
	s.EnsureAccount("bob") // idempotent
	if got := sortedKeys(s.accounts, nil); len(got) != 2 || got[0] != "alice" {
		t.Errorf("accounts = %v", got)
	}
	if _, err := s.Folder("ghost", FolderInbox); err == nil {
		t.Error("folder of missing account must fail")
	}
}

func TestStoreSensitivityCeiling(t *testing.T) {
	s := NewStore(2)
	s.EnsureAccount("alice")
	if !s.Admissible(2) || s.Admissible(3) {
		t.Error("Admissible wrong")
	}
	err := s.Append("alice", FolderInbox, &Message{ID: 1, From: "b", To: "alice", Sensitivity: 3})
	if err == nil {
		t.Error("message above ceiling must be rejected")
	}
	if err := s.Append("alice", FolderInbox, &Message{ID: 2, From: "b", To: "alice", Sensitivity: 2}); err != nil {
		t.Error(err)
	}
	if s.InboxCount("alice") != 1 {
		t.Error("inbox count wrong")
	}
}

func TestStoreAppendIdempotentByID(t *testing.T) {
	s := NewStore(0)
	s.EnsureAccount("alice")
	m := &Message{ID: 7, From: "b", To: "alice", Sensitivity: 1}
	if err := s.Append("alice", FolderInbox, m); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("alice", FolderInbox, m); err != nil {
		t.Fatal(err)
	}
	if s.InboxCount("alice") != 1 {
		t.Error("replicated delivery must be idempotent")
	}
	// Re-deliveries interleaved with a folder's worth of new mail are
	// still dropped, arrival order is untouched, the same ID files
	// independently into another folder, and ID 0 (unassigned) is never
	// taken for a duplicate.
	want := []uint64{7}
	for id := uint64(100); id < 1100; id++ {
		if err := s.Append("alice", FolderInbox, &Message{ID: id, From: "b", To: "alice", Sensitivity: 1}); err != nil {
			t.Fatal(err)
		}
		want = append(want, id)
		if err := s.Append("alice", FolderInbox, &Message{ID: want[len(want)/2], From: "b", To: "alice", Sensitivity: 1}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Folder("alice", FolderInbox)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("inbox holds %d messages, want %d", len(got), len(want))
	}
	for i, m := range got {
		if m.ID != want[i] {
			t.Fatalf("inbox[%d] has ID %d, want %d: arrival order changed", i, m.ID, want[i])
		}
	}
	if err := s.Append("alice", FolderSent, m); err != nil {
		t.Fatal(err)
	}
	if sent, _ := s.Folder("alice", FolderSent); len(sent) != 1 {
		t.Errorf("sent folder holds %d messages, want 1: the ID set must be per folder", len(sent))
	}
	for i := 0; i < 2; i++ {
		if err := s.Append("alice", FolderSent, &Message{From: "b", To: "alice", Sensitivity: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if sent, _ := s.Folder("alice", FolderSent); len(sent) != 3 {
		t.Errorf("sent folder holds %d messages, want 3: ID 0 is not a duplicate", len(sent))
	}
}

func TestStoreContacts(t *testing.T) {
	s := NewStore(0)
	s.EnsureAccount("alice")
	if err := s.AddContact("alice", "bob"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddContact("alice", "bob"); err != nil {
		t.Fatal(err)
	}
	got, err := s.Contacts("alice")
	if err != nil || len(got) != 1 || got[0] != "bob" {
		t.Errorf("contacts = %v, %v", got, err)
	}
	if err := s.AddContact("ghost", "x"); err == nil {
		t.Error("contacts on missing account must fail")
	}
	if _, err := s.Contacts("ghost"); err == nil {
		t.Error("contacts on missing account must fail")
	}
}

func TestServerSendReceiveRoundTrip(t *testing.T) {
	srv, keys, clock := newPrimary(t, "alice", "bob")
	clock.now = 42
	id, err := srv.Send("alice", "bob", "hi", []byte("secret body"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Error("message ID must be assigned")
	}
	bob := NewClient("bob", keys, srv)
	msgs, err := bob.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 {
		t.Fatalf("inbox = %d messages", len(msgs))
	}
	m := msgs[0]
	if string(m.Body) != "secret body" || m.From != "alice" || m.Subject != "hi" || m.SentAtMS != 42 {
		t.Errorf("message = %+v", m)
	}
	// Sender's sent folder holds the sealed copy.
	sent, err := srv.Store().Folder("alice", FolderSent)
	if err != nil || len(sent) != 1 {
		t.Fatalf("sent folder = %v, %v", sent, err)
	}
	if bytes.Contains(sent[0].Body, []byte("secret body")) {
		t.Error("stored body must be sealed, not plaintext")
	}
}

func TestServerSendValidation(t *testing.T) {
	srv, _, _ := newPrimary(t, "alice", "bob")
	if _, err := srv.Send("alice", "bob", "s", nil, 0); err == nil {
		t.Error("sensitivity 0 must fail")
	}
	if _, err := srv.Send("alice", "bob", "s", nil, seccrypto.MaxLevel+1); err == nil {
		t.Error("sensitivity above max must fail")
	}
	if _, err := srv.Send("alice", "ghost", "s", nil, 1); err == nil {
		t.Error("send to missing account must fail at the primary")
	}
	if _, err := srv.Send("ghost", "bob", "s", nil, 1); err == nil {
		t.Error("send from user without keys must fail")
	}
}

func TestServerContacts(t *testing.T) {
	srv, _, _ := newPrimary(t, "alice")
	if err := srv.AddContact("alice", "bob"); err != nil {
		t.Fatal(err)
	}
	got, err := srv.Contacts("alice")
	if err != nil || len(got) != 1 {
		t.Errorf("contacts = %v, %v", got, err)
	}
}

// newTestView wires a view replica to a primary through the coherence
// directory, as the deployment engine does.
func newTestView(t *testing.T, srv *Server, id string, trust int, policy coherence.Policy, clock transport.Clock, idBase uint64) *View {
	t.Helper()
	v, err := NewView(ViewConfig{
		ID: id, Trust: trust, Keys: srv.keys.SubRing(trust),
		Upstream: srv, Policy: policy, Clock: clock,
	}, idBase)
	if err != nil {
		t.Fatal(err)
	}
	srv.Directory().Register(ViewName, v.Replica())
	return v
}

func TestViewConfigValidation(t *testing.T) {
	srv, keys, clock := newPrimary(t, "alice")
	if _, err := NewView(ViewConfig{ID: "v", Trust: 0, Keys: keys.SubRing(1), Upstream: srv, Clock: clock}, 0); err == nil {
		t.Error("trust 0 must fail")
	}
	if _, err := NewView(ViewConfig{ID: "v", Trust: 2, Keys: keys, Upstream: srv, Clock: clock}, 0); err == nil {
		t.Error("over-escrowed keys must fail")
	}
	if _, err := NewView(ViewConfig{ID: "v", Trust: 2, Keys: keys.SubRing(2), Clock: clock}, 0); err == nil {
		t.Error("missing upstream must fail")
	}
}

func TestViewSendWithinTrustStaysLocalUntilFlush(t *testing.T) {
	srv, keys, clock := newPrimary(t, "alice", "bob")
	v := newTestView(t, srv, "vms-sd", 4, coherence.CountBound{Bound: 3}, clock, 1<<32)

	if _, err := v.SendCtx(context.Background(), "alice", "bob", "s1", []byte("m1"), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := v.SendCtx(context.Background(), "alice", "bob", "s2", []byte("m2"), 2); err != nil {
		t.Fatal(err)
	}
	if v.Pending() != 2 {
		t.Errorf("pending = %d, want 2", v.Pending())
	}
	if srv.Store().InboxCount("bob") != 0 {
		t.Error("primary must not see unflushed sends")
	}
	// Third send reaches the bound and flushes.
	if _, err := v.SendCtx(context.Background(), "alice", "bob", "s3", []byte("m3"), 2); err != nil {
		t.Fatal(err)
	}
	if v.Pending() != 0 {
		t.Errorf("pending after flush = %d", v.Pending())
	}
	if got := srv.Store().InboxCount("bob"); got != 3 {
		t.Errorf("primary inbox = %d, want 3", got)
	}
	// Receive at the view is served locally and decryptable by bob.
	bob := NewClient("bob", keys, v)
	msgs, err := bob.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 3 {
		t.Errorf("view inbox = %d", len(msgs))
	}
}

func TestViewForwardsHighSensitivityUpstream(t *testing.T) {
	srv, keys, clock := newPrimary(t, "alice", "bob")
	v := newTestView(t, srv, "vms-sea", 2, coherence.None{}, clock, 1<<33)

	if _, err := v.SendCtx(context.Background(), "alice", "bob", "top", []byte("classified"), 4); err != nil {
		t.Fatal(err)
	}
	if v.Store().InboxCount("bob") != 0 {
		t.Error("high-sensitivity message must not be stored at the view")
	}
	if srv.Store().InboxCount("bob") != 1 {
		t.Error("high-sensitivity message must reach the primary")
	}
	// The view's receive still surfaces it by fetching upstream.
	bob := NewClient("bob", keys, v)
	msgs, err := bob.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || string(msgs[0].Body) != "classified" {
		t.Errorf("receive through view = %v", msgs)
	}
}

func TestViewReceivesReplicatedDeliveries(t *testing.T) {
	srv, keys, clock := newPrimary(t, "alice", "bob")
	v := newTestView(t, srv, "vms-sd", 4, coherence.None{}, clock, 1<<32)
	// A send at the primary propagates down to the view immediately
	// (the primary is write-through).
	if _, err := srv.Send("alice", "bob", "s", []byte("from ny"), 2); err != nil {
		t.Fatal(err)
	}
	if v.Store().InboxCount("bob") != 1 {
		t.Error("view must receive primary deliveries via the directory")
	}
	bob := NewClient("bob", keys, v)
	msgs, err := bob.Receive()
	if err != nil || len(msgs) != 1 {
		t.Fatalf("receive = %v, %v", msgs, err)
	}
}

func TestViewCatchUpOnRegistration(t *testing.T) {
	srv, _, clock := newPrimary(t, "alice", "bob")
	if _, err := srv.Send("alice", "bob", "early", []byte("m"), 2); err != nil {
		t.Fatal(err)
	}
	v := newTestView(t, srv, "late-view", 4, coherence.None{}, clock, 1<<32)
	if v.Store().InboxCount("bob") != 1 {
		t.Error("newly registered view must catch up on history")
	}
}

func TestViewSensitivityCeilingOnReplication(t *testing.T) {
	srv, _, clock := newPrimary(t, "alice", "bob")
	v := newTestView(t, srv, "vms-sea", 2, coherence.None{}, clock, 1<<32)
	if _, err := srv.Send("alice", "bob", "top", []byte("secret"), 5); err != nil {
		t.Fatal(err)
	}
	if v.Store().InboxCount("bob") != 0 {
		t.Error("level-5 message must not replicate to a trust-2 view")
	}
}

func TestChainedViewsSeattleToSanDiego(t *testing.T) {
	srv, keys, clock := newPrimary(t, "alice", "carol")
	sd := newTestView(t, srv, "vms-sd", 4, coherence.WriteThrough{}, clock, 1<<32)
	srv.Directory().Register(ViewName, sd.Replica())
	sea, err := NewView(ViewConfig{
		ID: "vms-sea", Trust: 2, Keys: srv.keys.SubRing(2),
		Upstream: sd, Policy: coherence.WriteThrough{}, Clock: clock,
	}, 1<<33)
	if err != nil {
		t.Fatal(err)
	}
	srv.Directory().Register(ViewName, sea.Replica())

	carol := NewViewClient("carol", 2, srv.keys.SubRing(2), sea)
	if _, err := carol.Send("alice", "hello", []byte("from seattle"), 2); err != nil {
		t.Fatal(err)
	}
	// Write-through: the send is visible at every level of the chain.
	if srv.Store().InboxCount("alice") != 1 {
		t.Error("primary must see the Seattle send")
	}
	if sd.Store().InboxCount("alice") != 1 {
		t.Error("the SD view must see the Seattle send (it forwarded it)")
	}
	alice := NewClient("alice", keys, srv)
	msgs, err := alice.Receive()
	if err != nil || len(msgs) != 1 || string(msgs[0].Body) != "from seattle" {
		t.Fatalf("alice receive = %v, %v", msgs, err)
	}
}

func TestViewClientRestrictions(t *testing.T) {
	srv, _, _ := newPrimary(t, "alice", "carol")
	carol := NewViewClient("carol", 2, srv.keys.SubRing(2), srv)
	if _, err := carol.Send("alice", "s", []byte("m"), 3); err == nil {
		t.Error("view client must reject sends above its trust")
	}
	if _, err := carol.Send("alice", "s", []byte("m"), 2); err != nil {
		t.Error(err)
	}
	// A high-sensitivity message to carol is elided from her restricted
	// receive rather than failing it.
	if _, err := srv.Send("alice", "carol", "top", []byte("secret"), 5); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Send("alice", "carol", "ok", []byte("public"), 1); err != nil {
		t.Fatal(err)
	}
	msgs, err := carol.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || string(msgs[0].Body) != "public" {
		t.Errorf("restricted receive = %v", msgs)
	}
}

func TestClientDecryptionIsEndToEnd(t *testing.T) {
	srv, keys, _ := newPrimary(t, "alice", "bob")
	alice := NewClient("alice", keys, srv)
	if _, err := alice.Send("bob", "s", []byte("payload"), 2); err != nil {
		t.Fatal(err)
	}
	if alice.user != "alice" {
		t.Error("user")
	}
}

// TestRemoteOverTransportWithTunnel is the full Figure 6 data path in
// one process: client -> view (SD) -> encryptor tunnel -> primary (NY),
// with the tunnel crossing the "insecure" hop.
func TestRemoteOverTransportWithTunnel(t *testing.T) {
	srv, keys, clock := newPrimary(t, "alice", "bob")
	tr := transport.NewInProc()

	// Serve the primary behind a decryptor handler.
	channelKey, err := NewChannelKey()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tr.Serve("decryptor-ny", NewDecryptorHandler(NewHandler(srv), channelKey))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// The SD view links upstream through the encryptor endpoint.
	ep, err := tr.Dial("decryptor-ny")
	if err != nil {
		t.Fatal(err)
	}
	upstream := NewRemote(NewEncryptorEndpoint(ep, channelKey))
	view, err := NewView(ViewConfig{
		ID: "vms-sd", Trust: 4, Keys: keys.SubRing(4),
		Upstream: upstream, Policy: coherence.WriteThrough{}, Clock: clock,
	}, 1<<32)
	if err != nil {
		t.Fatal(err)
	}

	alice := NewClient("alice", keys, view)
	if _, err := alice.Send("bob", "over the tunnel", []byte("tunnelled"), 3); err != nil {
		t.Fatal(err)
	}
	if srv.Store().InboxCount("bob") != 1 {
		t.Error("send must reach the primary through the tunnel")
	}
	bob := NewClient("bob", keys, srv)
	msgs, err := bob.Receive()
	if err != nil || len(msgs) != 1 || string(msgs[0].Body) != "tunnelled" {
		t.Fatalf("receive = %v, %v", msgs, err)
	}
	// Remote API surface: contacts and account creation work end to end.
	if err := upstream.CreateAccount("dave"); err != nil {
		t.Fatal(err)
	}
	if err := upstream.AddContact("dave", "alice"); err != nil {
		t.Fatal(err)
	}
	contacts, err := upstream.Contacts("dave")
	if err != nil || len(contacts) != 1 {
		t.Errorf("remote contacts = %v, %v", contacts, err)
	}
	// Remote receive path.
	remoteMsgs, err := upstream.ReceiveCtx(context.Background(), "bob", 0)
	if err != nil || len(remoteMsgs) != 1 {
		t.Errorf("remote receive = %v, %v", remoteMsgs, err)
	}
}

func TestTunnelRejectsWrongKey(t *testing.T) {
	srv, _, _ := newPrimary(t, "alice")
	tr := transport.NewInProc()
	good, _ := NewChannelKey()
	bad, _ := NewChannelKey()
	ln, err := tr.Serve("d", NewDecryptorHandler(NewHandler(srv), good))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ep, _ := tr.Dial("d")
	remote := NewRemote(NewEncryptorEndpoint(ep, bad))
	if err := remote.CreateAccount("x"); err == nil {
		t.Error("mismatched channel keys must fail")
	}
	// Non-tunnel traffic to the decryptor fails too.
	plainEp, _ := tr.Dial("d")
	plain := NewRemote(plainEp)
	if err := plain.CreateAccount("x"); err == nil {
		t.Error("plaintext to the decryptor must be rejected")
	}
}

func TestRemoteUnknownMethod(t *testing.T) {
	srv, _, _ := newPrimary(t, "alice")
	h := NewHandler(srv)
	resp := h.Handle(&wire.Message{Kind: wire.KindRequest, Method: "nope"})
	err := transport.AsError(resp)
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Errorf("resp = %+v", resp)
	}
}

// misdirectingUpstream answers every receive with another user's inbox:
// what a faulty or hostile provider between a client and the primary
// can do.
type misdirectingUpstream struct {
	*Server
	inboxOf string
}

func (u misdirectingUpstream) ReceiveCtx(ctx context.Context, _ string, above int) ([]*Message, error) {
	return u.Server.ReceiveCtx(ctx, u.inboxOf, above)
}

// TestClientsRejectForeignEnvelopes: a client opens only envelopes
// sealed for its own user. The restricted client's key ring is a
// SubRing of the master ring, which holds every user's keys up to its
// trust, so without the check it would hand Carol Bob's plaintext.
func TestClientsRejectForeignEnvelopes(t *testing.T) {
	srv, keys, _ := newPrimary(t, "alice", "bob", "carol")
	if _, err := srv.Send("alice", "bob", "for bob", []byte("bob's secret"), 2); err != nil {
		t.Fatal(err)
	}
	up := misdirectingUpstream{Server: srv, inboxOf: "bob"}
	for name, receive := range map[string]func() ([]*Message, error){
		"Client":     NewClient("carol", keys, up).Receive,
		"ViewClient": NewViewClient("carol", 2, keys.SubRing(2), up).Receive,
	} {
		msgs, err := receive()
		if err == nil || !strings.Contains(err.Error(), `sealed for "bob"`) {
			t.Errorf("%s: carol's receive of bob's inbox = %d messages, %v; want a sealed-for-bob error", name, len(msgs), err)
		}
	}
}
