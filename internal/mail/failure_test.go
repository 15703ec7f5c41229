package mail

import (
	"context"
	"strings"
	"testing"

	"partsvc/internal/coherence"
	"partsvc/internal/smock"
	"partsvc/internal/spec"
	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

// Failure-injection and edge-path tests for the mail components: what
// happens when tunnels break mid-session, updates arrive malformed, or
// factories are activated with incomplete contexts.

func TestViewOperationsDelegation(t *testing.T) {
	srv, keys, clock := newPrimary(t)
	v := newTestView(t, srv, "vms", 3, coherence.None{}, clock, 1<<32)
	if v.trust != 3 {
		t.Errorf("trust = %d", v.trust)
	}
	// Account creation flows upstream and mirrors locally.
	if err := v.CreateAccount("dave"); err != nil {
		t.Fatal(err)
	}
	if !srv.Store().HasAccount("dave") || !v.Store().HasAccount("dave") {
		t.Error("account must exist at both levels")
	}
	if err := v.AddContact("dave", "erin"); err != nil {
		t.Fatal(err)
	}
	got, err := v.Contacts("dave")
	if err != nil || len(got) != 1 || got[0] != "erin" {
		t.Errorf("contacts = %v, %v", got, err)
	}
	// Write-through of the contact to the primary happens on flush; the
	// None policy defers forever until explicit flush.
	if c, _ := srv.Contacts("dave"); len(c) != 0 {
		t.Error("contact must not reach the primary before flush under None")
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	if c, _ := srv.Contacts("dave"); len(c) != 1 {
		t.Error("contact must reach the primary after flush")
	}
	_ = keys
}

func TestViewFlushFailureSurfaces(t *testing.T) {
	srv, keys, clock := newPrimary(t, "alice", "bob")
	tr := transport.NewInProc()
	key, err := NewChannelKey()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tr.Serve("d", NewDecryptorHandler(NewHandler(srv), key))
	if err != nil {
		t.Fatal(err)
	}
	ep, err := tr.Dial("d")
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(ViewConfig{
		ID: "vms", Trust: 4, Keys: keys.SubRing(4),
		Upstream: NewRemote(NewEncryptorEndpoint(ep, key)),
		Policy:   coherence.WriteThrough{}, Clock: clock,
	}, 1<<32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.SendCtx(context.Background(), "alice", "bob", "ok", []byte("works"), 2); err != nil {
		t.Fatal(err)
	}
	// The tunnel's provider goes away: write-through sends now fail
	// loudly instead of losing mail.
	ln.Close()
	if _, err := v.SendCtx(context.Background(), "alice", "bob", "broken", []byte("lost?"), 2); err == nil {
		t.Fatal("send through a dead tunnel must fail")
	} else if !strings.Contains(err.Error(), "flush") {
		t.Errorf("error should identify the flush path: %v", err)
	}
	// The failed batch was taken from the replica; the mail is filed
	// locally (the view still serves reads) even though propagation
	// failed — a deliberate at-least-locally semantic, visible to tests.
	if v.Store().InboxCount("bob") != 2 {
		t.Errorf("local store = %d messages", v.Store().InboxCount("bob"))
	}
}

func TestApplyUpdateIgnoresMalformedData(t *testing.T) {
	store := NewStore(0)
	store.EnsureAccount("alice")
	// Garbage send payload: ignored rather than panicking.
	applyUpdate(store, coherence.Update{Op: "send", Key: "alice", Data: []byte{0xff, 0x01}})
	if store.InboxCount("alice") != 0 {
		t.Error("malformed update must be ignored")
	}
	// Unknown op: ignored.
	applyUpdate(store, coherence.Update{Op: "compact", Key: "alice"})
	// Malformed contact key (no separator): ignored.
	applyUpdate(store, coherence.Update{Op: "addContact", Key: "no-separator"})
	if c, _ := store.Contacts("alice"); len(c) != 0 {
		t.Errorf("contacts = %v", c)
	}
	// Valid contact key applies.
	applyUpdate(store, coherence.Update{Op: "addContact", Key: "alice\x00bob"})
	if c, _ := store.Contacts("alice"); len(c) != 1 {
		t.Errorf("contacts = %v", c)
	}
}

// TestReplicatedSendOutsideTheLevelsIsDropped: a pushUpdates batch
// reaching the primary over NewHandler carries a send relabelled to
// sensitivity 9. The primary's store has no ceiling, so only the
// message decoder stands between that update and bob's inbox: it must
// drop the update like any other that does not decode, or every later
// receive of bob's fails transforming to a level no key exists for.
func TestReplicatedSendOutsideTheLevelsIsDropped(t *testing.T) {
	srv, keys, _ := newPrimary(t, "alice", "bob")
	if _, err := srv.Send("alice", "bob", "ok", []byte("valid"), 2); err != nil {
		t.Fatal(err)
	}
	env, err := keys.Seal("alice", 2, []byte("relabelled"))
	if err != nil {
		t.Fatal(err)
	}
	bad := appendMessage(nil, &Message{ID: 77, From: "alice", To: "bob", Subject: "bad", Body: env.Marshal(), Sensitivity: 9})
	up := NewRemote(&callEndpoint{h: NewHandler(srv)})
	if err := up.PushUpdatesCtx(context.Background(), []coherence.Update{{Origin: "vms", Seq: 1, Op: "send", Key: "bob", Data: bad}}); err != nil {
		t.Fatal(err)
	}
	if n := srv.Store().InboxCount("bob"); n != 1 {
		t.Errorf("bob's inbox holds %d messages, want the one valid message", n)
	}
	msgs, err := NewClient("bob", keys, srv).Receive()
	if err != nil || len(msgs) != 1 || string(msgs[0].Body) != "valid" {
		t.Errorf("bob's receive = %d messages, %v; want his one valid message", len(msgs), err)
	}
}

func TestClientAccessors(t *testing.T) {
	srv, keys, _ := newPrimary(t, "alice")
	c := NewViewClient("alice", 2, keys.SubRing(2), srv)
	if c.user != "alice" {
		t.Error("ViewClient.User")
	}
}

func TestRemoteCloseAndTunnelClose(t *testing.T) {
	srv, _, _ := newPrimary(t, "alice")
	tr := transport.NewInProc()
	key, _ := NewChannelKey()
	ln, err := tr.Serve("d", NewDecryptorHandler(NewHandler(srv), key))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ep, _ := tr.Dial("d")
	enc := NewEncryptorEndpoint(ep, key)
	remote := NewRemote(enc)
	if err := remote.CreateAccount("x"); err != nil {
		t.Fatal(err)
	}
	if err := remote.Close(); err != nil {
		t.Fatal(err)
	}
	if err := remote.CreateAccount("y"); err == nil {
		t.Error("closed remote must fail")
	}
}

// TestFactoriesValidation drives each factory's error paths directly.
func TestFactoriesValidation(t *testing.T) {
	srv, keys, _ := newPrimary(t, "alice")
	reg := smock.NewRegistry()
	if err := RegisterFactories(reg, &ServiceEnv{}); err == nil {
		t.Error("empty environment must be rejected")
	}
	if err := RegisterFactories(reg, &ServiceEnv{Primary: srv, Keys: keys}); err != nil {
		t.Fatal(err)
	}
	// View without factored trust.
	if _, err := reg.Activate(spec.CompViewMailServer, &smock.ActivationContext{}); err == nil {
		t.Error("view without TrustLevel must fail")
	}
	// Encryptor without upstream or secret.
	if _, err := reg.Activate(spec.CompEncryptor, &smock.ActivationContext{}); err == nil {
		t.Error("encryptor without upstream must fail")
	}
	// Decryptor without secret.
	tr := transport.NewInProc()
	lnSrv, err := tr.Serve("up", NewHandler(srv))
	if err != nil {
		t.Fatal(err)
	}
	defer lnSrv.Close()
	up, _ := tr.Dial("up")
	if _, err := reg.Activate(spec.CompDecryptor, &smock.ActivationContext{
		Upstreams: map[string]transport.Endpoint{spec.IfaceServer: up},
	}); err == nil {
		t.Error("decryptor without edge secret must fail")
	}
	// Clients without upstreams.
	if _, err := reg.Activate(spec.CompMailClient, &smock.ActivationContext{}); err == nil {
		t.Error("client without upstream must fail")
	}
	if _, err := reg.Activate(spec.CompViewMailClient, &smock.ActivationContext{}); err == nil {
		t.Error("view client without upstream must fail")
	}
}

// TestRelayHandlerErrorPath: a relay whose endpoint dies reports the
// transport failure as a wire error response.
func TestRelayHandlerErrorPath(t *testing.T) {
	tr := transport.NewInProc()
	ln, err := tr.Serve("x", transport.HandlerFunc(func(m *wire.Message) *wire.Message {
		return &wire.Message{Kind: wire.KindResponse, ID: m.ID}
	}))
	if err != nil {
		t.Fatal(err)
	}
	ep, _ := tr.Dial("x")
	relay := relayHandler(ep)
	if resp := relay.Handle(&wire.Message{Kind: wire.KindRequest}); transport.AsError(resp) != nil {
		t.Fatalf("healthy relay failed: %v", transport.AsError(resp))
	}
	ln.Close()
	resp := relay.Handle(&wire.Message{Kind: wire.KindRequest})
	if transport.AsError(resp) == nil {
		t.Error("dead relay must produce an error response")
	}
}

// TestStoreSnapshotRoundTrip: full state migrates byte-faithfully.
func TestStoreSnapshotRoundTrip(t *testing.T) {
	srv, keys, _ := newPrimary(t, "alice", "bob")
	if _, err := srv.Send("alice", "bob", "one", []byte("m1"), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Send("alice", "bob", "two", []byte("m2"), 4); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddContact("alice", "bob"); err != nil {
		t.Fatal(err)
	}
	snap, err := srv.Store().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreStore(snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	if restored.InboxCount("bob") != 2 {
		t.Errorf("restored inbox = %d", restored.InboxCount("bob"))
	}
	c, err := restored.Contacts("alice")
	if err != nil || len(c) != 1 {
		t.Errorf("restored contacts = %v, %v", c, err)
	}
	// IDs continue where the source left off (no collisions after
	// migration).
	if restored.AssignID() != srv.Store().AssignID() {
		t.Error("ID counters must match after restore")
	}
	// Restored messages remain transformable and decryptable.
	msgs, err := receiveFrom(restored, keys, "bob", 0)
	if err != nil || len(msgs) != 2 {
		t.Fatalf("receive from restored store = %v, %v", msgs, err)
	}
}

// TestStoreSnapshotShedsHighSensitivity: restoring onto a low-trust
// destination drops exactly the over-ceiling messages.
func TestStoreSnapshotShedsHighSensitivity(t *testing.T) {
	srv, _, _ := newPrimary(t, "alice", "bob")
	if _, err := srv.Send("alice", "bob", "low", []byte("ok"), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Send("alice", "bob", "high", []byte("secret"), 5); err != nil {
		t.Fatal(err)
	}
	snap, err := srv.Store().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreStore(snap, 2)
	if err != nil {
		t.Fatal(err)
	}
	if restored.InboxCount("bob") != 1 {
		t.Errorf("trust-2 restore must shed the level-5 message: inbox = %d", restored.InboxCount("bob"))
	}
}

// TestRestoreStoreErrors: malformed snapshots fail loudly.
func TestRestoreStoreErrors(t *testing.T) {
	if _, err := RestoreStore([]byte{0x7f}, 0); err == nil {
		t.Error("garbage must fail")
	}
	srv, _, _ := newPrimary(t, "alice", "bob")
	if _, err := srv.Send("alice", "bob", "s", []byte("m"), 2); err != nil {
		t.Fatal(err)
	}
	snap, err := srv.Store().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreStore(snap[:len(snap)-1], 0); err == nil {
		t.Error("a truncated snapshot must fail")
	}
	if _, err := RestoreStore(append(snap, 0), 0); err == nil {
		t.Error("trailing bytes must fail")
	}
}

// TestViewMigrationViaSnapshot: a view's state rides the ViewConfig
// Snapshot into a replacement instance on another node.
func TestViewMigrationViaSnapshot(t *testing.T) {
	srv, keys, clock := newPrimary(t, "alice", "bob")
	src := newTestView(t, srv, "vms-src", 4, coherence.None{}, clock, 1<<32)
	if _, err := src.SendCtx(context.Background(), "alice", "bob", "cached", []byte("m"), 2); err != nil {
		t.Fatal(err)
	}
	snap, err := src.Store().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewView(ViewConfig{
		ID: "vms-dst", Trust: 4, Keys: keys.SubRing(4),
		Upstream: srv, Policy: coherence.None{}, Clock: clock,
		Snapshot: snap,
	}, 1<<33)
	if err != nil {
		t.Fatal(err)
	}
	if dst.Store().InboxCount("bob") != 1 {
		t.Error("migrated view must carry the cached message")
	}
	bob := NewClient("bob", keys, dst)
	msgs, err := bob.Receive()
	if err != nil || len(msgs) != 1 || string(msgs[0].Body) != "m" {
		t.Fatalf("receive at migrated view = %v, %v", msgs, err)
	}
}
