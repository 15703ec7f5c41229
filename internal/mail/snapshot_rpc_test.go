package mail

import (
	"context"
	"strings"
	"testing"

	"partsvc/internal/coherence"
	"partsvc/internal/smock"
	"partsvc/internal/spec"
	"partsvc/internal/transport"
)

// TestViewSnapshotIsCoherent: View.Snapshot flushes pending local
// writes upstream before serializing, so the snapshot never contains
// writes invisible to the primary.
func TestViewSnapshotIsCoherent(t *testing.T) {
	srv, _, clock := newPrimary(t, "alice", "bob")
	v := newTestView(t, srv, "vms", 4, coherence.CountBound{Bound: 100}, clock, 1<<32)
	if _, err := v.SendCtx(context.Background(), "alice", "bob", "s", []byte("m"), 2); err != nil {
		t.Fatal(err)
	}
	if v.Pending() == 0 {
		t.Fatal("count-bound policy should hold the write locally")
	}
	snap, err := v.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if v.Pending() != 0 {
		t.Fatal("snapshot must flush pending writes first")
	}
	if srv.Store().InboxCount("bob") != 1 {
		t.Fatal("flushed write must reach the primary before the snapshot")
	}
	restored, err := RestoreStore(snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	if restored.InboxCount("bob") != 1 {
		t.Fatalf("restored inbox = %d, want 1", restored.InboxCount("bob"))
	}
}

// snapshotRemote dials addr on tr and fetches that instance's state
// snapshot through a Remote.
func snapshotRemote(tr transport.Transport, addr string) ([]byte, error) {
	ep, err := tr.Dial(addr)
	if err != nil {
		return nil, err
	}
	r := NewRemote(ep)
	defer r.Close()
	return r.Snapshot()
}

// TestSnapshotRemoteRoundTrip: the "snapshot" wire method carries a
// view's serialized store across the transport — the controller's
// state-capture path during a cutover.
func TestSnapshotRemoteRoundTrip(t *testing.T) {
	srv, _, clock := newPrimary(t, "alice", "bob")
	v := newTestView(t, srv, "vms", 4, coherence.WriteThrough{}, clock, 1<<32)
	if _, err := v.SendCtx(context.Background(), "alice", "bob", "s", []byte("m"), 2); err != nil {
		t.Fatal(err)
	}
	tr := transport.NewInProc()
	ln, err := tr.Serve("", NewHandler(v))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	snap, err := snapshotRemote(tr, ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreStore(snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	if restored.InboxCount("bob") != 1 {
		t.Fatalf("restored inbox = %d, want 1", restored.InboxCount("bob"))
	}
}

// TestSnapshotOfStatelessComponentErrors: the restricted client's relay
// holds no migratable state and serves only send and receive; asking it
// for a snapshot is an application error, not a panic — the controller
// treats it as "redeploy stateless".
func TestSnapshotOfStatelessComponentErrors(t *testing.T) {
	srv, keys, _ := newPrimary(t, "alice", "bob")
	reg := smock.NewRegistry()
	if err := RegisterFactories(reg, &ServiceEnv{Primary: srv, Keys: keys}); err != nil {
		t.Fatal(err)
	}
	tr := transport.NewInProc()
	lnSrv, err := tr.Serve("", NewHandler(srv))
	if err != nil {
		t.Fatal(err)
	}
	defer lnSrv.Close()
	up, err := tr.Dial(lnSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	relay, err := reg.Activate(spec.CompViewMailClient, &smock.ActivationContext{
		Upstreams: map[string]transport.Endpoint{spec.IfaceServer: up},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tr.Serve("", relay)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	_, err = snapshotRemote(tr, ln.Addr())
	if err == nil || !strings.Contains(err.Error(), "not available in the restricted client") {
		t.Fatalf("err = %v, want the restricted client's refusal", err)
	}
}
