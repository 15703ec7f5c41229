package mail

import (
	"strings"
	"testing"

	"partsvc/internal/coherence"
	"partsvc/internal/transport"
)

// TestViewSnapshotIsCoherent: View.Snapshot flushes pending local
// writes upstream before serializing, so the snapshot never contains
// writes invisible to the primary.
func TestViewSnapshotIsCoherent(t *testing.T) {
	srv, _, clock := newPrimary(t, "alice", "bob")
	v := newTestView(t, srv, "vms", 4, coherence.CountBound{Bound: 100}, clock, 1<<32)
	if _, err := v.Send("alice", "bob", "s", []byte("m"), 2); err != nil {
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
	if _, err := v.Send("alice", "bob", "s", []byte("m"), 2); err != nil {
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

// TestSnapshotOfStatelessComponentErrors: relays hold no migratable
// state; asking one for a snapshot is an application error, not a
// panic — the controller treats it as "redeploy stateless".
func TestSnapshotOfStatelessComponentErrors(t *testing.T) {
	srv, _, clock := newPrimary(t, "alice", "bob")
	v := newTestView(t, srv, "vms", 4, coherence.WriteThrough{}, clock, 1<<32)
	// Model a relay: forwards the full Upstream API, holds no store.
	relay := struct{ Upstream }{v}
	tr := transport.NewInProc()
	ln, err := tr.Serve("", NewHandler(relay))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	_, err = snapshotRemote(tr, ln.Addr())
	if err == nil || !strings.Contains(err.Error(), "no migratable state") {
		t.Fatalf("err = %v, want a no-migratable-state failure", err)
	}
}
