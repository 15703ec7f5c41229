package mail

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"partsvc/internal/coherence"
)

// jitteryUpstream delivers every pushed batch to the primary after a
// short random delay — what a real network between the view and the
// primary does to two pushes in flight at once — and can be told to
// fail every n-th push before it is delivered.
type jitteryUpstream struct {
	*Server
	failEvery int64 // 0 = never
	pushes    atomic.Int64
	inFlight  atomic.Int64
	overlap   atomic.Int64 // pushes that began while another was in flight
}

func (u *jitteryUpstream) PushUpdatesCtx(ctx context.Context, batch []coherence.Update) error {
	if u.inFlight.Add(1) > 1 {
		u.overlap.Add(1)
	}
	defer u.inFlight.Add(-1)
	time.Sleep(time.Duration(rand.Intn(200)) * time.Microsecond)
	if n := u.pushes.Add(1); u.failEvery > 0 && n%u.failEvery == 0 {
		return errors.New("transport: closed")
	}
	return u.Server.PushUpdatesCtx(ctx, batch)
}

// inboxIDs counts how often each message ID sits in the user's inbox at
// the primary.
func inboxIDs(t *testing.T, srv *Server, user string) map[uint64]int {
	t.Helper()
	msgs, err := srv.Store().Folder(user, FolderInbox)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[uint64]int{}
	for _, m := range msgs {
		ids[m.ID]++
	}
	return ids
}

// sendConcurrently runs senders goroutines of perSender write-through
// sends each through v and returns the acknowledged IDs and the number
// of sends that reported an error.
func sendConcurrently(v *View, senders, perSender int) (acked []uint64, failed int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				id, err := v.SendCtx(context.Background(), "alice", "bob", "s", []byte("body"), 2)
				mu.Lock()
				if err != nil {
					failed++
				} else {
					acked = append(acked, id)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return acked, failed
}

// TestConcurrentWriteThroughSendersLoseNothing (ROADMAP bug i): two
// plain concurrent write-through senders through one view. Every
// acknowledged send must be at the primary exactly once — which takes
// one flush in flight per view, because the primary's per-origin
// sequence dedupe drops a batch that arrives after a later one.
func TestConcurrentWriteThroughSendersLoseNothing(t *testing.T) {
	srv, _, clock := newPrimary(t, "alice", "bob")
	up := &jitteryUpstream{Server: srv}
	v, err := NewView(ViewConfig{
		ID: "vms", Trust: 4, Keys: srv.keys.SubRing(4),
		Upstream: up, Policy: coherence.WriteThrough{}, Clock: clock,
	}, 1<<32)
	if err != nil {
		t.Fatal(err)
	}
	acked, failed := sendConcurrently(v, 2, 100)
	if failed != 0 {
		t.Fatalf("%d sends failed against a healthy upstream", failed)
	}
	at := inboxIDs(t, srv, "bob")
	for _, id := range acked {
		if at[id] != 1 {
			t.Errorf("acknowledged send %d is at the primary %d times, want exactly once", id, at[id])
		}
	}
	if len(at) != len(acked) {
		t.Errorf("primary holds %d distinct messages for %d acknowledged sends", len(at), len(acked))
	}
	if n := up.overlap.Load(); n != 0 {
		t.Errorf("%d pushes began while another push of the same view was in flight", n)
	}
	if v.Pending() != 0 {
		t.Errorf("%d updates still pending after every write-through send returned", v.Pending())
	}
}

// TestFailedPushAcknowledgesNoRider: when a push fails, the sender that
// made it hears the error and its update is dropped with it — but an
// update of another sender that rode the same batch must not be
// acknowledged on the strength of that push. It goes back to the head
// of the queue and its own sender pushes it.
func TestFailedPushAcknowledgesNoRider(t *testing.T) {
	srv, _, clock := newPrimary(t, "alice", "bob")
	up := &jitteryUpstream{Server: srv, failEvery: 3}
	v, err := NewView(ViewConfig{
		ID: "vms", Trust: 4, Keys: srv.keys.SubRing(4),
		Upstream: up, Policy: coherence.WriteThrough{}, Clock: clock,
	}, 1<<32)
	if err != nil {
		t.Fatal(err)
	}
	acked, failed := sendConcurrently(v, 6, 50)
	if failed == 0 {
		t.Fatal("the failing upstream failed nobody: the scenario did not run")
	}
	at := inboxIDs(t, srv, "bob")
	for _, id := range acked {
		if at[id] != 1 {
			t.Errorf("acknowledged send %d is at the primary %d times, want exactly once", id, at[id])
		}
	}
	// A failed push is never delivered here, so what the primary holds is
	// exactly what was acknowledged: nothing lost, and nothing a sender
	// was told had failed.
	if len(at) != len(acked) {
		t.Errorf("primary holds %d distinct messages for %d acknowledged sends (%d failed)", len(at), len(acked), failed)
	}
	if v.Pending() != 0 {
		t.Errorf("%d updates still pending after every sender returned", v.Pending())
	}
}

// TestFailedFlushKeepsUnacknowledgedWrites: under a deferring policy
// nobody is waiting on the writes a flush carries, so a failed push
// drops none of them — the next flush delivers them in order.
func TestFailedFlushKeepsUnacknowledgedWrites(t *testing.T) {
	srv, _, clock := newPrimary(t, "alice", "bob")
	up := &jitteryUpstream{Server: srv, failEvery: 1}
	v, err := NewView(ViewConfig{
		ID: "vms", Trust: 4, Keys: srv.keys.SubRing(4),
		Upstream: up, Policy: coherence.None{}, Clock: clock,
	}, 1<<32)
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for i := 0; i < 3; i++ {
		id, err := v.SendCtx(context.Background(), "alice", "bob", "s", []byte("body"), 2)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := v.Flush(); err == nil {
		t.Fatal("the push must fail")
	}
	if v.Pending() != 3 {
		t.Fatalf("%d updates pending after the failed flush, want all 3 kept", v.Pending())
	}
	up.failEvery = 0
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	msgs, err := srv.Store().Folder("bob", FolderInbox)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 3 {
		t.Fatalf("primary holds %d messages, want 3", len(msgs))
	}
	for i, m := range msgs {
		if m.ID != ids[i] {
			t.Errorf("message %d at the primary is %d, want %d (sequence order)", i, m.ID, ids[i])
		}
	}
}
