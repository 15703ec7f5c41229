package mail

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"partsvc/internal/coherence"
	"partsvc/internal/seccrypto"
	"partsvc/internal/trace"
	"partsvc/internal/transport"
)

// Upstream is what a view links to and what NewHandler serves: the full
// mail API plus the coherence push path and the migration snapshot. The
// primary Server, another View, and Remote (over any endpoint, the
// encryptor tunnel included) all satisfy it.
type Upstream interface {
	API
	// PushUpdatesCtx applies a downstream replica's flushed batch.
	PushUpdatesCtx(ctx context.Context, batch []coherence.Update) error
	// Snapshot serializes the provider's store for migration.
	Snapshot() ([]byte, error)
}

// PushUpdatesCtx applies a batch at the primary under a
// "coherence.apply" span and republishes it to the other replicas
// (directory fan-out).
func (s *Server) PushUpdatesCtx(ctx context.Context, batch []coherence.Update) error {
	_, span := trace.Start(ctx, "coherence.apply")
	if span != nil {
		span.SetAttr("updates", strconv.Itoa(len(batch)))
	}
	// ApplyRemote marks the batch applied exactly once and invokes the
	// store-apply callback; Publish forwards to sibling replicas.
	s.replica.ApplyRemote(batch)
	s.dir.Publish(ViewName, batch)
	span.End()
	return nil
}

// View is the ViewMailServer component: a data view of the MailServer
// holding only messages whose sensitivity its node's trust level
// permits, kept coherent with the primary through a pluggable
// weak-consistency policy.
type View struct {
	id       string
	store    *Store
	keys     *seccrypto.KeyRing
	clock    transport.Clock
	upstream Upstream
	replica  *coherence.Replica
	trust    int
	// flushMu serializes flushes, and guards pushedSeq, the highest local
	// sequence number a push has delivered: see flushCtx.
	flushMu   sync.Mutex
	pushedSeq uint64
}

// ViewConfig configures a view instance.
type ViewConfig struct {
	// ID identifies the replica in the coherence directory (e.g.
	// "vms@sd-2").
	ID string
	// Trust is the node's trust level: both the store ceiling and the
	// key-escrow bound (the Factors clause TrustLevel=Node.TrustLevel).
	Trust int
	// Keys is the escrowed key ring; it must not hold keys above Trust.
	Keys *seccrypto.KeyRing
	// Upstream is the provider the view links to.
	Upstream Upstream
	// Policy is the coherence policy for local writes.
	Policy coherence.Policy
	// Clock provides time for timestamps and time-driven policies.
	Clock transport.Clock
	// Snapshot, when non-nil, seeds the view's store from a migrated
	// instance's serialized state (Store.Snapshot); messages above the
	// destination trust are shed on restore.
	Snapshot []byte
}

// NewView builds a view instance. idBase offsets locally assigned
// message IDs so replicas never collide with the primary or each other.
func NewView(cfg ViewConfig, idBase uint64) (*View, error) {
	if cfg.Trust < 1 {
		return nil, fmt.Errorf("mail: view trust %d must be >= 1", cfg.Trust)
	}
	if cfg.Keys == nil || cfg.Keys.MaxLevelAllowed() > cfg.Trust {
		return nil, fmt.Errorf("mail: view %q key escrow exceeds node trust %d", cfg.ID, cfg.Trust)
	}
	if cfg.Upstream == nil {
		return nil, fmt.Errorf("mail: view %q has no upstream", cfg.ID)
	}
	if cfg.Policy == nil {
		cfg.Policy = coherence.WriteThrough{}
	}
	store := NewStore(cfg.Trust)
	if cfg.Snapshot != nil {
		restored, err := RestoreStore(cfg.Snapshot, cfg.Trust)
		if err != nil {
			return nil, fmt.Errorf("mail: view %q: %w", cfg.ID, err)
		}
		store = restored
	}
	store.nextID = idBase
	v := &View{
		id:       cfg.ID,
		store:    store,
		keys:     cfg.Keys,
		clock:    cfg.Clock,
		upstream: cfg.Upstream,
		trust:    cfg.Trust,
	}
	v.replica = coherence.NewReplica(cfg.ID, cfg.Policy, func(u coherence.Update) {
		applyUpdate(store, u)
	})
	return v, nil
}

// Replica exposes the coherence agent for directory registration.
func (v *View) Replica() *coherence.Replica { return v.replica }

// Store exposes the view's partial store (for tests and tools).
func (v *View) Store() *Store { return v.store }

// CreateAccount delegates account creation to the primary (keys are
// generated there) and mirrors the account locally.
func (v *View) CreateAccount(user string) error {
	if err := v.upstream.CreateAccount(user); err != nil {
		return err
	}
	v.store.EnsureAccount(user)
	return nil
}

// SendCtx files the message locally when its sensitivity is within the
// node's trust (sealing with the escrowed key) and logs a coherence
// write; messages above the ceiling are forwarded upstream untouched —
// they must neither be stored nor sealed here ("this influences whether
// or not messages of a given sensitivity level are sent to or stored in
// the corresponding ViewMailServer"). The policy decides when pending
// writes flush upstream; forwards and flushes parent on ctx's span.
func (v *View) SendCtx(ctx context.Context, from, to, subject string, body []byte, sensitivity int) (uint64, error) {
	if !v.store.Admissible(sensitivity) {
		return v.upstream.SendCtx(ctx, from, to, subject, body, sensitivity)
	}
	m, data, err := sealMessage(v.keys, v.store, from, to, subject, body, sensitivity, v.clock.NowMS())
	if err != nil {
		return 0, err
	}
	if err := v.store.deliver(m); err != nil {
		return 0, err
	}
	if seq, flush := v.replica.Write("send", m.To, data, v.clock.NowMS()); flush {
		if err := v.flushCtx(ctx, seq); err != nil {
			return 0, fmt.Errorf("mail: view flush: %w", err)
		}
	}
	return m.ID, nil
}

// ReceiveCtx serves the user's inbox above the floor from the local
// replica (the cache hit path) and fetches from upstream only messages
// above the view's ceiling — those are never stored locally. The view
// answers from its own store what it may hold and asks upstream only
// for the rest,
// sensitivity above max(above, trust): along a chain of views every
// message is returned by exactly one store, and the link carries what
// this node may not keep. An upstream failure fails the receive — the
// local messages alone would pass for the whole inbox.
func (v *View) ReceiveCtx(ctx context.Context, user string, above int) ([]*Message, error) {
	v.store.EnsureAccount(user)
	local, err := receiveFrom(v.store, v.keys, user, above)
	if err != nil {
		return nil, err
	}
	floor := max(above, v.trust)
	if floor >= seccrypto.MaxLevel {
		// Nothing can exceed the floor; the receive is fully local.
		return local, nil
	}
	// An upstream that has never heard of the user answers a floored
	// receive with no messages, so any error here is a real one.
	remote, err := v.upstream.ReceiveCtx(ctx, user, floor)
	if err != nil {
		return nil, fmt.Errorf("mail: view %s: receiving above level %d from upstream: %w", v.id, floor, err)
	}
	return append(local, remote...), nil
}

// AddContact updates the local address book and logs a coherence write.
func (v *View) AddContact(user, contact string) error {
	v.store.EnsureAccount(user)
	if err := v.store.AddContact(user, contact); err != nil {
		return err
	}
	if seq, flush := v.replica.Write("addContact", user+"\x00"+contact, nil, v.clock.NowMS()); flush {
		return v.flushCtx(context.Background(), seq)
	}
	return nil
}

// Contacts reads the local address book.
func (v *View) Contacts(user string) ([]string, error) {
	return v.store.Contacts(user)
}

// Flush pushes all pending writes upstream immediately.
func (v *View) Flush() error { return v.flushCtx(context.Background(), 0) }

// flushCtx pushes pending writes upstream under a "coherence.flush"
// span, so traces show which operation paid for the synchronization.
// own is the sequence number of the write the caller is flushing for (0
// for a flush nobody's write is waiting on).
//
// One flush is in flight per view: batches carry increasing per-origin
// sequence numbers and the receiving replica drops anything at or below
// the highest it has applied, so two pushes reaching the primary out of
// order would silently lose the earlier batch. A sender whose update
// rode another sender's batch waits here until that batch was pushed,
// and is done: what is pending by then belongs to other senders. When a
// push fails only the caller hears of it, so only its own update is
// dropped with the error (its retry is a new write); the rest of the
// batch goes back to the head of the queue, where the senders waiting
// here push it themselves — a send is never acknowledged on the
// strength of a push that failed, nor failed by a push that did not
// carry it.
func (v *View) flushCtx(ctx context.Context, own uint64) error {
	v.flushMu.Lock()
	defer v.flushMu.Unlock()
	if own != 0 && own <= v.pushedSeq {
		return nil
	}
	batch := v.replica.TakePending(v.clock.NowMS())
	if len(batch) == 0 {
		return nil
	}
	ctx, span := trace.Start(ctx, "coherence.flush")
	if span != nil {
		span.SetAttr("updates", strconv.Itoa(len(batch)))
	}
	err := v.upstream.PushUpdatesCtx(ctx, batch)
	span.End()
	if err != nil {
		v.replica.Requeue(batch, own)
		return err
	}
	v.pushedSeq = batch[len(batch)-1].Seq
	return nil
}

// Pending returns the number of unpropagated local writes.
func (v *View) Pending() int { return v.replica.Pending() }

// Snapshot flushes pending writes upstream, then serializes the view's
// store for migration: the snapshot is coherent — nothing
// in it is still waiting to propagate — so a successor seeded from it
// starts with no invisible writes.
func (v *View) Snapshot() ([]byte, error) {
	if err := v.Flush(); err != nil {
		return nil, fmt.Errorf("mail: pre-snapshot flush: %w", err)
	}
	return v.store.Snapshot()
}

// PushUpdatesCtx lets this view serve as the upstream of another view
// (the Seattle-to-San-Diego chaining of Figure 6): the batch is applied
// locally (subject to the sensitivity ceiling) and forwarded toward the
// primary.
func (v *View) PushUpdatesCtx(ctx context.Context, batch []coherence.Update) error {
	v.replica.ApplyRemote(batch)
	return v.upstream.PushUpdatesCtx(ctx, batch)
}
