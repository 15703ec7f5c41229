// Package coherence implements Smock's cache coherence layer (HPDC'02,
// Section 3.2): replicated component instances are kept consistent at
// the granularity of views using a directory-based protocol. Coherence
// actions are triggered by dynamic conflict maps and pluggable
// weak-consistency policies — write-through, count-bound ("limit the
// number of unpropagated messages at each replica", the knob behind the
// paper's DS500/DS1000 scenarios), time-driven, and none.
//
// The package is pure coordination logic over an abstract update log:
// the Smock run-time drives it with wall-clock time and real transports,
// while the benchmark harness drives it inside the discrete-event
// simulator. Times are float64 milliseconds on whichever clock the
// caller uses.
package coherence

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Update is one logged write awaiting propagation between replicas.
type Update struct {
	// Origin identifies the replica that performed the write.
	Origin string
	// Seq is the origin-local sequence number (1-based, dense).
	Seq uint64
	// Op names the operation (conflict maps are keyed on it).
	Op string
	// Key identifies the object written (e.g. a mailbox name).
	Key string
	// Data is the opaque update payload.
	Data []byte
	// TimeMS is the origin-clock time of the write.
	TimeMS float64
}

// Policy decides when a replica must propagate its pending updates.
// Implementations must be stateless (all state lives in the replica) so
// one policy value can serve many replicas.
type Policy interface {
	// FlushOnWrite reports whether the replica must flush immediately
	// after queuing a write, given the pending count (including the new
	// write).
	FlushOnWrite(pending int) bool
	// NextDeadline returns the next time-driven flush deadline after
	// lastFlushMS; ok is false if the policy is not time-driven.
	NextDeadline(lastFlushMS float64) (deadline float64, ok bool)
	// String names the policy for logs and experiment tables.
	String() string
}

// WriteThrough propagates every write synchronously.
type WriteThrough struct{}

// FlushOnWrite always reports true.
func (WriteThrough) FlushOnWrite(int) bool { return true }

// NextDeadline reports no time-driven flushes.
func (WriteThrough) NextDeadline(float64) (float64, bool) { return 0, false }

func (WriteThrough) String() string { return "write-through" }

// CountBound flushes when the number of unpropagated updates reaches
// Bound — the paper's "protocol that limits the number of unpropagated
// messages at each replica".
type CountBound struct {
	// Bound is the maximum number of unpropagated updates (>= 1).
	Bound int
}

// FlushOnWrite reports true once pending reaches the bound.
func (p CountBound) FlushOnWrite(pending int) bool { return pending >= p.Bound }

// NextDeadline reports no time-driven flushes.
func (CountBound) NextDeadline(float64) (float64, bool) { return 0, false }

func (p CountBound) String() string { return fmt.Sprintf("count-bound(%d)", p.Bound) }

// Periodic flushes every PeriodMS milliseconds (time-driven
// consistency).
type Periodic struct {
	// PeriodMS is the flush period.
	PeriodMS float64
}

// FlushOnWrite never flushes on writes.
func (Periodic) FlushOnWrite(int) bool { return false }

// NextDeadline returns lastFlushMS + PeriodMS.
func (p Periodic) NextDeadline(lastFlushMS float64) (float64, bool) {
	return lastFlushMS + p.PeriodMS, true
}

func (p Periodic) String() string { return fmt.Sprintf("periodic(%vms)", p.PeriodMS) }

// None never propagates: replicas drift (the DS0/SS0 scenarios, where
// coherence overhead is excluded from measurement).
type None struct{}

// FlushOnWrite never flushes.
func (None) FlushOnWrite(int) bool { return false }

// NextDeadline reports no deadlines.
func (None) NextDeadline(float64) (float64, bool) { return 0, false }

func (None) String() string { return "none" }

// Replica is the coherence agent attached to one replicated view
// instance: it logs local writes, decides when the policy requires a
// flush, and applies remote updates exactly once.
type Replica struct {
	mu sync.Mutex
	// id identifies this replica in the directory.
	id string
	// policy is the replica's weak-consistency policy.
	policy Policy
	// pending holds local updates not yet propagated.
	pending []Update
	// seq is the last local sequence number assigned.
	seq uint64
	// lastFlushMS is the time of the last flush (for periodic policies).
	lastFlushMS float64
	// appliedSeq tracks the highest applied sequence per origin, for
	// exactly-once application.
	appliedSeq map[string]uint64
	// applyFn is invoked for each remote update accepted.
	applyFn func(Update)
}

// NewReplica returns a replica agent. applyFn, when non-nil, receives
// each accepted remote update (in order per origin).
func NewReplica(id string, policy Policy, applyFn func(Update)) *Replica {
	return &Replica{id: id, policy: policy, applyFn: applyFn, appliedSeq: map[string]uint64{}}
}

// ID returns the replica identity.
func (r *Replica) ID() string { return r.id }

// Policy returns the replica's policy.
func (r *Replica) Policy() Policy { return r.policy }

// Write logs a local update, returning its sequence number and whether
// the policy demands an immediate flush.
func (r *Replica) Write(op, key string, data []byte, nowMS float64) (seq uint64, flush bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	r.pending = append(r.pending, Update{
		Origin: r.id, Seq: r.seq, Op: op, Key: key, Data: data, TimeMS: nowMS,
	})
	return r.seq, r.policy.FlushOnWrite(len(r.pending))
}

// Pending returns the number of unpropagated updates.
func (r *Replica) Pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// TakePending removes and returns all unpropagated updates, recording
// nowMS as the flush time. Callers deliver the batch to the directory.
func (r *Replica) TakePending(nowMS float64) []Update {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.pending
	r.pending = nil
	r.lastFlushMS = nowMS
	return out
}

// Requeue returns a taken batch whose delivery failed to the head of
// the pending queue, ahead of anything written since, so the next flush
// carries it in sequence order. The local update numbered except (0 for
// none) is left out: its writer is told of the failure instead, and
// whatever it does next is a new write.
func (r *Replica) Requeue(batch []Update, except uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := make([]Update, 0, len(batch)+len(r.pending))
	for _, u := range batch {
		if u.Origin != r.id || u.Seq != except {
			kept = append(kept, u)
		}
	}
	r.pending = append(kept, r.pending...)
}

// NextDeadline exposes the policy's next time-driven flush after the
// last flush.
func (r *Replica) NextDeadline() (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.policy.NextDeadline(r.lastFlushMS)
}

// ApplyRemote applies a batch of updates from other replicas, returning
// how many were new (duplicates and own-origin updates are skipped).
// Updates must arrive in per-origin sequence order, as the directory
// guarantees.
func (r *Replica) ApplyRemote(batch []Update) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	applied := 0
	for _, u := range batch {
		if u.Origin == r.id {
			continue
		}
		if u.Seq <= r.appliedSeq[u.Origin] {
			continue
		}
		r.appliedSeq[u.Origin] = u.Seq
		if r.applyFn != nil {
			r.applyFn(u)
		}
		applied++
	}
	return applied
}

// Directory is the coherence directory for one service: it tracks the
// replicas of each view and fans flushed batches out to the others
// (directory-based protocol, Section 3.2).
type Directory struct {
	mu    sync.Mutex
	views map[string]map[string]*Replica
	// log retains all updates per view in arrival order so that newly
	// registered replicas can catch up.
	log map[string][]Update

	// Fan-out counters (atomic; read by DirectoryStats).
	publishes        atomic.Uint64
	updatesPublished atomic.Uint64
	replicasUpdated  atomic.Uint64
}

// DirectoryStats is a point-in-time copy of a directory's fan-out
// counters for the metrics registry.
type DirectoryStats struct {
	// Publishes counts Publish calls with a non-empty batch.
	Publishes uint64
	// UpdatesPublished counts individual updates fanned out.
	UpdatesPublished uint64
	// ReplicasUpdated counts replica applications across all publishes.
	ReplicasUpdated uint64
}

// Stats returns the directory's fan-out counters.
func (d *Directory) Stats() DirectoryStats {
	return DirectoryStats{
		Publishes:        d.publishes.Load(),
		UpdatesPublished: d.updatesPublished.Load(),
		ReplicasUpdated:  d.replicasUpdated.Load(),
	}
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{views: map[string]map[string]*Replica{}, log: map[string][]Update{}}
}

// Register adds a replica of a view and immediately replays the view's
// update history to it (catch-up). Registering the same replica ID
// twice replaces the previous registration.
func (d *Directory) Register(view string, r *Replica) {
	d.mu.Lock()
	if d.views[view] == nil {
		d.views[view] = map[string]*Replica{}
	}
	d.views[view][r.ID()] = r
	history := append([]Update(nil), d.log[view]...)
	d.mu.Unlock()
	r.ApplyRemote(history)
}

// Publish accepts a flushed batch for a view and fans it out to every
// other registered replica. It returns the number of replicas updated.
func (d *Directory) Publish(view string, batch []Update) int {
	if len(batch) == 0 {
		return 0
	}
	d.mu.Lock()
	d.log[view] = append(d.log[view], batch...)
	targets := make([]*Replica, 0, len(d.views[view]))
	for _, r := range d.views[view] {
		targets = append(targets, r)
	}
	d.mu.Unlock()
	// Deterministic fan-out order.
	sort.Slice(targets, func(i, j int) bool { return targets[i].ID() < targets[j].ID() })
	n := 0
	for _, r := range targets {
		if r.ID() == batch[0].Origin {
			continue
		}
		if r.ApplyRemote(batch) > 0 {
			n++
		}
	}
	d.publishes.Add(1)
	d.updatesPublished.Add(uint64(len(batch)))
	d.replicasUpdated.Add(uint64(n))
	return n
}
