// Package api is the operational HTTP control plane: a live event bus
// fanning adaptation-loop events out to SSE subscribers, a
// Prometheus text exposition of the metrics registry, span-tree
// inspection, opt-in pprof, and a management API (submit a spec, plan,
// deploy, adapt, kill a node) — the seam §6 of the paper leaves open:
// a partitionable service that is managed while it runs, through the
// same surface a human or a fleet orchestrator would use.
//
// Layering: adapt never imports this package. The loop publishes
// through its callback sink (Controller.OnEvent); Attach adapts that
// into bus events. The bus itself never blocks a publisher — slow subscribers
// drop (counted per subscriber), because the adaptation loop's timing
// must not depend on an observer's read rate.
package api

import (
	"sync"
	"sync/atomic"

	"partsvc/internal/metrics"
)

// Event is one control-plane occurrence, as streamed over /v1/events.
// Seq is assigned by the bus, strictly increasing, and doubles as the
// SSE event id for Last-Event-ID resume.
type Event struct {
	Seq     uint64  `json:"seq"`
	AtMS    float64 `json:"at_ms"`
	Source  string  `json:"source"` // "adapt" or "api"
	Kind    string  `json:"kind"`
	Session string  `json:"session,omitempty"`
	Wave    uint64  `json:"wave,omitempty"`
	Detail  string  `json:"detail,omitempty"`
}

// Filter selects a subset of the stream. Zero value matches everything.
type Filter struct {
	// Session, when non-empty, matches only that session's events plus
	// session-less events (waves, suspicion — fleet- or node-scoped
	// facts a session watcher still needs).
	Session string
	// Kinds, when non-empty, is the set of accepted Kind values.
	Kinds map[string]bool
}

// Match reports whether the filter accepts e.
func (f Filter) Match(e Event) bool {
	if f.Session != "" && e.Session != "" && e.Session != f.Session {
		return false
	}
	if len(f.Kinds) > 0 && !f.Kinds[e.Kind] {
		return false
	}
	return true
}

// Subscription is one subscriber's view of the bus. Events arrive on C;
// the channel closes when the subscription is canceled or the bus
// closes. A subscriber that falls behind loses events (Dropped counts
// them) — it never backpressures publishers.
type Subscription struct {
	C       <-chan Event
	ch      chan Event
	bus     *Bus
	id      int
	filter  Filter
	dropped atomic.Uint64
}

// Dropped returns the number of events this subscriber lost to a full
// buffer.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Cancel detaches the subscription and closes its channel. Idempotent;
// safe to race with bus Close.
func (s *Subscription) Cancel() {
	b := s.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.subs[s.id]; ok {
		delete(b.subs, s.id)
		close(s.ch)
	}
}

// Bus is the bounded fan-out event hub. Publish assigns sequence
// numbers, retains events in a replay ring (for SSE reconnects), and
// delivers to every matching subscriber without ever blocking. All
// channel sends and closes happen under the bus mutex, so a send can
// never race a close.
type Bus struct {
	published *metrics.Counter
	dropped   *metrics.Counter

	mu     sync.Mutex
	seq    uint64
	subs   map[int]*Subscription
	nextID int
	ring   []Event // circular; ringLen valid entries ending before ringAt
	ringAt int
	closed bool
}

// DefaultRingSize is the replay-ring capacity of NewBus(0).
const DefaultRingSize = 1024

// NewBus returns a bus retaining the last ringSize events for replay
// (0 means DefaultRingSize). Counters land in the default registry as
// api.events_published / api.events_dropped.
func NewBus(ringSize int) *Bus {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	reg := metrics.DefaultRegistry
	return &Bus{
		published: reg.Counter("api.events_published"),
		dropped:   reg.Counter("api.events_dropped"),
		subs:      map[int]*Subscription{},
		ring:      make([]Event, 0, ringSize),
	}
}

// Publish stamps e with the next sequence number and fans it out.
// Returns the stamped event. No-op (returning e unstamped) after Close.
func (b *Bus) Publish(e Event) Event {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return e
	}
	b.seq++
	e.Seq = b.seq
	if len(b.ring) < cap(b.ring) {
		b.ring = append(b.ring, e)
	} else {
		b.ring[b.ringAt] = e
		b.ringAt = (b.ringAt + 1) % cap(b.ring)
	}
	for _, s := range b.subs {
		if !s.filter.Match(e) {
			continue
		}
		select {
		case s.ch <- e:
		default:
			s.dropped.Add(1)
			b.dropped.Inc()
		}
	}
	b.mu.Unlock()
	b.published.Inc()
	return e
}

// Subscribe attaches a subscriber with the given filter and channel
// buffer (0 means 64). On a closed bus the returned subscription's
// channel is already closed.
func (b *Bus) Subscribe(f Filter, buf int) *Subscription {
	if buf <= 0 {
		buf = 64
	}
	ch := make(chan Event, buf)
	s := &Subscription{C: ch, ch: ch, bus: b, filter: f}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		close(ch)
		return s
	}
	b.nextID++
	s.id = b.nextID
	b.subs[s.id] = s
	return s
}

// ReplayAfter returns the ring's events with Seq > after that match f,
// in sequence order. A reconnecting SSE client calls this with its
// Last-Event-ID; an id older than the ring simply yields what the ring
// still holds (the stream is best-effort, not a durable log).
func (b *Bus) ReplayAfter(after uint64, f Filter) []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []Event
	n := len(b.ring)
	for i := 0; i < n; i++ {
		e := b.ring[(b.ringAt+i)%n]
		if e.Seq > after && f.Match(e) {
			out = append(out, e)
		}
	}
	return out
}

// Seq returns the last assigned sequence number.
func (b *Bus) Seq() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Close shuts the bus: every subscriber channel closes, later Publish
// calls are dropped, later Subscribes get a closed channel. Idempotent.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for id, s := range b.subs {
		delete(b.subs, id)
		close(s.ch)
	}
}
