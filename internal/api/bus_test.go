package api

import (
	"sync"
	"testing"
	"time"
)

func TestBusFanoutAndFilter(t *testing.T) {
	b := NewBus(16)
	all := b.Subscribe(Filter{}, 16)
	kinds := b.Subscribe(Filter{Kinds: map[string]bool{"replan": true}}, 16)
	sess := b.Subscribe(Filter{Session: "carol"}, 16)

	b.Publish(Event{Kind: "replan", Session: "carol"})
	b.Publish(Event{Kind: "stage", Session: "dave"})
	b.Publish(Event{Kind: "suspect"}) // session-less: every session filter passes it

	drain := func(s *Subscription) []Event {
		var out []Event
		for {
			select {
			case e := <-s.C:
				out = append(out, e)
			default:
				return out
			}
		}
	}
	if got := drain(all); len(got) != 3 {
		t.Fatalf("unfiltered subscriber got %d events, want 3", len(got))
	}
	if got := drain(kinds); len(got) != 1 || got[0].Kind != "replan" {
		t.Fatalf("kind filter got %+v, want one replan", got)
	}
	got := drain(sess)
	if len(got) != 2 || got[0].Session != "carol" || got[1].Kind != "suspect" {
		t.Fatalf("session filter got %+v, want carol + session-less suspect", got)
	}
	if got[0].Seq >= got[1].Seq {
		t.Fatalf("sequence numbers must increase: %d then %d", got[0].Seq, got[1].Seq)
	}
}

// TestBusSlowSubscriberNeverBlocks is the bus's core contract: a
// subscriber that stops reading loses events (counted) but cannot
// stall a publisher — the adaptation loop's timing must not depend on
// an observer.
func TestBusSlowSubscriberNeverBlocks(t *testing.T) {
	b := NewBus(16)
	b.Subscribe(Filter{}, 4) // never read
	fast := b.Subscribe(Filter{}, 256)
	dropped := b.dropped.Load()

	done := make(chan struct{})
	go func() {
		for i := 0; i < 200; i++ {
			b.Publish(Event{Kind: "tick"})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a slow subscriber")
	}

	// The slow subscriber loses all but its buffer; the fast one nothing.
	if got := b.dropped.Load() - dropped; got != 200-4 {
		t.Errorf("dropped %d events, want %d", got, 200-4)
	}
	n := 0
	for {
		select {
		case <-fast.C:
			n++
			continue
		default:
		}
		break
	}
	if n != 200 {
		t.Errorf("fast subscriber received %d, want 200", n)
	}
}

// TestBusConcurrency exercises publish/subscribe/cancel/close under
// the race detector: per-subscriber delivery stays in sequence order
// and nothing panics on the send-vs-close edge.
func TestBusConcurrency(t *testing.T) {
	b := NewBus(64)
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		sub := b.Subscribe(Filter{}, 32)
		readers.Add(1)
		go func(s *Subscription) {
			defer readers.Done()
			var last uint64
			for e := range s.C {
				if e.Seq <= last {
					t.Errorf("out-of-order delivery: %d after %d", e.Seq, last)
					return
				}
				last = e.Seq
			}
		}(sub)
	}
	// A churning subscriber canceling while publishes are in flight.
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; i < 50; i++ {
			s := b.Subscribe(Filter{}, 1)
			s.Cancel()
		}
	}()

	var pubs sync.WaitGroup
	for p := 0; p < 4; p++ {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for i := 0; i < 250; i++ {
				b.Publish(Event{Kind: "tick"})
			}
		}()
	}
	pubs.Wait()
	churn.Wait()
	if b.seq != 1000 {
		t.Errorf("seq = %d, want 1000", b.seq)
	}
	b.Close()
	readers.Wait()

	// Everything after Close is inert.
	if e := b.Publish(Event{Kind: "late"}); e.Seq != 0 {
		t.Errorf("post-close publish was stamped: %+v", e)
	}
	if _, ok := <-b.Subscribe(Filter{}, 1).C; ok {
		t.Error("post-close subscribe must yield a closed channel")
	}
	b.Close() // idempotent
}

func TestBusReplayRing(t *testing.T) {
	b := NewBus(8)
	for i := 0; i < 20; i++ {
		b.Publish(Event{Kind: "tick"})
	}
	got := b.ReplayAfter(15, Filter{})
	if len(got) != 5 || got[0].Seq != 16 || got[4].Seq != 20 {
		t.Fatalf("ReplayAfter(15) = %+v, want seqs 16..20", got)
	}
	// Older than the ring: best-effort, yields what the ring still holds.
	got = b.ReplayAfter(0, Filter{})
	if len(got) != 8 || got[0].Seq != 13 || got[7].Seq != 20 {
		t.Fatalf("ReplayAfter(0) = %d events starting %d, want last 8 (13..20)",
			len(got), got[0].Seq)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("replay out of order at %d: %+v", i, got)
		}
	}
}

func TestBusCancelIdempotent(t *testing.T) {
	b := NewBus(4)
	s := b.Subscribe(Filter{}, 1)
	s.Cancel()
	s.Cancel() // second cancel is a no-op, not a double close
	b.Publish(Event{Kind: "tick"})
	if _, ok := <-s.C; ok {
		t.Error("canceled subscription must have a closed channel")
	}
	b.Close()
	s.Cancel() // cancel after close races safely
}
