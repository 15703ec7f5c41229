package coherence

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestWriteThroughPolicy(t *testing.T) {
	p := WriteThrough{}
	if !p.FlushOnWrite(1) {
		t.Error("write-through flushes on every write")
	}
	if _, ok := p.NextDeadline(0); ok {
		t.Error("write-through has no deadlines")
	}
	if p.String() != "write-through" {
		t.Error("name")
	}
}

func TestCountBoundPolicy(t *testing.T) {
	p := CountBound{Bound: 500}
	if p.FlushOnWrite(499) {
		t.Error("must not flush below the bound")
	}
	if !p.FlushOnWrite(500) {
		t.Error("must flush at the bound")
	}
	if _, ok := p.NextDeadline(0); ok {
		t.Error("count-bound has no deadlines")
	}
	if p.String() != "count-bound(500)" {
		t.Errorf("name = %q", p.String())
	}
}

func TestPeriodicPolicy(t *testing.T) {
	p := Periodic{PeriodMS: 500}
	if p.FlushOnWrite(1000000) {
		t.Error("periodic never flushes on writes")
	}
	d, ok := p.NextDeadline(1200)
	if !ok || d != 1700 {
		t.Errorf("deadline = %v, %v", d, ok)
	}
	if p.String() != "periodic(500ms)" {
		t.Errorf("name = %q", p.String())
	}
}

func TestNonePolicy(t *testing.T) {
	p := None{}
	if p.FlushOnWrite(1 << 20) {
		t.Error("none never flushes")
	}
	if _, ok := p.NextDeadline(0); ok {
		t.Error("none has no deadlines")
	}
	if p.String() != "none" {
		t.Error("name")
	}
}

func TestReplicaWriteAndTakePending(t *testing.T) {
	r := NewReplica("sd", CountBound{Bound: 3}, nil)
	if _, flush := r.Write("send", "alice", []byte("m1"), 1); flush {
		t.Error("no flush at 1 pending")
	}
	if _, flush := r.Write("send", "alice", []byte("m2"), 2); flush {
		t.Error("no flush at 2 pending")
	}
	if _, flush := r.Write("send", "bob", []byte("m3"), 3); !flush {
		t.Error("flush at bound 3")
	}
	if r.Pending() != 3 {
		t.Errorf("pending = %d", r.Pending())
	}
	batch := r.TakePending(3)
	if len(batch) != 3 || r.Pending() != 0 {
		t.Errorf("TakePending = %d items, %d left", len(batch), r.Pending())
	}
	for i, u := range batch {
		if u.Origin != "sd" || u.Seq != uint64(i+1) {
			t.Errorf("update %d = %+v", i, u)
		}
	}
}

func TestReplicaDeadlineTracksLastFlush(t *testing.T) {
	r := NewReplica("sd", Periodic{PeriodMS: 100}, nil)
	if d, ok := r.NextDeadline(); !ok || d != 100 {
		t.Errorf("initial deadline = %v, %v", d, ok)
	}
	r.Write("send", "k", nil, 42)
	r.TakePending(250)
	if d, ok := r.NextDeadline(); !ok || d != 350 {
		t.Errorf("post-flush deadline = %v, %v", d, ok)
	}
}

func TestReplicaApplyRemoteExactlyOnce(t *testing.T) {
	var got []string
	r := NewReplica("b", WriteThrough{}, func(u Update) {
		got = append(got, fmt.Sprintf("%s:%d", u.Origin, u.Seq))
	})
	batch := []Update{
		{Origin: "a", Seq: 1, Op: "send"},
		{Origin: "a", Seq: 2, Op: "send"},
	}
	if n := r.ApplyRemote(batch); n != 2 {
		t.Errorf("first apply = %d", n)
	}
	if n := r.ApplyRemote(batch); n != 0 {
		t.Errorf("duplicate apply = %d", n)
	}
	// Own-origin updates are skipped.
	if n := r.ApplyRemote([]Update{{Origin: "b", Seq: 9}}); n != 0 {
		t.Errorf("own-origin apply = %d", n)
	}
	if !reflect.DeepEqual(got, []string{"a:1", "a:2"}) {
		t.Errorf("applied = %v", got)
	}
}

func TestDirectoryFanOut(t *testing.T) {
	d := NewDirectory()
	var atB, atC int
	a := NewReplica("a", WriteThrough{}, nil)
	b := NewReplica("b", WriteThrough{}, func(Update) { atB++ })
	c := NewReplica("c", WriteThrough{}, func(Update) { atC++ })
	d.Register("VMS", a)
	d.Register("VMS", b)
	d.Register("VMS", c)
	if got := replicaIDs(d, "VMS"); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("replicas = %v", got)
	}
	a.Write("send", "k", []byte("x"), 1)
	n := d.Publish("VMS", a.TakePending(1))
	if n != 2 {
		t.Errorf("published to %d replicas, want 2", n)
	}
	if atB != 1 || atC != 1 {
		t.Errorf("applied b=%d c=%d", atB, atC)
	}
	if historyLen(d, "VMS") != 1 {
		t.Errorf("history = %d", historyLen(d, "VMS"))
	}
}

func TestDirectoryCatchUpOnRegister(t *testing.T) {
	d := NewDirectory()
	a := NewReplica("a", WriteThrough{}, nil)
	d.Register("VMS", a)
	a.Write("send", "k1", nil, 1)
	a.Write("send", "k2", nil, 2)
	d.Publish("VMS", a.TakePending(2))

	var caught int
	late := NewReplica("late", WriteThrough{}, func(Update) { caught++ })
	d.Register("VMS", late)
	if caught != 2 {
		t.Errorf("late replica caught up %d updates, want 2", caught)
	}
}

func TestDirectoryPublishEmptyBatch(t *testing.T) {
	d := NewDirectory()
	if n := d.Publish("VMS", nil); n != 0 {
		t.Errorf("empty publish = %d", n)
	}
}

// TestQuickCountBoundNeverExceedsBound: under any write pattern, a
// replica that flushes whenever Write reports true never holds more
// than Bound pending updates — the paper's coherence guarantee.
func TestQuickCountBoundNeverExceedsBound(t *testing.T) {
	f := func(writes uint8, boundSeed uint8) bool {
		bound := int(boundSeed%7) + 1
		r := NewReplica("x", CountBound{Bound: bound}, nil)
		for i := 0; i < int(writes); i++ {
			if r.Pending() > bound {
				return false
			}
			if _, flush := r.Write("send", "k", nil, float64(i)); flush {
				r.TakePending(float64(i))
			}
		}
		return r.Pending() <= bound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickExactlyOnceUnderRedelivery: replaying arbitrary prefixes of
// an update stream never double-applies.
func TestQuickExactlyOnceUnderRedelivery(t *testing.T) {
	f := func(n uint8, replays []uint8) bool {
		total := int(n%32) + 1
		stream := make([]Update, total)
		for i := range stream {
			stream[i] = Update{Origin: "a", Seq: uint64(i + 1)}
		}
		applied := 0
		r := NewReplica("b", WriteThrough{}, func(Update) { applied++ })
		for _, cut := range replays {
			k := int(cut) % (total + 1)
			r.ApplyRemote(stream[:k])
		}
		r.ApplyRemote(stream)
		return applied == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRequeueRestoresOrder: a taken batch whose delivery failed goes
// back ahead of anything written since, minus the one update whose
// writer was told of the failure, so the next take is in sequence order.
func TestRequeueRestoresOrder(t *testing.T) {
	r := NewReplica("v", None{}, nil)
	var seqs []uint64
	for i := 0; i < 3; i++ {
		seq, _ := r.Write("send", "k", nil, float64(i))
		seqs = append(seqs, seq)
	}
	batch := r.TakePending(3)
	later, _ := r.Write("send", "k", nil, 4)
	r.Requeue(batch, seqs[1])
	got := r.TakePending(5)
	want := []uint64{seqs[0], seqs[2], later}
	if len(got) != len(want) {
		t.Fatalf("took %d updates after the requeue, want %d", len(got), len(want))
	}
	for i, u := range got {
		if u.Seq != want[i] {
			t.Errorf("update %d has seq %d, want %d", i, u.Seq, want[i])
		}
	}
	r.Requeue(got, 0)
	if r.Pending() != 3 {
		t.Errorf("requeue with nothing excepted kept %d of 3 updates", r.Pending())
	}
}

// replicaIDs returns the registered replica IDs of a view, sorted.
func replicaIDs(d *Directory, view string) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.views[view]))
	for id := range d.views[view] {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// historyLen returns the number of updates logged for a view.
func historyLen(d *Directory, view string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.log[view])
}
