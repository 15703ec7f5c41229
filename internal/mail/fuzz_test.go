package mail

import (
	"bytes"
	"testing"

	"partsvc/internal/coherence"
	"partsvc/internal/wire"
)

// The typed decoders under arbitrary input: none panics, whatever one
// accepts re-encodes to exactly its input (so trailing bytes are
// rejected), and no decoded list is longer than the input could hold
// at its elements' minimum size.

var methods = []string{"createAccount", "send", "receive", "addContact", "contacts", "snapshot", "pushUpdates"}

func pick(b byte) string { return methods[int(b)%len(methods)] }

func fuzzMessages() []*Message {
	return []*Message{
		{ID: 1, From: "alice", To: "bob", Subject: "hi", Body: []byte("sealed"), Sensitivity: 2, SentAtMS: 1.5},
		{ID: 1 << 40, From: "a", To: "b", Sensitivity: 5},
	}
}

func fuzzBatch() []coherence.Update {
	return []coherence.Update{
		{Origin: "vms@sd-2", Seq: 1, Op: "send", Key: "bob", Data: appendMessage(nil, fuzzMessages()[0]), TimeMS: 3},
		{Origin: "primary", Seq: 9, Op: "addContact", Key: "alice\x00bob"},
	}
}

func FuzzRequest(f *testing.F) {
	a := &args{user: "alice", to: "bob", subject: "s", contact: "carol", sens: 2, body: []byte("body"), batch: fuzzBatch()}
	for i, m := range methods {
		f.Add(byte(i), appendArgs(nil, m, a))
	}
	f.Fuzz(func(t *testing.T, which byte, data []byte) {
		method := pick(which)
		a, err := decodeArgs(method, data)
		if err != nil {
			return
		}
		if re := appendArgs(nil, method, &a); !bytes.Equal(re, data) {
			t.Fatalf("%s request %x re-encodes to %x", method, data, re)
		}
		if a.size() < len(data) || len(a.batch)*updateMin > len(data) {
			t.Fatalf("%s request of %d bytes: size hint %d, %d updates", method, len(data), a.size(), len(a.batch))
		}
	})
}

func FuzzReply(f *testing.F) {
	res := &result{id: 7, msgs: fuzzMessages(), contacts: []string{"bob", ""}, state: []byte("state")}
	for i, m := range methods {
		f.Add(byte(i), appendResult(m, res))
	}
	f.Add(byte(2), []byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, which byte, data []byte) {
		method := pick(which)
		res, err := decodeResult(method, data)
		if err != nil {
			return
		}
		if re := appendResult(method, &res); !bytes.Equal(re, data) {
			t.Fatalf("%s reply %x re-encodes to %x", method, data, re)
		}
		if len(res.msgs)*messageMin > len(data) || len(res.contacts)*4 > len(data) {
			t.Fatalf("%s reply of %d bytes decoded %d messages and %d contacts", method, len(data), len(res.msgs), len(res.contacts))
		}
	})
}

// FuzzUpdateBatch: a pushUpdates batch also owns its bytes, since it
// lives on in replica logs after the request is released.
func FuzzUpdateBatch(f *testing.F) {
	f.Add(appendArgs(nil, "pushUpdates", &args{batch: fuzzBatch()}))
	f.Add([]byte{0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := decodeArgs("pushUpdates", data)
		if err != nil {
			return
		}
		want := appendArgs(nil, "pushUpdates", &a)
		if !bytes.Equal(want, data) {
			t.Fatalf("batch %x re-encodes to %x", data, want)
		}
		for i := range data {
			data[i] ^= 0xff
		}
		if got := appendArgs(nil, "pushUpdates", &a); !bytes.Equal(got, want) {
			t.Fatal("the decoded batch points into the request")
		}
	})
}

func FuzzMessage(f *testing.F) {
	for _, m := range fuzzMessages() {
		f.Add(appendMessage(nil, m))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		r := wire.NewReader(data)
		decodeMessage(&r, &m)
		if r.Done() != nil {
			return
		}
		if re := appendMessage(nil, &m); !bytes.Equal(re, data) || messageLen(&m) != len(data) {
			t.Fatalf("message %x re-encodes to %x (messageLen %d)", data, re, messageLen(&m))
		}
	})
}

func FuzzSnapshot(f *testing.F) {
	s := NewStore(4)
	s.nextID = 12
	for _, m := range fuzzMessages()[:1] {
		if err := s.deliver(m); err != nil {
			f.Fatal(err)
		}
		if err := s.Append("alice", "archive", m); err != nil {
			f.Fatal(err)
		}
	}
	s.EnsureAccount("carol")
	for _, c := range []string{"bob", "carol"} {
		if err := s.AddContact("alice", c); err != nil {
			f.Fatal(err)
		}
	}
	snap, err := s.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Fuzz(func(t *testing.T, data []byte) {
		restored, err := RestoreStore(data, 0)
		if err != nil {
			return
		}
		if re, err := restored.Snapshot(); err != nil || !bytes.Equal(re, data) {
			t.Fatalf("snapshot %x restores to one that snapshots to %x (%v)", data, re, err)
		}
	})
}
