package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
)

// The generator is the only source of inputs: the components see
// nothing that does not come from (-seed, workload, round, caller).

// opKind is one generated client operation.
type opKind uint8

const (
	opSend opKind = iota
	opReceive
)

// op is one generated operation. For a send, To is the recipient and
// Body indexes the plan's body pool; for a receive, To is the reader.
type op struct {
	Kind opKind
	To   int
	Body int
}

// plan is one caller's operation script for one round.
type plan struct {
	Caller int
	Ops    []op
	Bodies [][]byte // seeded pool the sends draw from
}

// bodyPool is how many distinct seeded bodies a caller cycles through.
// Every sent body is additionally stamped with (caller, sequence) so no
// two sends carry identical bytes and a received body names its op.
const bodyPool = 32

const stampLen = 12

func newRand(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// planSpec sizes a caller's script.
type planSpec struct {
	Ops          int // operations per caller
	BodyBytes    int
	Recipients   int
	ReceiveEvery int // one receive per block of this many ops; 0 = sends only
}

// makePlan builds caller c's script for a round. The recipient order is
// a seeded permutation walked round-robin; each block of ReceiveEvery
// ops holds one receive at a seeded offset by a seeded recipient.
func makePlan(seed int64, workload string, round, caller int, sp planSpec) *plan {
	rng := newRand(seed, fmt.Sprintf("%s/r%d/c%d", workload, round, caller))
	p := &plan{Caller: caller, Ops: make([]op, sp.Ops), Bodies: make([][]byte, bodyPool)}
	for i := range p.Bodies {
		b := make([]byte, sp.BodyBytes)
		rng.Read(b)
		p.Bodies[i] = b
	}
	order := rng.Perm(sp.Recipients)
	next := 0
	recvAt := -1
	for i := range p.Ops {
		if sp.ReceiveEvery > 0 && i%sp.ReceiveEvery == 0 {
			recvAt = i + rng.Intn(sp.ReceiveEvery)
		}
		if i == recvAt {
			p.Ops[i] = op{Kind: opReceive, To: rng.Intn(sp.Recipients)}
			continue
		}
		p.Ops[i] = op{Kind: opSend, To: order[next%len(order)], Body: rng.Intn(bodyPool)}
		next++
	}
	return p
}

// stamped returns the body op seq sends: the pool body with the
// (caller, seq) stamp over its first bytes. buf is reused across calls.
func (p *plan) stamped(buf []byte, seq int) []byte {
	buf = append(buf[:0], p.Bodies[p.Ops[seq].Body]...)
	binary.BigEndian.PutUint32(buf[0:], 0xB0D1E5)
	binary.BigEndian.PutUint32(buf[4:], uint32(p.Caller))
	binary.BigEndian.PutUint32(buf[8:], uint32(seq))
	return buf
}

// readStamp recovers (caller, seq) from a received plaintext body.
func readStamp(body []byte) (caller, seq int, ok bool) {
	if len(body) < stampLen || binary.BigEndian.Uint32(body) != 0xB0D1E5 {
		return 0, 0, false
	}
	return int(binary.BigEndian.Uint32(body[4:])), int(binary.BigEndian.Uint32(body[8:])), true
}

func recipientName(i int) string { return fmt.Sprintf("rcpt%03d", i) }
func callerName(i int) string    { return fmt.Sprintf("caller%d", i) }
