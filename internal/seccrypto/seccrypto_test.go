package seccrypto

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"partsvc/internal/wire"
)

// Marshal encodes the envelope field by field: the oracle that
// AppendSeal's in-place layout and UnmarshalEnvelope are held to.
func (e *Envelope) Marshal() []byte {
	dst := make([]byte, 0, SealedLen(e.User, len(e.Ciphertext)-tagSize))
	dst = append(wire.AppendString(dst, e.User), byte(e.Level))
	return wire.AppendString(wire.AppendString(dst, e.Nonce), e.Ciphertext)
}

func ringWith(t *testing.T, users ...string) *KeyRing {
	t.Helper()
	k := NewKeyRing()
	for _, u := range users {
		if err := k.GenerateUserKeys(u, MaxLevel); err != nil {
			t.Fatal(err)
		}
	}
	return k
}

func TestSealOpenRoundTrip(t *testing.T) {
	k := ringWith(t, "alice")
	for lvl := 1; lvl <= MaxLevel; lvl++ {
		msg := []byte("hello level " + strings.Repeat("x", lvl))
		env, err := k.Seal("alice", lvl, msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := k.Open(env)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Errorf("level %d: round trip mismatch", lvl)
		}
	}
}

func TestOpenWrongKeyFails(t *testing.T) {
	k := ringWith(t, "alice", "bob")
	env, err := k.Seal("alice", 3, []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	// Claiming the envelope belongs to bob must fail authentication.
	env.User = "bob"
	if _, err := k.Open(env); err == nil {
		t.Error("cross-user open must fail")
	}
}

func TestTamperDetected(t *testing.T) {
	k := ringWith(t, "alice")
	env, err := k.Seal("alice", 2, []byte("integrity"))
	if err != nil {
		t.Fatal(err)
	}
	env.Ciphertext[0] ^= 0xff
	if _, err := k.Open(env); err == nil {
		t.Error("tampered ciphertext must fail")
	}
}

func TestTransformBetweenUsers(t *testing.T) {
	k := ringWith(t, "alice", "bob")
	env, err := k.Seal("alice", 4, []byte("for bob"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := k.Transform(env, "bob", 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.User != "bob" || out.Level != 2 {
		t.Errorf("transformed envelope = %s/%d", out.User, out.Level)
	}
	pt, err := k.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != "for bob" {
		t.Errorf("plaintext = %q", pt)
	}
	// Alice's original remains openable; bob's version requires bob's key.
	sub := k.SubRing(MaxLevel)
	if !hasKey(sub, "bob", 2) {
		t.Fatal("subring must carry bob's key")
	}
}

func TestSubRingEscrow(t *testing.T) {
	k := ringWith(t, "alice")
	sub := k.SubRing(2)
	if sub.MaxLevelAllowed() != 2 {
		t.Errorf("MaxLevelAllowed = %d", sub.MaxLevelAllowed())
	}
	if !hasKey(sub, "alice", 1) || !hasKey(sub, "alice", 2) {
		t.Error("levels <= 2 must be escrowed")
	}
	for lvl := 3; lvl <= MaxLevel; lvl++ {
		if hasKey(sub, "alice", lvl) {
			t.Errorf("level %d key must not be escrowed to a trust-2 node", lvl)
		}
	}
	// The restricted ring cannot open high-sensitivity envelopes.
	env, err := k.Seal("alice", 4, []byte("top"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Open(env); err == nil {
		t.Error("restricted ring must not open level-4 envelopes")
	}
	// Clamp above MaxLevel.
	if got := k.SubRing(99).MaxLevelAllowed(); got != MaxLevel {
		t.Errorf("clamped max = %d", got)
	}
}

// TestSubRingGetsKeysNotCiphers: the master ring has built its cipher
// state for every level before the escrow; the sub-ring copies keys
// only, so a trust-2 ring still cannot open a level-3 envelope, opens a
// level-2 one with cipher state it built itself, and both rings keep
// agreeing on the associated data (a cached one that named the wrong
// user or level would fail authentication).
func TestSubRingGetsKeysNotCiphers(t *testing.T) {
	k := ringWith(t, "alice", "bob")
	envs := map[int]*Envelope{}
	for lvl := 1; lvl <= MaxLevel; lvl++ {
		env, err := k.Seal("alice", lvl, []byte("warm"))
		if err != nil {
			t.Fatal(err)
		}
		envs[lvl] = env
	}
	sub := k.SubRing(2)
	if len(sub.sealers) != 0 {
		t.Errorf("the sub-ring starts with %d ciphers, want none", len(sub.sealers))
	}
	if _, err := sub.Open(envs[3]); err == nil {
		t.Error("a level-2 sub-ring opened a level-3 envelope")
	}
	if _, err := sub.Seal("alice", 3, []byte("x")); err == nil {
		t.Error("a level-2 sub-ring sealed at level 3")
	}
	if pt, err := sub.Open(envs[2]); err != nil || string(pt) != "warm" {
		t.Errorf("the sub-ring must open what it holds the key for: %q, %v", pt, err)
	}
	// Sealed in the sub-ring, opened in the master, and re-labelled
	// envelopes rejected by both: the cached associated data is per key.
	env, err := sub.Seal("bob", 2, []byte("back"))
	if err != nil {
		t.Fatal(err)
	}
	if pt, err := k.Open(env); err != nil || string(pt) != "back" {
		t.Errorf("master ring open = %q, %v", pt, err)
	}
	forged := *envs[1]
	forged.Level = 2
	if _, err := k.Open(&forged); err == nil {
		t.Error("an envelope re-labelled to another level must not open")
	}
	// A second use finds the cipher state of the first.
	first, err := k.sealer("alice", 1)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := k.sealer("alice", 1); again != first {
		t.Error("the cipher for one key was built twice")
	}
}

// TestConcurrentSealOnColdRing: many goroutines racing on keys nobody
// has used yet all seal and open correctly (run under -race).
func TestConcurrentSealOnColdRing(t *testing.T) {
	k := ringWith(t, "alice")
	done := make(chan error, 8)
	for g := 0; g < cap(done); g++ {
		go func(g int) {
			for lvl := 1; lvl <= MaxLevel; lvl++ {
				env, err := k.Seal("alice", lvl, []byte{byte(g)})
				if err == nil {
					var pt []byte
					if pt, err = k.Open(env); err == nil && !bytes.Equal(pt, []byte{byte(g)}) {
						err = fmt.Errorf("level %d opened to %v", lvl, pt)
					}
				}
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < cap(done); g++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

func TestGenerateUserKeysValidation(t *testing.T) {
	k := NewKeyRing()
	if err := k.GenerateUserKeys("", 3); err == nil {
		t.Error("empty user must fail")
	}
	if err := k.GenerateUserKeys("alice", 0); err == nil {
		t.Error("zero levels must fail")
	}
	if err := k.GenerateUserKeys("alice", MaxLevel+1); err == nil {
		t.Error("levels above MaxLevel must fail")
	}
}

func TestGenerateUserKeysIdempotent(t *testing.T) {
	k := ringWith(t, "alice")
	env, err := k.Seal("alice", 1, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	// Re-generating must not rotate existing keys.
	if err := k.GenerateUserKeys("alice", MaxLevel); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Open(env); err != nil {
		t.Errorf("existing envelope must remain openable: %v", err)
	}
}

func TestSealWithoutKeyFails(t *testing.T) {
	k := NewKeyRing()
	if _, err := k.Seal("ghost", 1, []byte("x")); err == nil {
		t.Error("sealing without a key must fail")
	}
	if _, err := k.Open(&Envelope{User: "ghost", Level: 1, Nonce: make([]byte, 12)}); err == nil {
		t.Error("opening without a key must fail")
	}
}

func TestEnvelopeMarshalRoundTrip(t *testing.T) {
	k := ringWith(t, "alice")
	env, err := k.Seal("alice", 3, []byte("wire me"))
	if err != nil {
		t.Fatal(err)
	}
	data := env.Marshal()
	if len(data) != SealedLen("alice", len("wire me")) || cap(data) != len(data) {
		t.Errorf("Marshal gave %d bytes (capacity %d), want SealedLen = %d", len(data), cap(data), SealedLen("alice", 7))
	}
	got, err := UnmarshalEnvelope(data)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := k.Open(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != "wire me" {
		t.Errorf("plaintext = %q", pt)
	}
}

func TestUnmarshalEnvelopeErrors(t *testing.T) {
	if _, err := UnmarshalEnvelope([]byte{0xff}); err == nil {
		t.Error("garbage must fail")
	}
	if _, err := UnmarshalEnvelope((&Envelope{}).Marshal()); err == nil {
		t.Error("incomplete envelope must fail")
	}
	short := &Envelope{User: "alice", Level: 1, Nonce: make([]byte, 8)}
	if _, err := UnmarshalEnvelope(short.Marshal()); err == nil {
		t.Error("an envelope with a short nonce must fail")
	}
	k := ringWith(t, "alice")
	if _, err := k.Open(short); err == nil {
		t.Error("opening an envelope with a short nonce must fail, not panic")
	}
}

// TestAppendSealSealsInPlace: with SealedLen bytes to spare AppendSeal
// writes the envelope behind what dst holds without allocating, and the
// result decodes and opens; a failed seal leaves dst as it was.
func TestAppendSealSealsInPlace(t *testing.T) {
	k := ringWith(t, "alice")
	pt := bytes.Repeat([]byte{7}, 1<<10)
	prefix := []byte("head")
	buf := make([]byte, 0, len(prefix)+SealedLen("alice", len(pt)))
	var out []byte
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if out, err = k.AppendSeal(append(buf[:0], prefix...), "alice", 3, pt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || &out[0] != &buf[:1][0] || len(out) != cap(buf) {
		t.Errorf("AppendSeal: %.0f allocations, %d of %d bytes, same array %v", allocs, len(out), cap(buf), &out[0] == &buf[:1][0])
	}
	env, err := UnmarshalEnvelope(out[len(prefix):])
	if err != nil || !bytes.Equal(out[:len(prefix)], prefix) {
		t.Fatalf("sealed envelope does not decode behind its prefix: %v", err)
	}
	if got, err := k.Open(env); err != nil || !bytes.Equal(got, pt) {
		t.Errorf("open = %d bytes, %v", len(got), err)
	}
	if got, err := k.AppendSeal(prefix, "ghost", 3, pt); err == nil || !bytes.Equal(got, prefix) {
		t.Errorf("a seal without a key = %q, %v; want dst unchanged and an error", got, err)
	}
}

// FuzzUnmarshalEnvelope: the decoder never panics, and every envelope
// it accepts re-encodes to exactly its input.
func FuzzUnmarshalEnvelope(f *testing.F) {
	k := NewKeyRing()
	if err := k.GenerateUserKeys("alice", MaxLevel); err != nil {
		f.Fatal(err)
	}
	for _, pt := range []string{"", "hello"} {
		env, err := k.Seal("alice", 3, []byte(pt))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(env.Marshal())
	}
	f.Add([]byte{0, 0, 0, 1, 'u', 1, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := UnmarshalEnvelope(data)
		if err != nil {
			return
		}
		if re := e.Marshal(); !bytes.Equal(re, data) {
			t.Fatalf("accepted envelope re-encodes to %x, input %x", re, data)
		}
		_, _ = k.Open(e) // must not panic
	})
}

// TestQuickSealOpenIdentity: arbitrary payloads round-trip at arbitrary
// levels.
func TestQuickSealOpenIdentity(t *testing.T) {
	k := NewKeyRing()
	if err := k.GenerateUserKeys("u", MaxLevel); err != nil {
		t.Fatal(err)
	}
	f := func(payload []byte, lvlSeed uint8) bool {
		lvl := int(lvlSeed%MaxLevel) + 1
		env, err := k.Seal("u", lvl, payload)
		if err != nil {
			return false
		}
		got, err := k.Open(env)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// hasKey reports whether the ring holds the key for (user, level).
func hasKey(k *KeyRing, user string, level int) bool {
	k.mu.RLock()
	defer k.mu.RUnlock()
	_, ok := k.keys[keyID{user, level}]
	return ok
}
