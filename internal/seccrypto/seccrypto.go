// Package seccrypto provides the mail service's security substrate: a
// per-(user, sensitivity level) key ring, AES-GCM envelope encryption,
// and trust-gated key escrow. The example service associates a
// sensitivity level with each message; a key pair per level per user is
// generated at account setup, messages are encrypted at the sender's
// level on send and transformed to the recipient's key on receive, and
// a node may only be entrusted with keys up to its trust level
// (HPDC'02, Section 2).
package seccrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"

	"partsvc/internal/wire"
)

// MaxLevel is the highest sensitivity level, matching the TrustLevel
// property range (1,5) of the mail specification.
const MaxLevel = 5

type keyID struct {
	user  string
	level int
}

// Envelope is an encrypted message body, self-describing enough to be
// transformed between users by a component holding both keys.
type Envelope struct {
	// User is the key owner the envelope is encrypted to.
	User string
	// Level is the sensitivity level (selects the key).
	Level int
	// Nonce is the AES-GCM nonce.
	Nonce []byte
	// Ciphertext is the sealed payload.
	Ciphertext []byte
}

// nonceSize and tagSize are AES-GCM's standard nonce and tag lengths.
const nonceSize, tagSize = 12, 16

// SealedLen is the encoded size of an envelope sealing n bytes to user.
// The layout is the user, the level (one byte), the nonce and the
// ciphertext, each string and byte field a u32 length and its bytes.
func SealedLen(user string, n int) int { return 4 + len(user) + 1 + 4 + nonceSize + 4 + n + tagSize }

// UnmarshalEnvelope decodes an envelope. Its Nonce and Ciphertext share
// data's memory, so the envelope is valid only while data is left alone.
func UnmarshalEnvelope(data []byte) (*Envelope, error) {
	r := wire.NewReader(data)
	e := &Envelope{User: r.Text(), Level: int(r.Byte()), Nonce: r.Bytes(), Ciphertext: r.Bytes()}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("seccrypto: envelope: %w", err)
	}
	if e.User == "" || e.Level < 1 || e.Level > MaxLevel || len(e.Nonce) != nonceSize {
		return nil, fmt.Errorf("seccrypto: incomplete envelope")
	}
	return e, nil
}

// KeyRing holds symmetric keys per (user, sensitivity level). It is
// safe for concurrent use. The zero value is unusable; call NewKeyRing.
type KeyRing struct {
	mu   sync.RWMutex
	keys map[keyID][]byte
	// sealers holds the cipher state built from a key on its first use.
	// A key is never replaced once generated (GenerateUserKeys preserves
	// existing ones), so an entry never goes stale.
	sealers map[keyID]*sealer
	// maxLevel caps the levels this ring may hold (escrow restriction).
	maxLevel int
}

// sealer is one key's cipher state: the AES key schedule and GHASH
// table, which cost more to build than a 1 KiB seal, and the envelope's
// associated data. A cipher.AEAD is safe for concurrent use.
type sealer struct {
	aead cipher.AEAD
	ad   []byte
}

func newKeyRing(maxLevel int) *KeyRing {
	return &KeyRing{keys: map[keyID][]byte{}, sealers: map[keyID]*sealer{}, maxLevel: maxLevel}
}

// NewKeyRing returns an empty ring allowed to hold keys up to MaxLevel.
func NewKeyRing() *KeyRing { return newKeyRing(MaxLevel) }

// MaxLevelAllowed returns the highest level this ring may hold.
func (k *KeyRing) MaxLevelAllowed() int { return k.maxLevel }

// GenerateUserKeys creates fresh random keys for every level 1..levels
// for the user (account setup). Existing keys are preserved.
func (k *KeyRing) GenerateUserKeys(user string, levels int) error {
	if user == "" {
		return fmt.Errorf("seccrypto: empty user")
	}
	if levels < 1 || levels > MaxLevel {
		return fmt.Errorf("seccrypto: levels %d outside 1..%d", levels, MaxLevel)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	for lvl := 1; lvl <= levels; lvl++ {
		id := keyID{user, lvl}
		if _, exists := k.keys[id]; exists {
			continue
		}
		key := make([]byte, 32)
		if _, err := rand.Read(key); err != nil {
			return fmt.Errorf("seccrypto: generating key: %w", err)
		}
		k.keys[id] = key
	}
	return nil
}

// SubRing returns a new ring holding only keys with level <= maxLevel:
// the escrow operation used when instantiating a view on a node of
// limited trust ("whether the node ... can be entrusted with the keys
// for a specific sensitivity level"). Only keys are copied: the
// sub-ring builds its own cipher state from the keys it was given.
func (k *KeyRing) SubRing(maxLevel int) *KeyRing {
	if maxLevel > MaxLevel {
		maxLevel = MaxLevel
	}
	sub := newKeyRing(maxLevel)
	k.mu.RLock()
	defer k.mu.RUnlock()
	for id, key := range k.keys {
		if id.level <= maxLevel {
			sub.keys[id] = key
		}
	}
	return sub
}

// sealer returns the cipher state for (user, level), building it on
// first use. Two callers racing on a cold key may both build; the first
// to store wins and the other's copy is garbage.
func (k *KeyRing) sealer(user string, level int) (*sealer, error) {
	id := keyID{user, level}
	k.mu.RLock()
	s := k.sealers[id]
	var key []byte
	if s == nil {
		key = k.keys[id]
	}
	k.mu.RUnlock()
	if s != nil {
		return s, nil
	}
	if key == nil {
		return nil, fmt.Errorf("seccrypto: no key for user %q level %d", user, level)
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("seccrypto: cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("seccrypto: cipher: %w", err)
	}
	built := &sealer{aead: aead, ad: []byte(fmt.Sprintf("psf:%s:%d", user, level))}
	k.mu.Lock()
	defer k.mu.Unlock()
	if s, ok := k.sealers[id]; ok {
		return s, nil
	}
	k.sealers[id] = built
	return built, nil
}

// AppendSeal appends to dst the envelope sealing plaintext to (user,
// level): the layout up to the ciphertext is written first and the
// ciphertext is sealed in place after it, so when dst has
// SealedLen(user, len(plaintext)) bytes to spare nothing is allocated.
// On error dst is returned unmodified.
func (k *KeyRing) AppendSeal(dst []byte, user string, level int, plaintext []byte) ([]byte, error) {
	s, err := k.sealer(user, level)
	if err != nil {
		return dst, err
	}
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(append(wire.AppendString(dst, user), byte(level)), nonceSize)
	dst = append(dst, make([]byte, nonceSize)...)
	nonce := dst[len(dst)-nonceSize:]
	if _, err := rand.Read(nonce); err != nil {
		return dst[:start], fmt.Errorf("seccrypto: nonce: %w", err)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(plaintext)+tagSize))
	return s.aead.Seal(dst, nonce, plaintext, s.ad), nil
}

// Seal encrypts plaintext to (user, level).
func (k *KeyRing) Seal(user string, level int, plaintext []byte) (*Envelope, error) {
	data, err := k.AppendSeal(make([]byte, 0, SealedLen(user, len(plaintext))), user, level, plaintext)
	if err != nil {
		return nil, err
	}
	return UnmarshalEnvelope(data)
}

// Open decrypts an envelope; it fails if the ring lacks the key or the
// ciphertext was tampered with.
func (k *KeyRing) Open(e *Envelope) ([]byte, error) {
	s, err := k.sealer(e.User, e.Level)
	if err != nil {
		return nil, err
	}
	if len(e.Nonce) != nonceSize {
		return nil, fmt.Errorf("seccrypto: nonce of %d bytes, want %d", len(e.Nonce), nonceSize)
	}
	pt, err := s.aead.Open(nil, e.Nonce, e.Ciphertext, s.ad)
	if err != nil {
		return nil, fmt.Errorf("seccrypto: open envelope for %s/%d: %w", e.User, e.Level, err)
	}
	return pt, nil
}

// Transform re-encrypts an envelope from its current owner to another
// user at the given level: the server-side operation that converts a
// message sealed at the sender's sensitivity into one sealed to the
// recipient (Section 2: "transforms these messages to those encrypted
// to the recipient's sensitivity upon a receive"). It requires both
// keys.
func (k *KeyRing) Transform(e *Envelope, toUser string, toLevel int) (*Envelope, error) {
	pt, err := k.Open(e)
	if err != nil {
		return nil, fmt.Errorf("seccrypto: transform: %w", err)
	}
	return k.Seal(toUser, toLevel, pt)
}
