package mail

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"partsvc/internal/coherence"
	"partsvc/internal/seccrypto"
	"partsvc/internal/trace"
	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

// API is the ServerInterface of the mail specification: the operations
// a mail client invokes against whatever stands in for the server — the
// primary, a view replica, or an encryptor tunnel.
type API interface {
	// CreateAccount provisions a user, generating per-level keys.
	CreateAccount(user string) error
	// SendCtx files a message; the body is sealed at the sender's
	// sensitivity level before it leaves the trusted component. ctx
	// carries the trace the call continues, so a coherence flush the
	// send triggers deep in the chain still parents on its span.
	SendCtx(ctx context.Context, from, to, subject string, body []byte, sensitivity int) (uint64, error)
	// ReceiveCtx returns the messages of the user's inbox whose
	// sensitivity is above the floor (0 = the whole inbox), every body
	// transformed to the recipient's key. The bodies are read-only: a
	// provider may return its stored bytes, so a caller reassigns Body
	// (as the clients do when they decrypt) and never writes into it.
	ReceiveCtx(ctx context.Context, user string, above int) ([]*Message, error)
	// AddContact and Contacts maintain the user's address book (not
	// available through the restricted ViewMailClient).
	AddContact(user, contact string) error
	Contacts(user string) ([]string, error)
}

// Server is the primary MailServer component: unrestricted store, full
// key ring, and the coherence directory against which view replicas
// register.
type Server struct {
	store *Store
	keys  *seccrypto.KeyRing
	clock transport.Clock
	dir   *coherence.Directory
	// replica is the primary's own coherence agent: its writes are
	// published to the directory immediately (the primary is always
	// consistent).
	replica *coherence.Replica
}

// ViewName is the coherence view identity under which mail state
// replicates.
const ViewName = "mail"

// NewServer returns a primary mail server with its own directory.
func NewServer(keys *seccrypto.KeyRing, clock transport.Clock) *Server {
	s := &Server{
		store: NewStore(0),
		keys:  keys,
		clock: clock,
		dir:   coherence.NewDirectory(),
	}
	s.replica = coherence.NewReplica("primary", coherence.WriteThrough{}, func(u coherence.Update) {
		applyUpdate(s.store, u)
	})
	s.dir.Register(ViewName, s.replica)
	return s
}

// Directory exposes the coherence directory for replica registration.
func (s *Server) Directory() *coherence.Directory { return s.dir }

// Store exposes the primary store (read-mostly, for tests and tools).
func (s *Server) Store() *Store { return s.store }

// Snapshot serializes the primary store for migration.
func (s *Server) Snapshot() ([]byte, error) { return s.store.Snapshot() }

// CreateAccount provisions the user and generates per-level keys
// (account-setup key generation, Section 2).
func (s *Server) CreateAccount(user string) error {
	if err := s.store.CreateAccount(user); err != nil {
		return err
	}
	if err := s.keys.GenerateUserKeys(user, seccrypto.MaxLevel); err != nil {
		return err
	}
	s.publish(context.Background(), "createAccount", user, nil)
	return nil
}

// Send seals the body at the sender's sensitivity and files it into the
// recipient's inbox and the sender's sent folder.
func (s *Server) Send(from, to, subject string, body []byte, sensitivity int) (uint64, error) {
	return s.SendCtx(context.Background(), from, to, subject, body, sensitivity)
}

// SendCtx is Send continuing the trace in ctx: the coherence fan-out it
// triggers parents on the send's span.
func (s *Server) SendCtx(ctx context.Context, from, to, subject string, body []byte, sensitivity int) (uint64, error) {
	m, data, err := sealMessage(s.keys, s.store, from, to, subject, body, sensitivity, s.clock.NowMS())
	if err != nil {
		return 0, err
	}
	if err := s.store.deliver(m); err != nil {
		return 0, err
	}
	s.publish(ctx, "send", m.To, data)
	return m.ID, nil
}

// ReceiveCtx returns the user's inbox above the floor, each body
// transformed to the recipient's key at the message's sensitivity
// level. A floored receive is a view asking for what it may not hold
// itself; for a user this server has never heard of that is nothing,
// not an error.
func (s *Server) ReceiveCtx(_ context.Context, user string, above int) ([]*Message, error) {
	if above > 0 && !s.store.HasAccount(user) {
		return nil, nil
	}
	return receiveFrom(s.store, s.keys, user, above)
}

// AddContact appends to the address book.
func (s *Server) AddContact(user, contact string) error {
	if err := s.store.AddContact(user, contact); err != nil {
		return err
	}
	s.publish(context.Background(), "addContact", user+"\x00"+contact, nil)
	return nil
}

// Contacts returns the address book.
func (s *Server) Contacts(user string) ([]string, error) {
	return s.store.Contacts(user)
}

// publish logs a primary write and fans it out to replicas immediately,
// under a "coherence.flush" span: the primary is write-through, so every
// primary write is its own flush.
func (s *Server) publish(ctx context.Context, op, key string, data []byte) {
	now := s.clock.NowMS()
	s.replica.Write(op, key, data, now)
	batch := s.replica.TakePending(now)
	_, span := trace.Start(ctx, "coherence.flush")
	if span != nil {
		span.SetAttr("updates", strconv.Itoa(len(batch)))
	}
	s.dir.Publish(ViewName, batch)
	span.End()
}

// sealMessage validates a send and seals its body at the sender's
// sensitivity straight into the message's encoding. That one buffer is
// the data of the coherence update the send publishes, and the
// returned message's Body, which the store files, points into it.
func sealMessage(keys *seccrypto.KeyRing, ids *Store, from, to, subject string, body []byte, sensitivity int, nowMS float64) (*Message, []byte, error) {
	if sensitivity < 1 || sensitivity > seccrypto.MaxLevel {
		return nil, nil, fmt.Errorf("mail: sensitivity %d outside 1..%d", sensitivity, seccrypto.MaxLevel)
	}
	m := &Message{ID: ids.AssignID(), From: from, To: to, Subject: subject, Sensitivity: sensitivity, SentAtMS: nowMS}
	n := seccrypto.SealedLen(from, len(body))
	head := binary.BigEndian.AppendUint32(appendHead(make([]byte, 0, messageLen(m)+n), m), uint32(n))
	data, err := keys.AppendSeal(head, from, sensitivity, body)
	if err != nil {
		return nil, nil, fmt.Errorf("mail: sealing message: %w", err)
	}
	m.Body = data[len(head):]
	return m, data, nil
}

// receiveFrom returns the messages of a user's inbox above the
// sensitivity floor with bodies transformed to the recipient's own keys
// ("transforms these messages to those encrypted to the recipient's
// sensitivity upon a receive"). A message is transformed by the first
// receive that returns it and the store keeps the result: keys are
// write-once, so it stays valid, and a second receive of an unchanged
// inbox seals nothing. The transforms run outside the store's lock — a
// sender does not wait while a reader re-seals an inbox. The returned
// bodies are the store's own immutable bytes.
func receiveFrom(store *Store, keys *seccrypto.KeyRing, user string, above int) ([]*Message, error) {
	msgs, todo, err := store.inboxAbove(user, above)
	if err != nil {
		return nil, err
	}
	for _, t := range todo {
		m := &msgs[t.at]
		env, err := seccrypto.UnmarshalEnvelope(m.Body)
		if err != nil {
			return nil, fmt.Errorf("mail: message %d: %w", m.ID, err)
		}
		pt, err := keys.Open(env)
		if err == nil {
			m.Body, err = keys.AppendSeal(make([]byte, 0, seccrypto.SealedLen(user, len(pt))), user, m.Sensitivity, pt)
		}
		if err != nil {
			return nil, fmt.Errorf("mail: transforming message %d: %w", m.ID, err)
		}
	}
	if len(todo) > 0 {
		store.keepOwned(msgs, todo)
	}
	out := make([]*Message, len(msgs))
	for i := range msgs {
		out[i] = &msgs[i]
	}
	return out, nil
}

// messageMin is the encoded size of a message whose strings and body
// are empty.
const messageMin = 8 + 4 + 4 + 4 + 1 + 8 + 4

func messageLen(m *Message) int {
	return messageMin + len(m.From) + len(m.To) + len(m.Subject) + len(m.Body)
}

// appendHead appends every field of m's layout but the body.
func appendHead(b []byte, m *Message) []byte {
	b = binary.BigEndian.AppendUint64(b, m.ID)
	b = wire.AppendString(wire.AppendString(wire.AppendString(b, m.From), m.To), m.Subject)
	return binary.BigEndian.AppendUint64(append(b, byte(m.Sensitivity)), math.Float64bits(m.SentAtMS))
}

// appendMessage appends m's layout, for coherence updates, replies and
// snapshots.
func appendMessage(b []byte, m *Message) []byte {
	return wire.AppendString(appendHead(b, m), m.Body)
}

// decodeMessage reads a message into m with its body pointing into the
// input. One without a sender or a recipient, or whose sensitivity is
// outside 1..seccrypto.MaxLevel, fails r.
func decodeMessage(r *wire.Reader, m *Message) {
	*m = Message{ID: r.Uint64(), From: r.Text(), To: r.Text(), Subject: r.Text(),
		Sensitivity: int(r.Byte()), SentAtMS: r.Float64(), Body: r.Bytes()}
	if m.From == "" || m.To == "" || m.Sensitivity < 1 || m.Sensitivity > seccrypto.MaxLevel {
		r.Fail(fmt.Errorf("mail: invalid message encoding (from %q, to %q, sensitivity %d)", m.From, m.To, m.Sensitivity))
	}
}

// applyUpdate replays a coherence update against a store. An update
// that does not decode is dropped, and so are messages above the
// store's ceiling (a trust-limited view must not hold them). The filed
// body points into the update's data, which is as immutable as the
// store's own bytes.
func applyUpdate(store *Store, u coherence.Update) {
	switch u.Op {
	case "createAccount":
		store.EnsureAccount(u.Key)
	case "addContact":
		for i := 0; i+1 < len(u.Key); i++ {
			if u.Key[i] == 0 {
				store.EnsureAccount(u.Key[:i])
				// Contact adds are idempotent; errors cannot occur after
				// EnsureAccount.
				_ = store.AddContact(u.Key[:i], u.Key[i+1:])
				return
			}
		}
	case "send":
		var m Message
		r := wire.NewReader(u.Data)
		decodeMessage(&r, &m)
		if r.Done() != nil || !store.Admissible(m.Sensitivity) {
			return
		}
		_ = store.deliver(&m)
	}
}
