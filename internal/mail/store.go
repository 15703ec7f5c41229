// Package mail implements the paper's example application (Section 2):
// a security-sensitive mail service built from a replicable MailServer,
// data-view replicas (ViewMailServer), full and restricted clients, and
// Encryptor/Decryptor tunnel components. Messages carry a sensitivity
// level; bodies are sealed to the sender's level on send and transformed
// to the recipient's key on receive. View instances hold only the
// messages whose sensitivity their node's trust level permits.
package mail

import (
	"fmt"
	"sync"
)

// Folder names used by the store.
const (
	FolderInbox = "inbox"
	FolderSent  = "sent"
)

// Message is one mail message. Body is an encoded seccrypto.Envelope
// whenever the message is at rest or in transit.
type Message struct {
	// ID is assigned by the store that first accepts the message.
	ID uint64
	// From and To are user names.
	From, To string
	// Subject is plaintext metadata.
	Subject string
	// Body is the (usually sealed) message payload.
	Body []byte
	// Sensitivity is the message's level (1..seccrypto.MaxLevel).
	Sensitivity int
	// SentAtMS is the sender-side timestamp.
	SentAtMS float64
}

// clone returns a deep copy so callers cannot alias store internals.
func (m *Message) clone() *Message {
	c := *m
	c.Body = append([]byte(nil), m.Body...)
	return &c
}

// filed is a message as a store holds it: the message, immutable once
// filed, and beside it owned, its body transformed to the key of the
// owner of the inbox it is filed in at the message's sensitivity — nil
// until the first receive that returns the message, immutable after,
// guarded by Store.mu. A delivery files one value in the recipient's
// inbox and the sender's sent folder, so a value sits in at most one
// inbox. owned is state of this store alone: neither Folder's clones
// nor Snapshot carry it.
type filed struct {
	Message
	owned []byte
}

// file returns a copy of m, body included, as a store files it.
func (m *Message) file() *filed {
	f := &filed{Message: *m}
	f.Body = append([]byte(nil), m.Body...)
	return f
}

// Account is one user's mailbox state.
type Account struct {
	User     string
	Folders  map[string][]*filed
	Contacts []string
	// ids holds the non-zero message IDs filed in each folder, beside
	// the slice that keeps arrival order: the duplicate test of Append.
	ids map[string]map[uint64]struct{}
}

func newAccount(user string) *Account {
	return &Account{
		User:    user,
		Folders: map[string][]*filed{FolderInbox: nil, FolderSent: nil},
		ids:     map[string]map[uint64]struct{}{},
	}
}

// Store is the mail state engine shared by the MailServer and
// ViewMailServer components: accounts, folders, and contact lists, with
// an optional sensitivity ceiling (a data view on a trust-limited node
// must not hold messages above its level). It is safe for concurrent
// use.
type Store struct {
	mu sync.RWMutex
	// maxSensitivity caps stored messages; 0 means unrestricted.
	maxSensitivity int
	accounts       map[string]*Account
	nextID         uint64
}

// NewStore returns an empty store. maxSensitivity restricts which
// messages the store may hold (0 = unrestricted; the primary server).
func NewStore(maxSensitivity int) *Store {
	return &Store{maxSensitivity: maxSensitivity, accounts: map[string]*Account{}}
}

// CreateAccount adds an account; creating an existing account is an
// error.
func (s *Store) CreateAccount(user string) error {
	if user == "" {
		return fmt.Errorf("mail: empty user name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.accounts[user]; dup {
		return fmt.Errorf("mail: account %q already exists", user)
	}
	s.accounts[user] = newAccount(user)
	return nil
}

// EnsureAccount creates the account if absent (used when replicating
// state into views).
func (s *Store) EnsureAccount(user string) {
	if s.HasAccount(user) {
		return // the usual case: readers do not queue behind senders for it
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.account(user)
}

// HasAccount reports whether the user exists.
func (s *Store) HasAccount(user string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.accounts[user]
	return ok
}

// AssignID allocates a message ID (primary store only).
func (s *Store) AssignID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	return s.nextID
}

// Admissible reports whether the store may hold a message of the given
// sensitivity.
func (s *Store) Admissible(sensitivity int) bool {
	return s.maxSensitivity == 0 || sensitivity <= s.maxSensitivity
}

// claim records a message ID in the folder's duplicate set and reports
// whether it is new there (ID 0 always is).
func (a *Account) claim(folder string, id uint64) bool {
	if id == 0 {
		return true
	}
	seen := a.ids[folder]
	if seen == nil {
		seen = map[uint64]struct{}{}
		a.ids[folder] = seen
	}
	if _, dup := seen[id]; dup {
		return false
	}
	seen[id] = struct{}{}
	return true
}

// account returns the user's account, creating it if absent. The caller
// holds s.mu for writing.
func (s *Store) account(user string) *Account {
	acct, ok := s.accounts[user]
	if !ok {
		acct = newAccount(user)
		s.accounts[user] = acct
	}
	return acct
}

func (s *Store) checkCeiling(m *Message) error {
	if !s.Admissible(m.Sensitivity) {
		return fmt.Errorf("mail: message sensitivity %d exceeds store ceiling %d", m.Sensitivity, s.maxSensitivity)
	}
	return nil
}

// Append files a message copy into a user's folder. It enforces the
// sensitivity ceiling and creates the account if needed (replicated
// deliveries may precede account replication). Duplicate IDs in the
// same folder are ignored, making replicated deliveries idempotent.
func (s *Store) Append(user, folder string, m *Message) error {
	if err := s.checkCeiling(m); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	acct := s.account(user)
	if acct.claim(folder, m.ID) {
		acct.Folders[folder] = append(acct.Folders[folder], m.file())
	}
	return nil
}

// deliver files a sealed message into the recipient's inbox and, when
// the sender has an account here, the sender's sent folder: one value
// in both, under one lock acquisition. The store takes m.Body as it is,
// without a copy, so the caller hands over bytes nothing will write to
// again: a body sealed for this delivery, or one pointing into the data
// of a replicated update. An unrestricted store (the primary) refuses
// mail for an unknown recipient; a view's store creates the account,
// since a replicated delivery may precede it.
func (s *Store) deliver(m *Message) error {
	if err := s.checkCeiling(m); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.accounts[m.To]; !ok && s.maxSensitivity == 0 {
		return fmt.Errorf("mail: no account %q", m.To)
	}
	to, f := s.account(m.To), &filed{Message: *m}
	if to.claim(FolderInbox, m.ID) {
		to.Folders[FolderInbox] = append(to.Folders[FolderInbox], f)
	}
	if from, ok := s.accounts[m.From]; ok && from.claim(FolderSent, m.ID) {
		from.Folders[FolderSent] = append(from.Folders[FolderSent], f)
	}
	return nil
}

// Folder returns copies of a user's folder contents in arrival order.
func (s *Store) Folder(user, folder string) ([]*Message, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	acct, ok := s.accounts[user]
	if !ok {
		return nil, fmt.Errorf("mail: no account %q", user)
	}
	slots := acct.Folders[folder]
	out := make([]*Message, len(slots))
	for i, f := range slots {
		out[i] = f.clone()
	}
	return out, nil
}

// untransformed names a message inboxAbove returned with the body still
// sealed by its sender: msgs[at] is the stored message f.
type untransformed struct {
	at int
	f  *filed
}

// inboxAbove returns the messages of a user's inbox with sensitivity
// above the floor, in arrival order, as shallow copies. A message some
// earlier receive transformed carries that body; the others carry the
// sender-sealed one and are listed in todo, for the caller to transform
// outside the lock and hand back through keepOwned. Bodies point at the
// store's own bytes, which are immutable: the caller may reassign a
// Body, never write into one.
func (s *Store) inboxAbove(user string, above int) (msgs []Message, todo []untransformed, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	acct, ok := s.accounts[user]
	if !ok {
		return nil, nil, fmt.Errorf("mail: no account %q", user)
	}
	inbox := acct.Folders[FolderInbox]
	n := 0
	for _, f := range inbox {
		if f.Sensitivity > above {
			n++
		}
	}
	msgs = make([]Message, 0, n)
	for _, f := range inbox {
		if f.Sensitivity <= above {
			continue
		}
		m := f.Message
		if f.owned != nil {
			m.Body = f.owned
		} else {
			todo = append(todo, untransformed{at: len(msgs), f: f})
		}
		msgs = append(msgs, m)
	}
	return msgs, todo, nil
}

// keepOwned stores the bodies the caller transformed for the todo list
// of inboxAbove. Where a racing receive stored its own transform first
// that one stands, and msgs is updated to carry it, so every reader
// sees the same bytes for one message.
func (s *Store) keepOwned(msgs []Message, todo []untransformed) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range todo {
		if t.f.owned == nil {
			t.f.owned = msgs[t.at].Body
		} else {
			msgs[t.at].Body = t.f.owned
		}
	}
}

// AddContact appends to a user's contact list (idempotent).
func (s *Store) AddContact(user, contact string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	acct, ok := s.accounts[user]
	if !ok {
		return fmt.Errorf("mail: no account %q", user)
	}
	for _, c := range acct.Contacts {
		if c == contact {
			return nil
		}
	}
	acct.Contacts = append(acct.Contacts, contact)
	return nil
}

// Contacts returns a copy of the user's contact list.
func (s *Store) Contacts(user string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	acct, ok := s.accounts[user]
	if !ok {
		return nil, fmt.Errorf("mail: no account %q", user)
	}
	return append([]string(nil), acct.Contacts...), nil
}

// InboxCount returns the number of messages in a user's inbox (0 for a
// missing account).
func (s *Store) InboxCount(user string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	acct, ok := s.accounts[user]
	if !ok {
		return 0
	}
	return len(acct.Folders[FolderInbox])
}
