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
	"sort"
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

// Account is one user's mailbox state.
type Account struct {
	User     string
	Folders  map[string][]*Message
	Contacts []string
	// ids holds the non-zero message IDs filed in each folder, beside
	// the slice that keeps arrival order: the duplicate test of Append.
	ids map[string]map[uint64]struct{}
}

func newAccount(user string) *Account {
	return &Account{
		User:    user,
		Folders: map[string][]*Message{FolderInbox: nil, FolderSent: nil},
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

// MaxSensitivity returns the store's ceiling (0 = unrestricted).
func (s *Store) MaxSensitivity() int { return s.maxSensitivity }

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
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.accounts[user]; !ok {
		s.accounts[user] = newAccount(user)
	}
}

// HasAccount reports whether the user exists.
func (s *Store) HasAccount(user string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.accounts[user]
	return ok
}

// Users returns the account names, sorted.
func (s *Store) Users() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.accounts))
	for u := range s.accounts {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
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

// Append files a message copy into a user's folder. It enforces the
// sensitivity ceiling and creates the account if needed (replicated
// deliveries may precede account replication). Duplicate IDs in the
// same folder are ignored, making replicated deliveries idempotent.
func (s *Store) Append(user, folder string, m *Message) error {
	if !s.Admissible(m.Sensitivity) {
		return fmt.Errorf("mail: message sensitivity %d exceeds store ceiling %d", m.Sensitivity, s.maxSensitivity)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	acct, ok := s.accounts[user]
	if !ok {
		acct = newAccount(user)
		s.accounts[user] = acct
	}
	if m.ID != 0 {
		seen := acct.ids[folder]
		if seen == nil {
			seen = map[uint64]struct{}{}
			acct.ids[folder] = seen
		}
		if _, dup := seen[m.ID]; dup {
			return nil
		}
		seen[m.ID] = struct{}{}
	}
	acct.Folders[folder] = append(acct.Folders[folder], m.clone())
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
	msgs := acct.Folders[folder]
	out := make([]*Message, len(msgs))
	for i, m := range msgs {
		out[i] = m.clone()
	}
	return out, nil
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
