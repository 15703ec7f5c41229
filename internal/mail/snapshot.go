package mail

import (
	"encoding/binary"
	"fmt"
	"sort"

	"partsvc/internal/wire"
)

// Component migration needs custom serialization (there is no mobile
// code in Go): a Store's full state — accounts, folders, sealed
// messages, contacts, and the ID counter — round-trips through a typed
// layout, rides the install order's State field, and seeds the migrated
// instance. Messages above the destination store's sensitivity ceiling
// are dropped on restore, so migrating a view onto a less-trusted node
// sheds exactly the state that node must not hold.
//
// The layout is nextID:u64 ceiling:u64 count:u32 account..., an account
// is its user, its contacts (count:u32 contact...) and its non-empty
// folders (count:u32 folder...), and a folder is its name, count:u32
// and its messages in arrival order. Accounts and folders are in name
// order, so equal states give equal bytes.

// accountMin and folderMin are the encoded sizes of an empty account
// and of a folder with an empty name and no messages.
const accountMin, folderMin = 4 + 4 + 4, 4 + 4

// Snapshot serializes the store's complete state.
func (s *Store) Snapshot() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b := binary.BigEndian.AppendUint64(nil, s.nextID)
	b = binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(b, uint64(s.maxSensitivity)), uint32(len(s.accounts)))
	for _, user := range sortedKeys(s.accounts, nil) {
		acct := s.accounts[user]
		b = appendStrings(wire.AppendString(b, user), acct.Contacts)
		folders := sortedKeys(acct.Folders, func(slots []*filed) bool { return len(slots) > 0 })
		b = binary.BigEndian.AppendUint32(b, uint32(len(folders)))
		for _, name := range folders {
			slots := acct.Folders[name]
			b = binary.BigEndian.AppendUint32(wire.AppendString(b, name), uint32(len(slots)))
			for _, f := range slots {
				b = appendMessage(b, &f.Message)
			}
		}
	}
	return b, nil
}

// sortedKeys returns the keys of m whose values keep accepts (all of
// them when keep is nil), sorted.
func sortedKeys[V any](m map[string]V, keep func(V) bool) []string {
	keys := make([]string, 0, len(m))
	for k, v := range m {
		if keep == nil || keep(v) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// RestoreStore rebuilds a store from a snapshot. maxSensitivity, when
// positive, overrides the snapshot's ceiling (the destination node's
// trust); messages above it are silently shed. A snapshot is accepted
// only as Snapshot writes one — names in order, no empty folder, no
// repeated contact or message ID in a folder, nothing above its own
// ceiling — so what it restores snapshots to the same bytes.
func RestoreStore(snapshot []byte, maxSensitivity int) (*Store, error) {
	r := wire.NewReader(snapshot)
	store := NewStore(0)
	store.nextID, store.maxSensitivity = r.Uint64(), int(r.Uint64())
	own := store.maxSensitivity
	if maxSensitivity > 0 {
		store.maxSensitivity = maxSensitivity
	}
	invalid := func(format string, a ...any) { r.Fail(fmt.Errorf("mail: snapshot: "+format, a...)) }
	var user string
	for i, n := 0, r.Count(accountMin); i < n; i++ {
		prev := user
		if user = r.Text(); i > 0 && user <= prev {
			invalid("account %q after %q", user, prev)
		}
		acct := store.account(user)
		contacts := r.Count(4)
		for j := 0; j < contacts; j++ {
			_ = store.AddContact(user, r.Text())
		}
		if len(acct.Contacts) != contacts {
			invalid("repeated contact of %q", user)
		}
		var folder string
		for j, n := 0, r.Count(folderMin); j < n; j++ {
			prev := folder
			folder = r.Text()
			count := r.Count(messageMin)
			if count == 0 || (j > 0 && folder <= prev) {
				invalid("folder %q of %d messages after %q", folder, count, prev)
			}
			for k := 0; k < count; k++ {
				var m Message
				decodeMessage(&r, &m)
				switch {
				case own != 0 && m.Sensitivity > own:
					invalid("message %d above the ceiling", m.ID)
				case !store.Admissible(m.Sensitivity):
					// shed state the destination must not hold
				case !acct.claim(folder, m.ID):
					invalid("message %d repeated in %q", m.ID, folder)
				default:
					acct.Folders[folder] = append(acct.Folders[folder], m.file())
				}
			}
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("mail: decoding snapshot: %w", err)
	}
	return store, nil
}
