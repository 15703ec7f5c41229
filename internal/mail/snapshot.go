package mail

import (
	"fmt"

	"partsvc/internal/wire"
)

// Component migration needs custom serialization (there is no mobile
// code in Go): a Store's full state — accounts, folders, sealed
// messages, contacts, and the ID counter — round-trips through the wire
// format, rides the install order's State field, and seeds the migrated
// instance. Messages above the destination store's sensitivity ceiling
// are dropped on restore, so migrating a view onto a less-trusted node
// sheds exactly the state that node must not hold.

// Snapshot serializes the store's complete state.
func (s *Store) Snapshot() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	accounts := map[string]any{}
	for user, acct := range s.accounts {
		folders := map[string]any{}
		for folder, slots := range acct.Folders {
			items := make([]any, 0, len(slots))
			for _, f := range slots {
				data, err := encodeMessage(&f.Message)
				if err != nil {
					return nil, fmt.Errorf("mail: snapshot message %d: %w", f.ID, err)
				}
				items = append(items, data)
			}
			folders[folder] = items
		}
		contacts := make([]any, len(acct.Contacts))
		for i, c := range acct.Contacts {
			contacts[i] = c
		}
		accounts[user] = map[string]any{"folders": folders, "contacts": contacts}
	}
	return wire.Marshal(map[string]any{
		"accounts": accounts,
		"nextID":   int64(s.nextID),
		"maxSens":  int64(s.maxSensitivity),
	})
}

// RestoreStore rebuilds a store from a snapshot. maxSensitivity, when
// positive, overrides the snapshot's ceiling (the destination node's
// trust); messages above it are silently shed.
func RestoreStore(snapshot []byte, maxSensitivity int) (*Store, error) {
	v, err := wire.Unmarshal(snapshot)
	if err != nil {
		return nil, fmt.Errorf("mail: decoding snapshot: %w", err)
	}
	root, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("mail: snapshot is %T", v)
	}
	ceiling := maxSensitivity
	if ceiling == 0 {
		if ms, ok := root["maxSens"].(int64); ok {
			ceiling = int(ms)
		}
	}
	store := NewStore(ceiling)
	if next, ok := root["nextID"].(int64); ok {
		store.nextID = uint64(next)
	}
	accounts, _ := root["accounts"].(map[string]any)
	for user, rawAcct := range accounts {
		acct, ok := rawAcct.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("mail: snapshot account %q is %T", user, rawAcct)
		}
		store.EnsureAccount(user)
		if folders, ok := acct["folders"].(map[string]any); ok {
			for folder, rawItems := range folders {
				items, ok := rawItems.([]any)
				if !ok {
					return nil, fmt.Errorf("mail: snapshot folder %q is %T", folder, rawItems)
				}
				for _, raw := range items {
					data, ok := raw.([]byte)
					if !ok {
						return nil, fmt.Errorf("mail: snapshot message entry is %T", raw)
					}
					m, err := decodeMessage(data, false)
					if err != nil {
						return nil, err
					}
					if !store.Admissible(m.Sensitivity) {
						continue // shed state the destination must not hold
					}
					if err := store.Append(user, folder, m); err != nil {
						return nil, err
					}
				}
			}
		}
		if contacts, ok := acct["contacts"].([]any); ok {
			for _, raw := range contacts {
				c, ok := raw.(string)
				if !ok {
					return nil, fmt.Errorf("mail: snapshot contact is %T", raw)
				}
				if err := store.AddContact(user, c); err != nil {
					return nil, err
				}
			}
		}
	}
	return store, nil
}
