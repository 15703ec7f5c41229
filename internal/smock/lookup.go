package smock

import (
	"fmt"
	"sync"
)

// Entry is one registered service in the lookup namespace.
type Entry struct {
	// Service is the service name.
	Service string
	// Attrs are free-form attributes for attribute-based lookup
	// ("clients locate and download the proxy by using an
	// attribute-based lookup service").
	Attrs map[string]string
	// ServerAddr is the generic server's address — the "generic proxy"
	// payload a client downloads.
	ServerAddr string
}

// Lookup is the Jini-like lookup service (Figure 1, steps 1-2).
type Lookup struct {
	mu      sync.RWMutex
	entries []Entry
}

// NewLookup returns an empty lookup service.
func NewLookup() *Lookup { return &Lookup{} }

// Register adds a service entry (Figure 1, step 1). Re-registering a
// service name replaces the previous entry.
func (l *Lookup) Register(e Entry) error {
	if e.Service == "" || e.ServerAddr == "" {
		return fmt.Errorf("smock: lookup registration needs service and server address")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.entries {
		if l.entries[i].Service == e.Service {
			l.entries[i] = e
			return nil
		}
	}
	l.entries = append(l.entries, e)
	return nil
}

// Deregister removes the entry registered under a service name,
// reporting whether one existed. A torn-down service must disappear
// from the namespace, or clients would keep downloading proxies bound
// to dead addresses.
func (l *Lookup) Deregister(service string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.entries {
		if l.entries[i].Service == service {
			l.entries = append(l.entries[:i], l.entries[i+1:]...)
			return true
		}
	}
	return false
}

// DeregisterAddr removes every entry whose ServerAddr equals addr and
// returns how many were dropped. The deployment engine calls this from
// Teardown so a torn-down instance's address can no longer be found.
func (l *Lookup) DeregisterAddr(addr string) int {
	if addr == "" {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.entries[:0]
	removed := 0
	for _, e := range l.entries {
		if e.ServerAddr == addr {
			removed++
			continue
		}
		kept = append(kept, e)
	}
	for i := len(kept); i < len(l.entries); i++ {
		l.entries[i] = Entry{}
	}
	l.entries = kept
	return removed
}

// Find returns the entries whose attributes contain every given
// attribute (empty attrs match everything). Service name, when
// non-empty, must match exactly.
func (l *Lookup) Find(service string, attrs map[string]string) []Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []Entry
	for _, e := range l.entries {
		if service != "" && e.Service != service {
			continue
		}
		match := true
		for k, v := range attrs {
			if e.Attrs[k] != v {
				match = false
				break
			}
		}
		if match {
			out = append(out, e)
		}
	}
	return out
}
