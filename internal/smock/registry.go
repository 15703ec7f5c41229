// Package smock implements the framework's run-time system (HPDC'02,
// Section 3.2): Smock — "Secure Mobile Code". It provides the generic
// proxy and server, attribute-based lookup, node wrappers that install
// components remotely, and the deployment engine that realizes planner
// output. Go has no mobile code, so "downloading a component" ships a
// (factory name, configuration, state snapshot) triple over the wire
// format and the receiving wrapper activates it from a factory
// registry — the custom-serialization substitution documented in
// DESIGN.md.
package smock

import (
	"fmt"
	"sync"

	"partsvc/internal/netmodel"
	"partsvc/internal/property"
	"partsvc/internal/transport"
)

// ActivationContext carries everything a factory needs to bring a
// component instance to life on a node.
type ActivationContext struct {
	// InstanceID uniquely names the instance (e.g.
	// "ViewMailServer@sd-2#1").
	InstanceID string
	// Node is the hosting node.
	Node netmodel.NodeID
	// Config holds the factored property bindings chosen by the planner
	// (e.g. TrustLevel=4).
	Config property.Set
	// State is an opaque serialized state snapshot for migrated or
	// replicated instances (may be nil).
	State []byte
	// Upstreams provides a dialed endpoint per required interface,
	// already wired by the deployment engine.
	Upstreams map[string]transport.Endpoint
	// UpstreamSecrets carries one shared secret per required interface
	// edge; the matching provider receives the same bytes in
	// ServeSecret. Encryptor/Decryptor pairs use it as their channel
	// key; other components ignore it.
	UpstreamSecrets map[string][]byte
	// ServeSecret is the secret shared with this instance's client-side
	// edge (nil for heads).
	ServeSecret []byte
	// Clock is the time source (real or simulated).
	Clock transport.Clock
}

// Factory activates a component instance, returning the handler that
// serves its implemented interface.
type Factory func(ctx *ActivationContext) (transport.Handler, error)

// Registry maps component names to factories: the stand-in for Java
// dynamic class loading ("Smock ... benefits from the latter's support
// for dynamic class loading, verification, and installation").
type Registry struct {
	mu        sync.RWMutex
	factories map[string]Factory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{factories: map[string]Factory{}} }

// Register binds a component name to its factory; duplicate names are
// an error (a node must not silently swap implementations).
func (r *Registry) Register(component string, f Factory) error {
	if component == "" || f == nil {
		return fmt.Errorf("smock: factory registration needs a name and a function")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.factories[component]; dup {
		return fmt.Errorf("smock: component %q already registered", component)
	}
	r.factories[component] = f
	return nil
}

// Activate instantiates a component by name.
func (r *Registry) Activate(component string, ctx *ActivationContext) (transport.Handler, error) {
	r.mu.RLock()
	f, ok := r.factories[component]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("smock: no factory for component %q", component)
	}
	h, err := f(ctx)
	if err != nil {
		return nil, fmt.Errorf("smock: activating %q: %w", component, err)
	}
	return h, nil
}
