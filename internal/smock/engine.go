package smock

import (
	"crypto/rand"
	"fmt"
	"maps"
	"sync"

	"partsvc/internal/netmodel"
	"partsvc/internal/planner"
	"partsvc/internal/transport"
)

// Engine is the deployment engine: it realizes a planner deployment by
// sending install orders to node wrappers, provider-first, wiring each
// component to its upstream's serving address (Figure 1, step 5). What
// runs where is recorded in its Table.
type Engine struct {
	tab *Table

	// applyMu serializes whole adaptation diffs: two concurrent Apply
	// calls must never interleave their teardown and deploy phases over
	// the same placements (e.mu only makes the individual phases atomic).
	applyMu sync.Mutex

	mu       sync.Mutex
	wrappers map[netmodel.NodeID]*NodeWrapper
	// lookup, when set, is deregistered on teardown so stale entries
	// never outlive their instances.
	lookup *Lookup
}

// NewEngine returns an engine. Its install orders travel through the
// wrappers, each over its node's transport.
func NewEngine(transport.Transport) *Engine {
	return &Engine{tab: NewTable(), wrappers: map[netmodel.NodeID]*NodeWrapper{}}
}

// Table returns the engine's record of what runs where.
func (e *Engine) Table() *Table { return e.tab }

// RegisterWrapper makes a node's wrapper available for installs.
func (e *Engine) RegisterWrapper(w *NodeWrapper) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.wrappers[w.Node()] = w
}

// SetLookup attaches a lookup service: Teardown will deregister every
// entry bound to a torn-down instance's address, so the namespace never
// points at dead listeners.
func (e *Engine) SetLookup(l *Lookup) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lookup = l
}

// ControlAddrs returns the wrapper control address of every registered
// node that serves one (see NodeWrapper.ServeControl). These are the
// probe targets for active failure detection: a wrapper answers for its
// node regardless of which components it currently hosts, so probe
// failures blame the node, not a component whose upstream died.
func (e *Engine) ControlAddrs() map[netmodel.NodeID]string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := map[netmodel.NodeID]string{}
	for id, w := range e.wrappers {
		if addr := w.ControlAddr(); addr != "" {
			out[id] = addr
		}
	}
	return out
}

// AdoptInstance records a pre-deployed instance (e.g. the primary
// MailServer) so plans can link to it. It is pinned: the loop never
// tears it down.
func (e *Engine) AdoptInstance(p planner.Placement, addr string) {
	e.tab.Adopt(p, addr)
}

// Teardown uninstalls an instance, deregisters its lookup entries and
// removes it from the table. Adopted instances (installed outside the
// engine) are only forgotten.
func (e *Engine) Teardown(id string) error {
	e.tab.mu.Lock()
	inst := e.tab.removeLocked(id)
	e.tab.mu.Unlock()
	if inst == nil {
		return fmt.Errorf("smock: no instance %s", id)
	}
	e.mu.Lock()
	lookup, w := e.lookup, e.wrappers[inst.Place.Node]
	e.mu.Unlock()
	if lookup != nil {
		lookup.DeregisterAddr(inst.Addr)
	}
	if inst.adopted {
		return nil // its owner uninstalls it
	}
	if w == nil {
		return fmt.Errorf("smock: no wrapper for node %s", inst.Place.Node)
	}
	return w.Uninstall(id)
}

// Apply realizes a planner adaptation diff: the current instances of
// evicted placements are torn down (their nodes may no longer be
// trusted with them), and the new deployment is executed, fresh
// installs seeded from states (serialized state snapshots by placement
// key). Instances the diff marks Remove, and instances a stale-wired
// reuse supersedes, are left running to drain: live components may
// still be wired through them. Whole diffs are serialized per engine.
// It returns the new head address.
func (e *Engine) Apply(diff *planner.Diff, states map[string][]byte) (string, error) {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	for _, p := range diff.Evicted {
		e.tab.mu.Lock()
		inst := e.tab.cur[p.Key()]
		e.tab.mu.Unlock()
		if inst != nil {
			_ = e.Teardown(inst.ID) // best-effort: its node may be gone
		}
	}
	return e.execute(diff.New, states)
}

// AddrOf resolves a placement to the address of its instance (see
// Table.Addr).
func (e *Engine) AddrOf(p planner.Placement) (string, bool) {
	return e.tab.Addr(p.Key())
}

// InstanceCount returns the number of instances in the table.
func (e *Engine) InstanceCount() int { return len(e.tab.Instances()) }

// Execute deploys every placement of the deployment without a reusable
// instance, providers first, and returns the address of the head
// component (the service-specific proxy target).
func (e *Engine) Execute(dep *planner.Deployment) (string, error) {
	return e.execute(dep, nil)
}

// execute realizes dep. Placements are in pre-order of the linkage
// graph, so a reverse index walk resolves every provider subtree before
// the client that wires to it; each edge carries the interface name the
// client requires, which keys the wrapper's upstream map. A current
// instance is reused when it is adopted, a terminal (a branch of the
// plan ends at it and it keeps its own wiring), or wired to exactly the
// planned providers; otherwise a fresh instance supersedes it, and
// because providers resolve before their clients, a replaced provider
// cascades fresh wiring toward the client. The fresh instances enter
// the table together, pinned, once all are installed; if one install
// fails the others are uninstalled, so a failed execute changes
// nothing.
func (e *Engine) execute(dep *planner.Deployment, states map[string][]byte) (head string, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := len(dep.Placements)
	if len(dep.Edges) != n-1 {
		return "", fmt.Errorf("smock: deployment has %d placements but %d edges: it does not say who links to whom", n, len(dep.Edges))
	}
	providers := make([][]planner.Edge, n)
	linked := make([]bool, n)
	for _, ed := range dep.Edges {
		if ed.From < 0 || ed.To <= ed.From || ed.To >= n || linked[ed.To] {
			return "", fmt.Errorf("smock: deployment has invalid edge %d -> %d", ed.From, ed.To)
		}
		if ed.Iface == "" {
			return "", fmt.Errorf("smock: edge %d -> %d has no interface name", ed.From, ed.To)
		}
		linked[ed.To] = true
		providers[ed.From] = append(providers[ed.From], ed)
	}
	got := make([]*entry, n)
	var fresh []*entry
	defer func() {
		e.tab.mu.Lock()
		defer e.tab.mu.Unlock()
		for _, inst := range fresh {
			if err != nil {
				_ = e.wrappers[inst.Place.Node].Uninstall(inst.ID)
			} else {
				e.tab.enterLocked(inst)
			}
		}
	}()
	for i := n - 1; i >= 0; i-- {
		p := dep.Placements[i]
		order := InstallOrder{
			Component:       p.Component,
			Config:          p.Config,
			State:           states[p.Key()],
			Upstreams:       map[string]string{},
			UpstreamSecrets: map[string][]byte{},
		}
		upstreams := map[string]string{}
		for _, ed := range providers[i] {
			up := got[ed.To]
			order.Upstreams[ed.Iface] = up.Addr
			order.UpstreamSecrets[ed.Iface] = up.secret
			upstreams[ed.Iface] = up.ID
		}
		e.tab.mu.Lock()
		cur := e.tab.cur[p.Key()]
		e.tab.mu.Unlock()
		if cur != nil && (cur.adopted || len(providers[i]) == 0 || maps.Equal(cur.Upstreams, upstreams)) {
			got[i] = cur
			continue
		}
		if cur == nil && p.Reused {
			return "", fmt.Errorf("smock: plan reuses unknown instance %s", p.Key())
		}
		w, ok := e.wrappers[p.Node]
		if !ok {
			return "", fmt.Errorf("smock: no wrapper registered for node %s", p.Node)
		}
		e.tab.mu.Lock()
		inst := e.tab.mintLocked(p, upstreams)
		e.tab.mu.Unlock()
		order.InstanceID = inst.ID
		if i > 0 {
			// Generate the secret this instance shares with its client.
			inst.secret = make([]byte, 32)
			if _, err := rand.Read(inst.secret); err != nil {
				return "", fmt.Errorf("smock: edge secret: %w", err)
			}
			order.ServeSecret = inst.secret
		}
		if inst.Addr, err = w.Install(order); err != nil {
			return "", err
		}
		inst.Pinned = true
		fresh = append(fresh, inst)
		got[i] = inst
	}
	return got[0].Addr, nil
}
