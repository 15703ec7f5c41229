package smock

import (
	"crypto/rand"
	"fmt"
	"maps"
	"sort"
	"sync"

	"partsvc/internal/netmodel"
	"partsvc/internal/planner"
	"partsvc/internal/transport"
)

// Engine is the deployment engine: it realizes a planner deployment by
// sending install orders to node wrappers, provider-first, wiring each
// component to its upstream's serving address (Figure 1, step 5).
type Engine struct {
	tr transport.Transport

	// applyMu serializes whole adaptation diffs: two concurrent Apply
	// calls must never interleave their teardown and deploy phases over
	// the same placements (e.mu only makes the individual phases atomic).
	applyMu    sync.Mutex
	generation int // completed Apply count, read via Generation

	mu       sync.Mutex
	wrappers map[netmodel.NodeID]*NodeWrapper
	// instances tracks live instances by placement key so reused
	// placements resolve to their existing address and edge secret.
	instances map[string]instanceInfo
	counter   int
	// lookup, when set, is deregistered on teardown so stale entries
	// never outlive their instances.
	lookup *Lookup
}

type instanceInfo struct {
	addr        string
	serveSecret []byte
	instanceID  string
	node        netmodel.NodeID
	// upstreams is the provider address this instance was installed
	// with, per required interface (empty for terminals and adopted
	// instances). A reuse whose planned provider wiring resolves
	// differently is stale and must be reinstalled; because deployments
	// resolve providers before their clients, a replaced provider
	// cascades fresh wiring toward the client. Data views recover their
	// state from the coherence directory, so the replacement is
	// state-preserving. OrphanedBy follows the same record.
	upstreams map[string]string
}

// NewEngine returns an engine over one transport.
func NewEngine(tr transport.Transport) *Engine {
	return &Engine{tr: tr, wrappers: map[netmodel.NodeID]*NodeWrapper{}, instances: map[string]instanceInfo{}}
}

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

// Generation returns the number of adaptation diffs applied so far.
// Concurrent adapters can use it as an optimistic check: observe the
// generation, plan, and skip the apply if another diff landed meanwhile.
func (e *Engine) Generation() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.generation
}

// OrphanedBy returns the placement keys (sorted) of live instances
// whose upstream wiring chains transitively through any of the dead
// placements. An orphan is installed and answering, but every request
// it forwards hits a dead provider — so a planner must not anchor a
// new chain at it; it has to be re-planned (and re-wired) explicitly.
func (e *Engine) OrphanedBy(dead []planner.Placement) []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	deadAddrs := map[string]bool{}
	for _, p := range dead {
		if info, ok := e.instances[p.Key()]; ok {
			deadAddrs[info.addr] = true
		}
	}
	if len(deadAddrs) == 0 {
		return nil
	}
	var orphans []string
	for changed := true; changed; {
		changed = false
		for key, info := range e.instances {
			if deadAddrs[info.addr] {
				continue
			}
			wiredToDead := false
			for _, ua := range info.upstreams {
				if deadAddrs[ua] {
					wiredToDead = true
					break
				}
			}
			if !wiredToDead {
				continue
			}
			deadAddrs[info.addr] = true
			orphans = append(orphans, key)
			changed = true
		}
	}
	sort.Strings(orphans)
	return orphans
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
// MailServer) so plans can link to it.
func (e *Engine) AdoptInstance(p planner.Placement, addr string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.instances[p.Key()] = instanceInfo{addr: addr, node: p.Node}
}

// Teardown uninstalls a placement's instance and forgets it. Adopted
// instances (installed outside the engine) are only forgotten.
func (e *Engine) Teardown(p planner.Placement) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := p.Key()
	info, ok := e.instances[key]
	if !ok {
		return fmt.Errorf("smock: no instance for %s", key)
	}
	delete(e.instances, key)
	if e.lookup != nil {
		e.lookup.DeregisterAddr(info.addr)
	}
	if info.instanceID == "" {
		return nil // adopted; its owner uninstalls it
	}
	w, ok := e.wrappers[info.node]
	if !ok {
		return fmt.Errorf("smock: no wrapper for node %s", info.node)
	}
	return w.Uninstall(info.instanceID)
}

// Apply realizes a planner adaptation diff: instances evicted by
// revalidation are torn down immediately (their nodes may no longer be
// trusted with them), the new deployment is executed, and instances the
// diff marks Remove are left running to drain — live components
// installed earlier may still be wired through them, and safe teardown
// requires the quiescence detection that both the paper and this
// reproduction defer ("needs to carefully consider the internal state
// of components as well as any partially processed requests"). It
// returns the new head address.
func (e *Engine) Apply(diff *planner.Diff) (string, error) {
	return e.ApplyWith(diff, ApplyOptions{})
}

// ApplyOptions customize how a diff is realized.
type ApplyOptions struct {
	// StateFor, when non-nil, supplies a serialized state snapshot for a
	// placement about to be installed (nil means install stateless). The
	// adaptation controller uses this to carry component state captured
	// from a predecessor instance across a cutover.
	StateFor func(p planner.Placement) []byte
}

// ApplyWith is Apply with options. Whole diffs are serialized per
// engine: concurrent callers queue on an apply lock so two adaptations
// can never interleave their teardown and deploy phases.
func (e *Engine) ApplyWith(diff *planner.Diff, opts ApplyOptions) (string, error) {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	for _, p := range diff.Evicted {
		// Teardown is best-effort: the instance's node may already have
		// left the network.
		_ = e.Teardown(p)
	}
	addr, err := e.executeWith(diff.New, opts.StateFor)
	if err != nil {
		return "", err
	}
	e.mu.Lock()
	e.generation++
	e.mu.Unlock()
	return addr, nil
}

// AddrOf resolves a placement to its live instance address.
func (e *Engine) AddrOf(p planner.Placement) (string, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	info, ok := e.instances[p.Key()]
	return info.addr, ok
}

// InstanceCount returns the number of live instances the engine knows.
func (e *Engine) InstanceCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.instances)
}

// Execute deploys every new placement of the deployment, providers
// first, and returns the address of the head component (the
// service-specific proxy target). Reused placements resolve to their
// recorded addresses.
func (e *Engine) Execute(dep *planner.Deployment) (string, error) {
	return e.executeWith(dep, nil)
}

// executeWith is Execute with an optional state source for fresh
// installs (including the stale-rewire replacement path). Placements
// are in pre-order of the linkage graph, so a reverse index walk
// resolves every provider subtree before the client that wires to it;
// each edge carries the interface name the client requires, which keys
// the wrapper's upstream map.
func (e *Engine) executeWith(dep *planner.Deployment, stateFor func(p planner.Placement) []byte) (string, error) {
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
	addrs := make([]string, n)
	secretOf := make([][]byte, n) // secretOf[i] = serve secret of placement i
	for i := n - 1; i >= 0; i-- {
		p := dep.Placements[i]
		key := p.Key()
		order := InstallOrder{
			Component:       p.Component,
			Config:          p.Config,
			Upstreams:       map[string]string{},
			UpstreamSecrets: map[string][]byte{},
		}
		for _, ed := range providers[i] {
			order.Upstreams[ed.Iface] = addrs[ed.To]
			order.UpstreamSecrets[ed.Iface] = secretOf[ed.To]
		}
		if info, ok := e.instances[key]; ok {
			adopted := info.instanceID == ""
			// A terminal reuse (a branch of the plan ends at this instance)
			// keeps its own upstream wiring; interior positions must match
			// the planned providers' addresses exactly.
			terminal := len(providers[i]) == 0
			if adopted || terminal || maps.Equal(info.upstreams, order.Upstreams) {
				addrs[i] = info.addr
				secretOf[i] = info.serveSecret
				continue
			}
			// Stale wiring: the plan routes this instance to different
			// providers than it was installed with. Replace it; the old
			// listener is closed and a fresh instance is wired below.
			delete(e.instances, key)
			if w, ok := e.wrappers[info.node]; ok {
				_ = w.Uninstall(info.instanceID)
			}
		} else if p.Reused {
			return "", fmt.Errorf("smock: plan reuses unknown instance %s", key)
		}
		w, ok := e.wrappers[p.Node]
		if !ok {
			return "", fmt.Errorf("smock: no wrapper registered for node %s", p.Node)
		}
		e.counter++
		order.InstanceID = fmt.Sprintf("%s#%d", key, e.counter)
		if stateFor != nil {
			order.State = stateFor(p)
		}
		if i > 0 {
			// Generate the secret this instance shares with its client.
			order.ServeSecret = make([]byte, 32)
			if _, err := rand.Read(order.ServeSecret); err != nil {
				return "", fmt.Errorf("smock: edge secret: %w", err)
			}
			secretOf[i] = order.ServeSecret
		}
		addr, err := w.Install(order)
		if err != nil {
			return "", err
		}
		addrs[i] = addr
		e.instances[key] = instanceInfo{
			addr: addr, serveSecret: order.ServeSecret,
			instanceID: order.InstanceID, node: p.Node,
			upstreams: order.Upstreams,
		}
	}
	return addrs[0], nil
}
