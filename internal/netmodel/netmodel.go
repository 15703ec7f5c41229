// Package netmodel models the network as the planner sees it
// (HPDC'02, Section 3.3): a graph of nodes and links annotated with
// resource characteristics (CPU capacity, bandwidth, latency) and
// application-independent credentials. Credentials are translated into
// service-specific properties by a service-supplied translation
// function before planning.
package netmodel

import (
	"fmt"
	"sort"
	"sync"

	"partsvc/internal/property"
)

// NodeID identifies a node in the network.
type NodeID string

// Node is a host capable of running service components.
type Node struct {
	// ID is the node's unique identifier.
	ID NodeID
	// Site is an administrative grouping label (e.g. "NewYork").
	Site string
	// CPUCapacityRPS is the node's processing capacity expressed as the
	// request rate it can sustain at 1 ms of CPU per request. Zero means
	// unspecified (unbounded).
	CPUCapacityRPS float64
	// Credentials are application-independent attributes (e.g.
	// "domain" = "example.com", "trust" = "partner"). The planner never
	// interprets these directly; a translation function maps them to
	// service properties.
	Credentials map[string]string
	// Props are the service-relevant properties of the node, produced by
	// translation (e.g. TrustLevel=4). Conditions and factored
	// expressions evaluate against this set.
	Props property.Set
	// Down marks the node as crashed or unreachable, as reported by a
	// monitoring substrate (netmon.Monitor.ReportNodeDown). A down node
	// cannot host placements, cannot forward traffic (routing treats its
	// links as absent), and fails revalidation of instances placed on it.
	Down bool
}

// Link is a (bidirectional) network link between two nodes.
type Link struct {
	// A and B are the endpoints.
	A, B NodeID
	// LatencyMS is the one-way propagation latency in milliseconds.
	LatencyMS float64
	// BandwidthMbps is the link capacity in megabits per second.
	BandwidthMbps float64
	// Secure records whether the link preserves confidentiality of the
	// traffic it carries (an application-independent credential).
	Secure bool
	// Props are the service-relevant properties of the link environment
	// after translation (e.g. Confidentiality=T).
	Props property.Set
}

// TranslationFunc converts application-independent node or link
// credentials into service-specific properties (Section 3.3: "the
// planner first needs to translate these credentials into properties
// that the service cares about based on external service-specific
// functions").
type TranslationFunc func(credentials map[string]string) property.Set

// Network is the planner's view of the environment: a graph of nodes
// and links. The zero value is an empty network ready for use.
//
// The network carries a route epoch: a version counter bumped by every
// topology mutator (AddNode, AddLink, Translate, and the netmon
// monitor's report methods, which mutate links and node properties in
// place). Routes returns a shortest-path cache pinned to the current
// epoch; bumping the epoch invalidates it wholesale, so route consumers
// never observe stale paths.
type Network struct {
	nodes map[NodeID]*Node
	links map[edgeKey]*Link
	adj   map[NodeID][]NodeID
	// linkFn is the link translation Translate last applied, which
	// TranslateLink re-applies to one link.
	linkFn TranslationFunc

	routesMu sync.Mutex
	epoch    uint64
	routes   *RouteCache
	// propGen counts full invalidations: everything but a latency or
	// bandwidth figure (liveness, node and link properties, the node
	// and link sets) changes through one. envs interns the path
	// environments of the current generation.
	propGen uint64
	envs    *envTable
}

type edgeKey struct{ a, b NodeID }

func canonical(a, b NodeID) edgeKey {
	if b < a {
		a, b = b, a
	}
	return edgeKey{a, b}
}

// New returns an empty network.
func New() *Network {
	return &Network{
		nodes: map[NodeID]*Node{},
		links: map[edgeKey]*Link{},
		adj:   map[NodeID][]NodeID{},
	}
}

// AddNode inserts a node; it returns an error on duplicate IDs.
func (n *Network) AddNode(node Node) error {
	if node.ID == "" {
		return fmt.Errorf("netmodel: node with empty ID")
	}
	if _, dup := n.nodes[node.ID]; dup {
		return fmt.Errorf("netmodel: duplicate node %q", node.ID)
	}
	if node.Props == nil {
		node.Props = property.Set{}
	}
	n.nodes[node.ID] = &node
	n.InvalidateRoutes()
	return nil
}

// AddLink inserts a bidirectional link; both endpoints must exist.
func (n *Network) AddLink(link Link) error {
	if _, ok := n.nodes[link.A]; !ok {
		return fmt.Errorf("netmodel: link endpoint %q unknown", link.A)
	}
	if _, ok := n.nodes[link.B]; !ok {
		return fmt.Errorf("netmodel: link endpoint %q unknown", link.B)
	}
	if link.A == link.B {
		return fmt.Errorf("netmodel: self-link on %q", link.A)
	}
	key := canonical(link.A, link.B)
	if _, dup := n.links[key]; dup {
		return fmt.Errorf("netmodel: duplicate link %q-%q", link.A, link.B)
	}
	if link.Props == nil {
		link.Props = property.Set{}
	}
	n.links[key] = &link
	n.adj[link.A] = append(n.adj[link.A], link.B)
	n.adj[link.B] = append(n.adj[link.B], link.A)
	n.InvalidateRoutes()
	return nil
}

// InvalidateRoutes bumps the route epoch, discarding any outstanding
// route cache. Every mutation of the topology or of link
// characteristics must call it (AddNode, AddLink, and Translate do so
// themselves; the netmon monitor calls it when applying reports).
//
// It also starts a new property generation (PropGen). Only
// InvalidateRoutesLinkDelta keeps the generation, so a mutation that
// is not a link's latency or bandwidth must come through here.
func (n *Network) InvalidateRoutes() {
	n.routesMu.Lock()
	n.epoch++
	n.routes = nil
	n.propGen++
	n.envs = nil
	n.routesMu.Unlock()
}

// PropGen returns the network's property generation: it moves with
// every InvalidateRoutes — a node's liveness or properties, a link's
// property set, the node or link set — and not with a link delta
// (latency, bandwidth). What depends only on those properties, not on
// the routes, stays valid while it holds.
func (n *Network) PropGen() uint64 {
	n.routesMu.Lock()
	defer n.routesMu.Unlock()
	return n.propGen
}

// InvalidateRoutesLinkDelta bumps the route epoch after the latency or
// bandwidth of the single link (a, b) changed, replacing the
// outstanding route cache with a copy-on-write delta instead of
// discarding it: the node interning and adjacency structure carry over,
// and for non-improving changes so does every shortest-path tree that
// avoids the edge. Falls back to a plain invalidation when no cache is
// outstanding or the delta cannot be applied. It keeps the property
// generation (PropGen) and its interned environments, so callers
// mutating anything but latency/bandwidth figures must use
// InvalidateRoutes.
func (n *Network) InvalidateRoutesLinkDelta(a, b NodeID) {
	n.routesMu.Lock()
	defer n.routesMu.Unlock()
	n.epoch++
	if n.routes == nil {
		return
	}
	n.routes = n.routes.deltaLink(n, n.epoch, a, b)
}

// Routes returns the shortest-path cache for the network's current
// epoch, building a fresh (empty) cache after any invalidation. The
// returned cache remains internally consistent — it answers from the
// topology snapshot it interned — even if the network mutates
// afterwards; call Routes again to pick up the new epoch.
func (n *Network) Routes() *RouteCache {
	n.routesMu.Lock()
	defer n.routesMu.Unlock()
	if n.routes == nil || n.routes.epoch != n.epoch {
		if n.envs == nil {
			n.envs = newEnvTable(n.propGen)
		}
		n.routes = newRouteCache(n, n.epoch, n.envs)
	}
	return n.routes
}

// Node returns the named node.
func (n *Network) Node(id NodeID) (*Node, bool) {
	node, ok := n.nodes[id]
	return node, ok
}

// Link returns the link between two nodes, in either direction.
func (n *Network) Link(a, b NodeID) (*Link, bool) {
	l, ok := n.links[canonical(a, b)]
	return l, ok
}

// Nodes returns all nodes sorted by ID (deterministic iteration).
func (n *Network) Nodes() []*Node {
	out := make([]*Node, 0, len(n.nodes))
	for _, node := range n.nodes {
		out = append(out, node)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Links returns all links sorted by endpoint IDs.
func (n *Network) Links() []*Link {
	out := make([]*Link, 0, len(n.links))
	for _, l := range n.links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		ki, kj := canonical(out[i].A, out[i].B), canonical(out[j].A, out[j].B)
		if ki.a != kj.a {
			return ki.a < kj.a
		}
		return ki.b < kj.b
	})
	return out
}

// Neighbors returns the IDs adjacent to a node, sorted.
func (n *Network) Neighbors(id NodeID) []NodeID {
	out := append([]NodeID(nil), n.adj[id]...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumNodes returns the node count.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumLinks returns the link count.
func (n *Network) NumLinks() int { return len(n.links) }

// Translate replaces every node's and link's Props with the
// translation of its credentials (a link's one credential is "secure",
// T or F). Props are derived, never set by hand, so a withdrawn
// credential withdraws the property it produced. A nil function leaves
// that element kind untouched.
func (n *Network) Translate(nodeFn, linkFn TranslationFunc) {
	if nodeFn != nil {
		for _, node := range n.nodes {
			if node.Props = nodeFn(node.Credentials); node.Props == nil {
				node.Props = property.Set{}
			}
		}
	}
	if linkFn != nil {
		n.linkFn = linkFn
		for _, l := range n.links {
			n.TranslateLink(l)
		}
	}
	n.InvalidateRoutes()
}

// TranslateLink replaces l's Props with the translation of its
// credentials by the link function Translate last applied; before any,
// l is left untouched. The caller invalidates routes.
func (n *Network) TranslateLink(l *Link) {
	if n.linkFn == nil {
		return
	}
	creds := map[string]string{"secure": "F"}
	if l.Secure {
		creds["secure"] = "T"
	}
	if l.Props = n.linkFn(creds); l.Props == nil {
		l.Props = property.Set{}
	}
}

// Path is a sequence of nodes connected by links.
type Path struct {
	// Nodes lists the path's nodes, source first. A single-element path
	// is a loopback (both components on the same node).
	Nodes []NodeID
	// LatencyMS is the summed one-way latency of the path's links.
	LatencyMS float64
	// BottleneckMbps is the minimum bandwidth along the path; +Inf for
	// loopback paths.
	BottleneckMbps float64
}

// IsLoopback reports whether the path stays on one node.
func (p Path) IsLoopback() bool { return len(p.Nodes) <= 1 }
