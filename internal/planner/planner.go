// Package planner implements the planning module of the partitionable
// services framework (HPDC'02, Section 3.3): given a declarative service
// specification and the current network state, it determines which
// components to instantiate, with which factored configurations, at
// which nodes, so that a client request for a service interface is
// satisfied and a global objective is optimized.
//
// Planning proceeds in the paper's two logical steps: (1) enumerate the
// valid linkage graphs of components that can satisfy the request
// (Figure 3), and (2) map each graph onto the network, discarding
// mappings that violate any of the three validity conditions —
// deployment conditions, property compatibility under the environment's
// modification rules, and load versus node/link capacity. There is one
// planner and one linkage-graph shape (graph.go: a tree in pre-order,
// of which a chain is the degenerate case): every valid linkage graph
// becomes a constraint model for internal/solver, which prunes
// candidate placements by arc consistency and finds the best mapping by
// branch-and-bound (solve.go). The paper's exhaustive mapper and the
// chain-only validator the package started from survive only in its
// tests, as the references the planner is proven identical to.
package planner

import (
	"fmt"
	"math"
	"strings"

	"partsvc/internal/metrics"
	"partsvc/internal/netmodel"
	"partsvc/internal/property"
	"partsvc/internal/solver"
	"partsvc/internal/spec"
)

// Objective selects the global metric the planner optimizes
// ("maximum capacity, minimum deployment cost, etc.").
type Objective int

const (
	// MinLatency minimizes the expected client-perceived request
	// latency; ties are broken by deployment cost.
	MinLatency Objective = iota
	// MinCost minimizes the number of newly deployed components; ties
	// are broken by expected latency.
	MinCost
	// MaxCapacity maximizes the sustainable request rate (the smallest
	// capacity headroom along the chain); ties broken by latency.
	MaxCapacity
)

// String names the objective.
func (o Objective) String() string {
	switch o {
	case MinLatency:
		return "min-latency"
	case MinCost:
		return "min-cost"
	case MaxCapacity:
		return "max-capacity"
	}
	return "unknown"
}

// ParseObjective resolves an objective name. Both the short API/CLI
// aliases ("latency", "cost", "headroom") and the canonical String
// forms are accepted; the empty string selects min-latency.
func ParseObjective(s string) (Objective, error) {
	switch s {
	case "", "latency", "min-latency":
		return MinLatency, nil
	case "cost", "min-cost":
		return MinCost, nil
	case "headroom", "capacity", "max-capacity":
		return MaxCapacity, nil
	}
	return 0, fmt.Errorf("planner: unknown objective %q (want latency, cost, or headroom)", s)
}

// Request is a client request for service interfaces, carried from the
// generic proxy to the planner together with supporting credentials.
type Request struct {
	// Interface is the requested service interface (e.g.
	// "ClientInterface").
	Interface string
	// ClientNode is the node from which the client operates; the head
	// component of the deployment is pinned there.
	ClientNode netmodel.NodeID
	// User is the requesting principal, exposed to head-component
	// deployment conditions as the User property.
	User string
	// RequireProps, when non-nil, adds property requirements on the
	// requested interface itself (client QoS expectations).
	RequireProps property.Set
	// RateRPS is the expected request rate from this client, used by the
	// load validity condition. Zero disables load checking for the
	// request.
	RateRPS float64
	// Objective selects the optimization goal; the zero value is
	// MinLatency.
	Objective Objective
}

// Placement instantiates one component at one node.
type Placement struct {
	// Component is the component (or view) name from the specification.
	Component string
	// Node is where it runs.
	Node netmodel.NodeID
	// Config holds the factored property bindings of this instance
	// (e.g. TrustLevel=2 for a ViewMailServer on a partner node).
	Config property.Set
	// Offers records the effective property set the instance offers to
	// clients linking to it, computed during validation. For existing
	// instances registered with the planner, Offers is what incremental
	// plans link against.
	Offers property.Set
	// UpstreamMS is the expected additional latency, per request
	// arriving at this instance, incurred by its already-deployed
	// upstream linkage (its cache misses continuing toward the primary).
	// Incremental plans that terminate at this instance charge it on the
	// final hop.
	UpstreamMS float64
	// Reused marks a placement satisfied by an already-deployed
	// instance rather than a new installation.
	Reused bool

	// cfgFP and idKey cache Config.Fingerprint() and Key(): both
	// participate in identity checks inside the search hot loops, and
	// the fields they derive from never change after a placement is
	// built. Empty means not yet computed (for cfgFP indistinguishable
	// from an empty Config, whose fingerprint is also "" — recomputing
	// that case is free).
	cfgFP string
	idKey string
}

// configFP returns the placement's configuration fingerprint, computed
// at most once per placement by the planner's construction paths.
func (p Placement) configFP() string {
	if p.cfgFP != "" || len(p.Config) == 0 {
		return p.cfgFP
	}
	return p.Config.Fingerprint()
}

// Key returns a stable identity for the placement (component, node and
// factored configuration), used to recognize reusable instances.
func (p Placement) Key() string {
	if p.idKey != "" {
		return p.idKey
	}
	return p.Component + "@" + string(p.Node) + "{" + p.configFP() + "}"
}

// sealKeys precomputes the placement's identity strings so hot-loop
// Key/configFP calls are allocation-free.
func (p *Placement) sealKeys() {
	p.cfgFP = p.Config.Fingerprint()
	p.idKey = p.Component + "@" + string(p.Node) + "{" + p.cfgFP + "}"
}

// String renders the placement compactly.
func (p Placement) String() string {
	s := fmt.Sprintf("%s@%s", p.Component, p.Node)
	if len(p.Config) > 0 {
		s += "{" + p.Config.Fingerprint() + "}"
	}
	if p.Reused {
		s += "*"
	}
	return s
}

// Edge connects two placements in deployment order: From is the
// client-side component, To its provider; Path is the network route the
// linkage uses.
type Edge struct {
	From, To int
	Path     netmodel.Path
	// Iface is the interface the linkage serves (the From component's
	// required interface this edge satisfies); the engine wires the
	// client's upstream for that interface to the provider.
	Iface string
}

// Deployment is a validated mapping of a linkage graph onto the network.
// Once a planner call has returned it, a Deployment (and the Diff that
// carries it) is immutable: the fleet hands one value to every session
// of a wave group, the reuse set and later diffs alias its placements,
// and its property sets and path node lists are shared with the route
// cache. Copy before changing anything.
type Deployment struct {
	// Placements lists component instances in pre-order of the linkage
	// graph: the head (client side) first, every instance before its
	// providers, a provider's whole subtree before the next provider.
	Placements []Placement
	// Edges links every placement but the head to its client: Edges[k]
	// ends at placement k+1. A chain links each placement to the next.
	Edges []Edge
	// ExpectedLatencyMS is the expected client-perceived request
	// latency: per-edge round-trip and service costs weighted by the
	// probability the request reaches that edge (the product of
	// upstream RRFs).
	ExpectedLatencyMS float64
	// NewComponents counts placements that are not reused.
	NewComponents int
	// CapacityRPS is the maximum request rate the deployment can
	// sustain (minimum headroom across components, nodes, and links);
	// +Inf when nothing binds.
	CapacityRPS float64
}

// String renders a chain as "MC@sd-2 -> VMS@sd-2{...} -> ..." and a
// deployment that branches in nested form, every placement followed by
// its providers: "Portal@sd-2(Encryptor2@sd-2(Server@ny-1), LogServer@sd-2)".
func (d Deployment) String() string {
	branches := false
	for _, e := range d.Edges {
		if e.To != e.From+1 {
			branches = true
			break
		}
	}
	if !branches {
		parts := make([]string, len(d.Placements))
		for i, p := range d.Placements {
			parts[i] = p.String()
		}
		return strings.Join(parts, " -> ")
	}
	providers := make([][]int, len(d.Placements))
	for _, e := range d.Edges {
		if e.From >= 0 && e.From < e.To && e.To < len(providers) {
			providers[e.From] = append(providers[e.From], e.To)
		}
	}
	var b strings.Builder
	var render func(i int)
	render = func(i int) {
		b.WriteString(d.Placements[i].String())
		if len(providers[i]) == 0 {
			return
		}
		b.WriteByte('(')
		for k, c := range providers[i] {
			if k > 0 {
				b.WriteString(", ")
			}
			render(c)
		}
		b.WriteByte(')')
	}
	render(0)
	return b.String()
}

// clientOf returns the position of the client placement i serves
// according to the edges: -1 for the head and for a placement no edge
// links.
func (d *Deployment) clientOf(i int) int {
	for _, e := range d.Edges {
		if e.To == i {
			return e.From
		}
	}
	return -1
}

// hasProvider reports whether an edge links placement i to a provider.
func (d *Deployment) hasProvider(i int) bool {
	for _, e := range d.Edges {
		if e.From == i {
			return true
		}
	}
	return false
}

// Stats accumulates search statistics, reported for visibility into
// planner behavior and used by tests that assert rejection reasons.
type Stats struct {
	// ChainsEnumerated is the number of valid linkage graphs found in
	// step 1.
	ChainsEnumerated int
	// MappingsTried is the number of complete node assignments that
	// reached exact validation; assignments the solver pruned by
	// propagation or bound are never counted.
	MappingsTried int
	// RejectedConditions counts assignments rejected by deployment
	// conditions (validity condition 1).
	RejectedConditions int
	// RejectedProps counts assignments rejected by property
	// compatibility (validity condition 2).
	RejectedProps int
	// RejectedLoad counts assignments rejected by the load check
	// (validity condition 3).
	RejectedLoad int
	// RejectedNoPath counts assignments with no network route between
	// linked components.
	RejectedNoPath int
	// RouteCacheHits and RouteCacheMisses count route lookups served
	// from the network's shortest-path cache versus lookups that had to
	// build a single-source tree, over the duration of the plan call.
	RouteCacheHits   int
	RouteCacheMisses int
}

// Planner binds a service specification to a network and plans
// deployments for client requests. The current implementation mirrors
// the paper's assumptions: the network is static and properties remain
// fixed over the lifetime of a deployment.
type Planner struct {
	// Service is the declarative specification.
	Service *spec.Service
	// Net is the planner's view of the network.
	Net *netmodel.Network
	// MaxChainLen bounds linkage chain enumeration (components per
	// chain); 0 means the default of 6.
	MaxChainLen int
	// Existing lists already-deployed component instances. The planner
	// reuses them at zero deployment cost, and never creates a second
	// instance of a stateful primary that already has one (state lives
	// in the primary; replication happens through data views).
	Existing []Placement
	// DeployPenaltyMS is the amortized per-request charge for each newly
	// deployed component under the MinLatency objective. It models the
	// one-time deployment and startup cost (about 10 seconds in the
	// paper's Section 4.2) spread over a session's requests, and keeps
	// the planner from deploying caches that save less than they cost
	// to install. New sets it to 5 ms; set it to zero to disable the
	// penalty.
	DeployPenaltyMS float64
	// SolverStats accumulates constraint-engine counters (solves,
	// repairs, propagations, ...) across plan calls; initialized by New.
	SolverStats *solver.Stats

	stats Stats
	// memo holds everything a public call computes once (memo.go). It
	// exists only while a call is in progress: depth counts the nested
	// entries (RepairReplan runs Replan runs Plan) that share it.
	memo  *planMemo
	depth int
	// gen is the reuse-set generation: every method that changes
	// Existing bumps it, and whatever the memo derives from the reuse
	// set is rebuilt when it has moved.
	gen uint64
	// pinnedRoutes, when non-nil, overrides the epoch-current route
	// handle for every plan call (see PinRoutes).
	pinnedRoutes *netmodel.RouteCache
	// hits0/misses0 snapshot the route-cache counters at beginPlan so
	// endPlan can attribute the delta to this plan call.
	hits0, misses0 uint64
}

// New returns a planner over a specification and network.
func New(svc *spec.Service, net *netmodel.Network) *Planner {
	return &Planner{
		Service:         svc,
		Net:             net,
		DeployPenaltyMS: 5,
		SolverStats:     &solver.Stats{},
	}
}

// Stats returns the statistics accumulated by the most recent Plan call.
func (pl *Planner) Stats() Stats { return pl.stats }

// PinRoutes freezes the planner onto one route-cache epoch: every
// subsequent plan call answers path queries from rc instead of the
// network's current cache, so a topology mutation arriving while a
// replan wave is in flight cannot split the wave across two views of
// the network. Pass nil to unpin. The caller owns consistency between
// the pinned routes and the live node table (revalidation still reads
// live node liveness, which is exactly what a wave wants: evictions
// current, routing frozen).
func (pl *Planner) PinRoutes(rc *netmodel.RouteCache) { pl.pinnedRoutes = rc }

// KVs renders the stats as metrics-registry rows.
func (s Stats) KVs() []metrics.KV {
	return []metrics.KV{
		metrics.KVf("chains_enumerated", "%d", s.ChainsEnumerated),
		metrics.KVf("mappings_tried", "%d", s.MappingsTried),
		metrics.KVf("rejected_conditions", "%d", s.RejectedConditions),
		metrics.KVf("rejected_props", "%d", s.RejectedProps),
		metrics.KVf("rejected_load", "%d", s.RejectedLoad),
		metrics.KVf("rejected_no_path", "%d", s.RejectedNoPath),
		metrics.KVf("route_cache_hits", "%d", s.RouteCacheHits),
		metrics.KVf("route_cache_misses", "%d", s.RouteCacheMisses),
	}
}

// RegisterMetrics exposes the planner's latest-plan stats in reg under
// the given section name ("planner"). Snapshots are taken at render
// time, so the section always shows the most recent Plan call.
func (pl *Planner) RegisterMetrics(reg *metrics.Registry, section string) {
	reg.RegisterSection(section, func() []metrics.KV { return pl.Stats().KVs() })
}

// RegisterSolverMetrics exposes the constraint-engine counters in reg
// under the given section name ("solver"). Unlike the per-plan planner
// stats, these accumulate across calls.
func (pl *Planner) RegisterSolverMetrics(reg *metrics.Registry, section string) {
	reg.RegisterSection(section, func() []metrics.KV { return pl.SolverStats.KVs() })
}

// maxLen returns the effective chain length bound.
func (pl *Planner) maxLen() int {
	if pl.MaxChainLen > 0 {
		return pl.MaxChainLen
	}
	return 6
}

// better reports whether a should replace b under the objective.
// All objectives use the remaining metrics, then a lexicographic
// signature, as deterministic tie-breaks.
func (pl *Planner) better(o Objective, a, b *Deployment) bool {
	type key struct{ primary, secondary, tertiary float64 }
	mk := func(d *Deployment) key {
		switch o {
		case MinCost:
			return key{float64(d.NewComponents), d.ExpectedLatencyMS, -d.CapacityRPS}
		case MaxCapacity:
			return key{-d.CapacityRPS, d.ExpectedLatencyMS, float64(d.NewComponents)}
		default: // MinLatency
			return key{d.ExpectedLatencyMS + pl.DeployPenaltyMS*float64(d.NewComponents),
				float64(d.NewComponents), -d.CapacityRPS}
		}
	}
	ka, kb := mk(a), mk(b)
	const eps = 1e-9
	if math.Abs(ka.primary-kb.primary) > eps {
		return ka.primary < kb.primary
	}
	if math.Abs(ka.secondary-kb.secondary) > eps {
		return ka.secondary < kb.secondary
	}
	if math.Abs(ka.tertiary-kb.tertiary) > eps {
		return ka.tertiary < kb.tertiary
	}
	return a.String() < b.String()
}

// component returns the named component of the specification by
// reference; linkage graphs and solver models hold these pointers
// rather than copies of the declaration.
func (pl *Planner) component(name string) (*spec.Component, bool) {
	for i := range pl.Service.Components {
		if pl.Service.Components[i].Name == name {
			return &pl.Service.Components[i], true
		}
	}
	return nil, false
}

// implementersOf lists the components implementing the interface, in
// declaration order.
func (pl *Planner) implementersOf(iface string) []*spec.Component {
	var out []*spec.Component
	for i := range pl.Service.Components {
		if _, ok := pl.Service.Components[i].ImplementsInterface(iface); ok {
			out = append(out, &pl.Service.Components[i])
		}
	}
	return out
}

// isStatefulPrimary reports whether the component is a stateful primary:
// a non-view component that has data views defined over it. Once such a
// component has a deployed instance, plans reuse it rather than create a
// second copy (two primaries would fork the state that its data views
// replicate). Client-side components, encryptors and other stateless
// pieces remain freely instantiable.
func (pl *Planner) isStatefulPrimary(comp *spec.Component) bool {
	if comp.IsView() {
		return false
	}
	for _, v := range pl.Service.ViewsOf(comp.Name) {
		if v.Kind == spec.DataView {
			return true
		}
	}
	return false
}

// AddExisting registers deployed instances with the planner so that
// subsequent plans can reuse them and link new components to them.
// Placements are deduplicated by Key; the Offers of the latest
// registration wins.
func (pl *Planner) AddExisting(placements ...Placement) {
	pl.gen++
	for _, p := range placements {
		p.Reused = false
		p.sealKeys()
		replaced := false
		for i := range pl.Existing {
			if pl.Existing[i].Key() == p.Key() {
				pl.Existing[i] = p
				replaced = true
				break
			}
		}
		if !replaced {
			pl.Existing = append(pl.Existing, p)
		}
	}
}

// DropExisting forgets instances (matched by Key) so subsequent plans
// cannot reuse them — the counterpart of AddExisting for teardown: a
// plan that reused a torn-down instance would fail at the engine.
func (pl *Planner) DropExisting(placements ...Placement) {
	for _, p := range placements {
		pl.DropExistingByKey(p.Key())
	}
}

// DropExistingByKey is DropExisting for callers that only hold
// placement keys (e.g. the engine's wiring-orphan report).
func (pl *Planner) DropExistingByKey(keys ...string) {
	for _, key := range keys {
		for i := range pl.Existing {
			if pl.Existing[i].Key() == key {
				pl.Existing = append(pl.Existing[:i], pl.Existing[i+1:]...)
				pl.gen++
				break
			}
		}
	}
}

// PrimaryPlacement builds the Placement for a component pre-deployed by
// the service owner (e.g. the primary MailServer in New York), deriving
// its offered properties from its first implemented interface evaluated
// at the node. Register the result for reuse before planning.
func (pl *Planner) PrimaryPlacement(component string, node netmodel.NodeID) (Placement, error) {
	comp, ok := pl.Service.Component(component)
	if !ok {
		return Placement{}, fmt.Errorf("planner: unknown component %q", component)
	}
	n, ok := pl.Net.Node(node)
	if !ok {
		return Placement{}, fmt.Errorf("planner: unknown node %q", node)
	}
	sc := property.Scope{Node: n.Props}
	config := property.Set{}
	for name, expr := range comp.Factors {
		v, err := expr.Eval(sc)
		if err != nil {
			return Placement{}, fmt.Errorf("planner: factoring %s at %s: %w", component, node, err)
		}
		config[name] = v
	}
	if len(comp.Implements) == 0 {
		return Placement{}, fmt.Errorf("planner: component %q implements nothing", component)
	}
	offers, err := comp.Implements[0].EvalProps(property.Scope{Node: n.Props.Merge(config)})
	if err != nil {
		return Placement{}, fmt.Errorf("planner: evaluating offers of %s at %s: %w", component, node, err)
	}
	p := Placement{Component: component, Node: node, Config: config, Offers: offers}
	p.sealKeys()
	return p, nil
}
