package planner

import (
	"fmt"
	"math"

	"partsvc/internal/netmodel"
	"partsvc/internal/property"
	"partsvc/internal/spec"
)

// This file holds the references the equivalence tests compare the
// planner against. They are test-only: nothing under cmd/ or
// internal/bench can reach them.
//
// planExhaustive is the paper's implemented planner generalised to the
// one linkage-graph shape: exhaustive node assignment per graph. It
// shares the production validator (validate), so what it pins down is
// the search: candidate domains, pruning, bounds and tie-breaks. The
// reuse set lookups are the reference's own linear scans (anchorFor,
// hasAnyInstance), not the planner's per-generation index.
//
// validateChain is the chain validator as it stood before chains and
// trees were unified, with an unmemoised property walk. It pins down the
// validator: on a graph that does not branch, validate must agree with
// it to the bit.

// anchorFor returns an existing placement matching the candidate's
// component, node and factored configuration.
func (pl *Planner) anchorFor(p Placement) (Placement, bool) {
	for _, e := range pl.Existing {
		if e.Component == p.Component && e.Node == p.Node && e.configFP() == p.configFP() {
			e.Reused = true
			return e, true
		}
	}
	return Placement{}, false
}

// hasAnyInstance reports whether the component already has a deployed
// instance anywhere in the network.
func (pl *Planner) hasAnyInstance(component string) bool {
	for _, e := range pl.Existing {
		if e.Component == component {
			return true
		}
	}
	return false
}

// candsOf resolves an assignment of placements to the candidates the
// validators take.
func (pl *Planner) candsOf(places []Placement) []*cand {
	cs := make([]*cand, len(places))
	for i, p := range places {
		c := pl.memo.candOf(p)
		cs[i] = &c
	}
	return cs
}

// planExhaustive satisfies a client request the way the paper's planner
// does: it enumerates the valid linkage graphs, maps each onto the
// network exhaustively, and returns the best deployment under the
// request's objective. It returns an error when no valid deployment
// exists, with the accumulated rejection statistics in Stats.
func (pl *Planner) planExhaustive(req Request) (*Deployment, error) {
	return pl.exhaustive(req, nil)
}

// exhaustive is planExhaustive with a hook: visit, when non-nil, sees
// every complete assignment the mapper generates, before validation.
func (pl *Planner) exhaustive(req Request, visit func(g Graph, cs []*cand)) (*Deployment, error) {
	pl.beginPlan()
	defer pl.endPlan()
	if _, ok := pl.Net.Node(req.ClientNode); !ok {
		return nil, fmt.Errorf("planner: client node %q not in network", req.ClientNode)
	}
	if _, ok := pl.Service.Interface(req.Interface); !ok {
		return nil, fmt.Errorf("planner: interface %q not in service %q", req.Interface, pl.Service.Name)
	}
	graphs := pl.enumerate(req.Interface)
	pl.stats.ChainsEnumerated = len(graphs)
	if len(graphs) == 0 {
		return nil, fmt.Errorf("planner: no component graph implements %q", req.Interface)
	}
	var best *Deployment
	for _, g := range graphs {
		dep := pl.mapGraph(g, req, visit)
		if dep == nil {
			continue
		}
		if best == nil || pl.better(req.Objective, dep, best) {
			best = dep
		}
	}
	if best == nil {
		return nil, fmt.Errorf(
			"planner: no valid mapping for %q from %s (graphs %d, mappings %d; rejected: conditions %d, properties %d, load %d, no-path %d)",
			req.Interface, req.ClientNode, pl.stats.ChainsEnumerated, pl.stats.MappingsTried,
			pl.stats.RejectedConditions, pl.stats.RejectedProps, pl.stats.RejectedLoad, pl.stats.RejectedNoPath)
	}
	return best, nil
}

// mapGraph performs step 2 of planning for one linkage graph: it
// exhaustively assigns the graph's components to network nodes (the
// head pinned at the client node, anchors pinned at their recorded
// nodes), validates each complete assignment against the three validity
// conditions of Section 3.3 — checking first what the search never has
// to, that every linkage has a route at all — and returns the best valid
// deployment under the request's objective (nil if none).
func (pl *Planner) mapGraph(g Graph, req Request, visit func(g Graph, cs []*cand)) *Deployment {
	if g[0].anchor != nil {
		return nil // a bare anchor is not a deployable head
	}
	head, ok := pl.placementFor(g[0].comp, req.ClientNode, req, 0)
	if !ok {
		pl.stats.RejectedConditions++
		return nil
	}
	if anchor, found := pl.anchorFor(head); found {
		head = anchor
	}
	places := make([]Placement, len(g))
	places[0] = head

	var best *Deployment
	nodes := pl.Net.Nodes()

	var assign func(pos int)
	consider := func(pos int, p Placement) {
		// No routing loops: a path from the head must not visit the same
		// instance twice. And no duplicated replicas: a caching component
		// (RRF < 1) holds the same state in every identically-configured
		// instance, so a second one can never absorb the first one's
		// misses — reject rather than model it.
		caching := g[pos].comp.Behaviors.EffectiveRRF() < 1
		id := p.Component + "{" + p.configFP() + "}"
		for a := g[pos].parent; a >= 0; a = g[a].parent {
			if p.Key() == places[a].Key() {
				return
			}
			if caching && id == places[a].Component+"{"+places[a].configFP()+"}" {
				return
			}
		}
		places[pos] = p
		assign(pos + 1)
	}
	assign = func(pos int) {
		if pos == len(g) {
			pl.stats.MappingsTried++
			cs := pl.candsOf(places)
			if visit != nil {
				visit(g, cs)
			}
			if _, missing := pl.memo.routesOf(g, cs); missing >= 0 {
				pl.stats.RejectedNoPath++
				return
			}
			dep, v := pl.validate(g, cs, req)
			pl.reject(v)
			if dep != nil && (best == nil || pl.better(req.Objective, dep, best)) {
				best = dep
			}
			return
		}
		if a := g[pos].anchor; a != nil {
			p := a.Placement
			p.Reused = true
			consider(pos, p)
			return
		}
		comp := g[pos].comp
		// Stateful primaries with an existing instance are singletons:
		// they may only be reused, never re-instantiated (state lives in
		// the primary; replication happens through data views).
		if pl.isStatefulPrimary(comp) && pl.hasAnyInstance(comp.Name) {
			for _, e := range pl.Existing {
				if e.Component != comp.Name {
					continue
				}
				p := e
				p.Reused = true
				consider(pos, p)
			}
			return
		}
		for _, node := range nodes {
			p, ok := pl.placementForCached(comp, node.ID, req, pos)
			if !ok {
				pl.stats.RejectedConditions++
				continue
			}
			if anchor, found := pl.anchorFor(p); found {
				p = anchor
			}
			consider(pos, p)
		}
	}
	assign(1)
	return best
}

// chainElem is one position of the reference validator's chain.
type chainElem struct {
	comp   *spec.Component
	anchor *Placement
}

// Chain is the reference validator's linkage graph: element i+1
// provides the one interface element i requires.
type Chain []chainElem

// chainOfGraph is the graph as the reference validator's chain; false
// when it branches.
func chainOfGraph(g Graph) (Chain, bool) {
	if g.Branches() {
		return nil, false
	}
	chain := make(Chain, len(g))
	for i, n := range g {
		chain[i] = chainElem{comp: n.comp}
		if n.anchor != nil {
			chain[i].anchor = &n.anchor.Placement
		}
	}
	return chain, true
}

// validateChain is the pre-unification chain validator: validity
// conditions 2 and 3 over consecutive positions, then the metrics and
// the deployment.
func (pl *Planner) validateChain(chain Chain, cs []*cand, req Request) (*Deployment, verdict) {
	offers, v := pl.chainProperties(chain, cs, req)
	if v != valid {
		return nil, v
	}
	paths := make([]netmodel.Path, len(cs)-1)
	for i := range paths {
		p, _, ok := pl.memo.path(cs[i].node, cs[i+1].node)
		if !ok {
			return nil, noPath
		}
		paths[i] = p
	}
	in, out := chainFlowCoeff(chain, cs)
	capacity := pl.chainCapacityRPS(chain, cs, paths, in, out)
	if req.RateRPS > 0 && req.RateRPS > capacity {
		return nil, overload
	}
	hops := chainHopCosts(chain, paths)
	dep := &Deployment{
		Placements:        make([]Placement, len(chain)),
		Edges:             make([]Edge, len(paths)),
		ExpectedLatencyMS: chain[0].comp.Behaviors.CPUMSPerRequest,
		CapacityRPS:       capacity,
	}
	for i, hop := range hops {
		dep.ExpectedLatencyMS += out[i] * hop
	}
	for i := range dep.Placements {
		p := &dep.Placements[i]
		*p = cs[i].Placement
		p.Offers = offers[i].Clone()
		if in[i] > 0 {
			var up float64
			for j := i; j < len(hops); j++ {
				up += out[j] * hops[j]
			}
			p.UpstreamMS = up / in[i]
		}
		if !p.Reused {
			dep.NewComponents++
		}
	}
	for i := range paths {
		dep.Edges[i] = Edge{From: i, To: i + 1, Path: paths[i], Iface: chain[i].comp.Requires[0].Name}
	}
	return dep, valid
}

// linkageEnv returns the property environment of a linkage between two
// dense node indices as the route cache serves it: loopbackEnv for
// co-located components, otherwise the path's link aggregate.
func (pl *Planner) linkageEnv(from, to int32) (property.Set, bool) {
	path, env, ok := pl.memo.path(from, to)
	if ok && path.IsLoopback() {
		env = loopbackEnv
	}
	return env, ok
}

// chainProperties is validity condition 2 along a chain, from the
// terminal back to the client, with nothing memoized: what each position
// offers its client, or the first failure.
func (pl *Planner) chainProperties(chain Chain, cs []*cand, req Request) ([]property.Set, verdict) {
	offers := make([]property.Set, len(chain))
	last := len(chain) - 1
	for i := last; i >= 0; i-- {
		comp, scope := chain[i].comp, pl.scopeAt(cs[i].Placement)
		var received property.Set
		if i < last {
			env, ok := pl.linkageEnv(cs[i].node, cs[i+1].node)
			if !ok {
				return nil, noPath
			}
			var err error
			if received, err = pl.Service.ModRules.ApplySetRO(offers[i+1], env); err != nil {
				return nil, badProps
			}
			reqProps, err := comp.Requires[0].EvalProps(scope)
			if err != nil || !received.Satisfies(reqProps) {
				return nil, badProps
			}
		}
		iface := req.Interface
		if i > 0 {
			iface = chain[i-1].comp.Requires[0].Name
		}
		impl, implements := comp.ImplementsInterface(iface)
		switch {
		case i == 0:
			if implements {
				if o, err := impl.EvalProps(scope); err == nil {
					offers[0] = o
				}
			}
			if len(req.RequireProps) > 0 && !offers[0].Satisfies(req.RequireProps) {
				return nil, badProps
			}
		case chain[i].anchor != nil:
			offers[i] = chain[i].anchor.Offers
		default:
			gen, err := impl.EvalProps(scope)
			if err != nil {
				return nil, badProps
			}
			offers[i] = gen
			if i < last {
				decl, _ := pl.Service.Interface(iface)
				passed := property.Set{}
				for name, v := range received {
					if decl.HasProperty(name) {
						passed[name] = v
					}
				}
				offers[i] = passed.Merge(gen)
			}
		}
	}
	return offers, valid
}

// chainFlowCoeff returns, per unit of client request rate, the request
// rate arriving at each component (in[i]) and flowing on each edge
// (out[i]); the RRF of a (component, configuration) pair applies only at
// its first occurrence along the chain.
func chainFlowCoeff(chain Chain, cs []*cand) (in, out []float64) {
	in = make([]float64, len(chain))
	out = make([]float64, len(chain)-1)
	f := 1.0
	for i := range chain {
		in[i] = f
		rrf := chain[i].comp.Behaviors.EffectiveRRF()
		if rrf < 1 {
			for j := 0; j < i; j++ {
				if cs[j].dup == cs[i].dup {
					rrf = 1
					break
				}
			}
		}
		f *= rrf
		if i < len(out) {
			out[i] = f
		}
	}
	return in, out
}

// chainCapacityRPS is validity condition 3 along a chain: the maximum
// client request rate before a component capacity, a node CPU budget, or
// a link bandwidth saturates.
func (pl *Planner) chainCapacityRPS(chain Chain, cs []*cand, paths []netmodel.Path, in, out []float64) float64 {
	capacity := math.Inf(1)
	for i, elem := range chain {
		if c := elem.comp.Behaviors.CapacityRPS; c > 0 && in[i] > 0 {
			capacity = math.Min(capacity, c/in[i])
		}
	}
	cpuPerNode := map[netmodel.NodeID]float64{}
	for i, elem := range chain {
		cpuPerNode[cs[i].Node] += in[i] * elem.comp.Behaviors.CPUMSPerRequest
	}
	for node, ms := range cpuPerNode {
		n, _ := pl.Net.Node(node)
		if n.CPUCapacityRPS > 0 && ms > 0 {
			capacity = math.Min(capacity, n.CPUCapacityRPS/ms)
		}
	}
	type linkKey struct{ a, b netmodel.NodeID }
	bitsPerLink := map[linkKey]float64{}
	for i, path := range paths {
		b := chain[i+1].comp.Behaviors
		bytes := float64(b.RequestBytes + b.ResponseBytes)
		for j := 0; j+1 < len(path.Nodes); j++ {
			a, b := path.Nodes[j], path.Nodes[j+1]
			if b < a {
				a, b = b, a
			}
			bitsPerLink[linkKey{a, b}] += out[i] * bytes * 8
		}
	}
	for key, bits := range bitsPerLink {
		l, ok := pl.Net.Link(key.a, key.b)
		if !ok || l.BandwidthMbps <= 0 || bits <= 0 {
			continue
		}
		capacity = math.Min(capacity, l.BandwidthMbps*1e6/bits)
	}
	return capacity
}

// chainHopCosts returns the latency cost of each linkage of a chain; an
// anchor terminal's recorded upstream residual latency is folded into
// the final hop.
func chainHopCosts(chain Chain, paths []netmodel.Path) []float64 {
	hops := make([]float64, len(paths))
	for i, path := range paths {
		hops[i] = hopMS(chain[i+1].comp.Behaviors, path)
		if chain[i+1].anchor != nil {
			hops[i] += chain[i+1].anchor.UpstreamMS
		}
	}
	return hops
}
