package planner

import (
	"math"
	"slices"

	"partsvc/internal/netmodel"
	"partsvc/internal/property"
	"partsvc/internal/spec"
)

// placementFor instantiates a component at a node if its deployment
// conditions hold there (validity condition 1), evaluating factored
// configuration properties against the node environment. The request's
// user credential is visible to the head component's conditions only.
func (pl *Planner) placementFor(comp *spec.Component, node netmodel.NodeID, req Request, pos int) (Placement, bool) {
	n, ok := pl.Net.Node(node)
	if !ok || n.Down {
		return Placement{}, false
	}
	sc := property.Scope{Node: n.Props}
	if pos == 0 && req.User != "" {
		sc.Extra = property.Set{"User": property.Str(req.User)}
	}
	if !comp.ConditionsHold(sc) {
		return Placement{}, false
	}
	config := property.Set{}
	for name, expr := range comp.Factors {
		v, err := expr.Eval(sc)
		if err != nil {
			return Placement{}, false
		}
		if ty, declared := pl.Service.PropertyType(name); declared {
			if err := ty.Check(v); err != nil {
				return Placement{}, false
			}
		}
		config[name] = v
	}
	return Placement{Component: comp.Name, Node: node, Config: config}, true
}

// scopeAt builds the evaluation scope for a placement: the node's
// translated properties overlaid with the placement's factored
// configuration.
func (pl *Planner) scopeAt(p Placement) property.Scope {
	n, _ := pl.Net.Node(p.Node)
	return property.Scope{Node: n.Props.Merge(p.Config)}
}

// reject accounts an invalid assignment under its reason.
func (pl *Planner) reject(v verdict) {
	switch v {
	case noPath:
		pl.stats.RejectedNoPath++
	case badProps:
		pl.stats.RejectedProps++
	case overload:
		pl.stats.RejectedLoad++
	}
}

// validate applies validity conditions 2 (property compatibility under
// modification rules) and 3 (load versus capacity) to a complete
// assignment — cs[i] is the candidate placed at position i of g — and,
// only for an assignment that passes both, computes the metrics and
// materializes the Deployment: the one place an assignment becomes one.
// It expects every linkage to have a route, which arc consistency
// guarantees for the search's assignments; a caller that cannot vouch
// for the routes checks them first (routesOf), as Verify and the
// reference mapper do.
func (pl *Planner) validate(g Graph, cs []*cand, req Request) (*Deployment, verdict) {
	if v := pl.checkProperties(g, cs, req); v != valid {
		return nil, v
	}
	// Route every linkage along the cached minimum-latency path.
	paths, missing := pl.memo.routesOf(g, cs)
	if missing >= 0 {
		return nil, noPath
	}
	in := flowCoeff(g, cs)
	capacity := pl.capacityRPS(g, cs, paths, in)
	if req.RateRPS > 0 && req.RateRPS > capacity {
		return nil, overload
	}

	// Each linkage contributes its hop cost weighted by the probability
	// the request traverses it (the product of the RRFs in front of it);
	// the head component's own service time is always incurred.
	hops := hopCosts(g, paths)
	dep := &Deployment{
		Placements:        make([]Placement, len(g)),
		Edges:             make([]Edge, len(g)-1),
		ExpectedLatencyMS: g[0].comp.Behaviors.CPUMSPerRequest,
		CapacityRPS:       capacity,
	}
	for c := 1; c < len(g); c++ {
		dep.ExpectedLatencyMS += in[c] * hops[c-1]
		dep.Edges[c-1] = Edge{From: g[c].parent, To: c, Path: paths[c-1], Iface: g[c].iface}
	}
	// Record each placement's effective offer and its upstream residual
	// latency (expected additional latency per request arriving at it,
	// summed over the linkages of its subtree), so future incremental
	// plans can link to it as an anchor.
	for i := range dep.Placements {
		p := &dep.Placements[i]
		*p = cs[i].Placement
		// Clone: the walk's offer sets are memo-owned and shared, and a
		// deployment outlives the call (AddExisting registers it for reuse).
		p.Offers = pl.memo.walks[pl.memo.states[i]].offers.Clone()
		if in[i] > 0 {
			var up float64
			for c := i + 1; c < g[i].end; c++ {
				up += in[c] * hops[c-1]
			}
			p.UpstreamMS = up / in[i]
		}
		if !p.Reused {
			dep.NewComponents++
		}
	}
	return dep, valid
}

// routesOf resolves the route of every linkage: paths[c-1] links
// position c to its client. missing is the first position without a
// route to its client, or -1.
func (mm *planMemo) routesOf(g Graph, cs []*cand) (paths []netmodel.Path, missing int) {
	paths = make([]netmodel.Path, len(cs)-1)
	for c := 1; c < len(cs); c++ {
		p, _, ok := mm.path(cs[g[c].parent].node, cs[c].node)
		if !ok {
			return nil, c
		}
		paths[c-1] = p
	}
	return paths, -1
}

// checkProperties implements validity condition 2: walking the graph
// from the terminal providers back to the client, it computes the
// effective property set offered across each linkage — applying the
// service's property modification rules to every path environment — and
// checks it against the requiring component's (scope-evaluated)
// requirements (walkStep has the rules). Anchor terminals contribute
// their recorded effective properties. Each step is memoized by the
// subtree it closes, so an assignment that shares a subtree with an
// earlier one re-walks only the positions in front of it, and the walk
// stops at the first step that fails. The walk states of a valid
// assignment are left in memo.states for validate to read the offers
// from.
func (pl *Planner) checkProperties(g Graph, cs []*cand, req Request) verdict {
	mm := pl.memo
	mm.states = slices.Grow(mm.states[:0], len(g))[:len(g)]
	// Reverse pre-order closes every provider subtree before its client.
	for i := len(g) - 1; i >= 0; i-- {
		key := walkKey{head: i == 0, iface: g[i].iface}
		if i == 0 {
			key.iface = req.Interface
		}
		if a := g[i].anchor; a != nil {
			key.stand = &a.Placement
		}
		kids := mm.kids[:0]
		for c := i + 1; c < g[i].end; c = g[c].end {
			kids = append(kids, mm.states[c])
		}
		mm.kids = kids
		st := pl.walk(g[i].comp, cs[i], key, kids, req)
		if v := mm.walks[st].verdict; v != valid {
			return v
		}
		mm.states[i] = st
	}
	return valid
}

// flowCoeff returns the request rate arriving at each position per unit
// of client request rate — which is also the rate on the linkage from
// its client: in[0] = 1 and each component scales what it passes to its
// providers by its RRF.
//
// An RRF below 1 models a cache absorbing part of the request stream;
// two identical replicas in series cannot absorb each other's misses
// (whatever the first one missed, an identical copy also misses). The
// RRF of a (component, configuration) pair therefore applies only at
// its first occurrence along a path from the head; subsequent identical
// instances pass traffic through unchanged. Distinctly configured views
// (e.g. a TrustLevel-2 partner cache in front of a TrustLevel-4 branch
// cache) hold different state and do compound.
func flowCoeff(g Graph, cs []*cand) []float64 {
	in := make([]float64, len(g))
	in[0] = 1
	for c := 1; c < len(g); c++ {
		p := g[c].parent
		rrf := g[p].comp.Behaviors.EffectiveRRF()
		if rrf < 1 {
			for a := g[p].parent; a >= 0; a = g[a].parent {
				if cs[a].dup == cs[p].dup {
					rrf = 1
					break
				}
			}
		}
		in[c] = in[p] * rrf
	}
	return in
}

// capacityRPS implements validity condition 3 as a headroom computation:
// the maximum client request rate the assignment sustains before a
// component capacity, a node CPU budget, or a link bandwidth saturates.
func (pl *Planner) capacityRPS(g Graph, cs []*cand, paths []netmodel.Path, in []float64) float64 {
	capacity := math.Inf(1)

	// Component capacities.
	for i := range g {
		if c := g[i].comp.Behaviors.CapacityRPS; c > 0 && in[i] > 0 {
			capacity = math.Min(capacity, c/in[i])
		}
	}

	// Node CPU budgets: CPUCapacityRPS is the request rate a node
	// sustains at 1 ms CPU per request, i.e. a budget of that many CPU
	// milliseconds per second, aggregated over co-located components.
	cpuPerNode := map[netmodel.NodeID]float64{}
	for i := range g {
		cpuPerNode[cs[i].Node] += in[i] * g[i].comp.Behaviors.CPUMSPerRequest
	}
	for node, ms := range cpuPerNode {
		n, _ := pl.Net.Node(node)
		if n.CPUCapacityRPS > 0 && ms > 0 {
			capacity = math.Min(capacity, n.CPUCapacityRPS/ms)
		}
	}

	// Link bandwidth, aggregated over every linkage whose path crosses
	// the link. Request and response bytes are those of the provider side.
	type linkKey struct{ a, b netmodel.NodeID }
	bitsPerLink := map[linkKey]float64{}
	for c := 1; c < len(g); c++ {
		b := g[c].comp.Behaviors
		bytes := float64(b.RequestBytes + b.ResponseBytes)
		nodes := paths[c-1].Nodes
		for j := 0; j+1 < len(nodes); j++ {
			a, b := nodes[j], nodes[j+1]
			if b < a {
				a, b = b, a
			}
			bitsPerLink[linkKey{a, b}] += in[c] * bytes * 8
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

// hopMS is the latency cost of one linkage to a provider: round-trip
// propagation, request/response serialization delay, and the provider's
// service time.
func hopMS(provider spec.Behaviors, path netmodel.Path) float64 {
	hop := 2*path.LatencyMS + provider.CPUMSPerRequest
	if !path.IsLoopback() && path.BottleneckMbps > 0 && !math.IsInf(path.BottleneckMbps, 1) {
		bits := float64(provider.RequestBytes+provider.ResponseBytes) * 8
		hop += bits / (path.BottleneckMbps * 1e6) * 1e3
	}
	return hop
}

// hopCosts returns the latency cost of each linkage (hops[c-1] for the
// linkage to position c). Where a branch terminates at an anchor, the
// anchor's recorded upstream residual latency is folded into that hop,
// so that linking to an existing instance accounts for the requests that
// continue through its already-deployed upstream linkage.
func hopCosts(g Graph, paths []netmodel.Path) []float64 {
	hops := make([]float64, len(paths))
	for c := 1; c < len(g); c++ {
		hops[c-1] = hopMS(g[c].comp.Behaviors, paths[c-1])
		if g[c].anchor != nil {
			hops[c-1] += g[c].anchor.UpstreamMS
		}
	}
	return hops
}
