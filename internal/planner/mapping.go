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

// validateChain applies validity conditions 2 (property compatibility
// under modification rules) and 3 (load versus capacity) to a complete
// assignment — cs[i] is the candidate placed at chain[i] — and, only
// for an assignment that passes both, computes the metrics and
// materializes the Deployment. It expects every linkage to have a
// route, which arc consistency guarantees for the search's assignments;
// a caller that cannot vouch for the routes checks them first
// (routesOf), as Verify and the reference mappers do.
func (pl *Planner) validateChain(chain Chain, cs []*cand, req Request) (*Deployment, verdict) {
	if v := pl.checkProperties(chain, cs, req); v != valid {
		return nil, v
	}
	// Route every linkage along the cached minimum-latency path.
	paths, missing := pl.memo.routesOf(cs)
	if missing >= 0 {
		return nil, noPath
	}
	in, out := flowCoeff(chain, cs)
	capacity := pl.capacityRPS(chain, cs, paths, in, out)
	if req.RateRPS > 0 && req.RateRPS > capacity {
		return nil, overload
	}

	// Each linkage contributes its hop cost weighted by the probability
	// the request traverses it (the product of upstream RRFs); the head
	// component's own service time is always incurred.
	hops := hopCosts(chain, paths)
	dep := &Deployment{
		Placements:        make([]Placement, len(chain)),
		Edges:             make([]Edge, len(paths)),
		ExpectedLatencyMS: chain[0].comp.Behaviors.CPUMSPerRequest,
		CapacityRPS:       capacity,
	}
	for i, hop := range hops {
		dep.ExpectedLatencyMS += out[i] * hop
	}
	// Record each placement's effective offer and its upstream residual
	// latency (expected additional latency per request arriving at it),
	// so future incremental plans can link to it as an anchor.
	for i := range dep.Placements {
		p := &dep.Placements[i]
		*p = cs[i].Placement
		// Clone: the walk's offer sets are memo-owned and shared, and a
		// deployment outlives the call (AddExisting registers it for reuse).
		p.Offers = pl.memo.walks[pl.memo.states[i]].offers.Clone()
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
		dep.Edges[i] = Edge{From: i, To: i + 1, Path: paths[i], Iface: chain.linkIface(i)}
	}
	return dep, valid
}

// routesOf resolves the routes between consecutive candidates. missing
// is the index of the first linkage without one, or -1.
func (mm *planMemo) routesOf(cs []*cand) (paths []netmodel.Path, missing int) {
	paths = make([]netmodel.Path, len(cs)-1)
	for i := range paths {
		p, _, ok := mm.path(cs[i].node, cs[i+1].node)
		if !ok {
			return nil, i
		}
		paths[i] = p
	}
	return paths, -1
}

// checkProperties implements validity condition 2: walking the chain
// from the terminal provider back to the client, it computes the
// effective property set offered across each linkage — applying the
// service's property modification rules to every path environment — and
// checks it against the requiring component's (scope-evaluated)
// requirements (walkStep has the rules). Anchor terminals contribute
// their recorded effective properties. Each step is memoized by the
// chain suffix it closes, so an assignment that shares its tail with an
// earlier one re-walks only the positions in front of it, and the walk
// stops at the first step that fails. The walk states of a valid
// assignment are left in memo.states for validateChain to read the
// offers from.
func (pl *Planner) checkProperties(chain Chain, cs []*cand, req Request) verdict {
	mm := pl.memo
	mm.states = slices.Grow(mm.states[:0], len(chain))[:len(chain)]
	next := int32(-1)
	for i := len(chain) - 1; i >= 0; i-- {
		key := walkKey{next: next, head: i == 0, iface: req.Interface}
		if i > 0 {
			key.iface = chain.linkIface(i - 1)
			if chain[i].isAnchor() {
				key.stand = chain[i].anchor
			}
		}
		next = pl.walk(chain[i].comp, cs[i], key, req)
		if v := mm.walks[next].verdict; v != valid {
			return v
		}
		mm.states[i] = next
	}
	return valid
}

// flowCoeff returns, per unit of client request rate, the request rate
// arriving at each component (in[i]) and flowing on each edge (out[i]):
// in[0] = 1 and each component scales its outgoing rate by its RRF.
//
// An RRF below 1 models a cache absorbing part of the request stream;
// two identical replicas in series cannot absorb each other's misses
// (whatever the first one missed, an identical copy also misses). The
// RRF of a (component, configuration) pair therefore applies only at
// its first occurrence along the chain; subsequent identical instances
// pass traffic through unchanged. Distinctly configured views (e.g. a
// TrustLevel-2 partner cache in front of a TrustLevel-4 branch cache)
// hold different state and do compound.
func flowCoeff(chain Chain, cs []*cand) (in, out []float64) {
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

// capacityRPS implements validity condition 3 as a headroom computation:
// the maximum client request rate the assignment sustains before a
// component capacity, a node CPU budget, or a link bandwidth saturates.
func (pl *Planner) capacityRPS(chain Chain, cs []*cand, paths []netmodel.Path, in, out []float64) float64 {
	capacity := math.Inf(1)

	// Component capacities.
	for i, elem := range chain {
		if c := elem.comp.Behaviors.CapacityRPS; c > 0 && in[i] > 0 {
			capacity = math.Min(capacity, c/in[i])
		}
	}

	// Node CPU budgets: CPUCapacityRPS is the request rate a node
	// sustains at 1 ms CPU per request, i.e. a budget of that many CPU
	// milliseconds per second, aggregated over co-located components.
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

	// Link bandwidth, aggregated over every edge whose path crosses the
	// link. Request and response bytes are those of the provider side.
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

// hopCosts returns the latency cost of each linkage. When the chain
// terminates at an anchor, the anchor's recorded upstream residual
// latency is folded into the final hop, so that linking to an existing
// instance accounts for the requests that continue through its
// already-deployed upstream linkage.
func hopCosts(chain Chain, paths []netmodel.Path) []float64 {
	hops := make([]float64, len(paths))
	for i, path := range paths {
		hops[i] = hopMS(chain[i+1].comp.Behaviors, path)
		if chain[i+1].isAnchor() {
			hops[i] += chain[i+1].anchor.UpstreamMS
		}
	}
	return hops
}
