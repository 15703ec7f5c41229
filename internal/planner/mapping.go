package planner

import (
	"math"

	"partsvc/internal/netmodel"
	"partsvc/internal/property"
	"partsvc/internal/spec"
)

// placementFor instantiates a component at a node if its deployment
// conditions hold there (validity condition 1), evaluating factored
// configuration properties against the node environment. The request's
// user credential is visible to the head component's conditions only.
func (pl *Planner) placementFor(comp spec.Component, node netmodel.NodeID, req Request, pos int) (Placement, bool) {
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

// validate applies validity conditions 2 (property compatibility under
// modification rules) and 3 (load versus capacity) to a complete
// assignment, and computes the deployment metrics. It returns nil when
// the assignment is invalid, bumping the relevant rejection counter.
func (pl *Planner) validate(chain Chain, places []Placement, req Request) *Deployment {
	// Route every linkage along the cached minimum-latency path.
	paths := make([]netmodel.Path, len(chain)-1)
	for i := 0; i+1 < len(chain); i++ {
		p, ok := pl.routes.Path(places[i].Node, places[i+1].Node)
		if !ok {
			pl.stats.RejectedNoPath++
			return nil
		}
		paths[i] = p
	}

	offers, ok := pl.checkProperties(chain, places, paths, req)
	if !ok {
		pl.stats.RejectedProps++
		return nil
	}

	capacity := pl.capacityRPS(chain, places, paths)
	if req.RateRPS > 0 && req.RateRPS > capacity {
		pl.stats.RejectedLoad++
		return nil
	}

	dep := &Deployment{
		Placements:        append([]Placement(nil), places...),
		ExpectedLatencyMS: pl.expectedLatency(chain, places, paths),
		CapacityRPS:       capacity,
	}
	// Record each placement's effective offer and its upstream residual
	// latency (expected additional latency per request arriving at it),
	// so future incremental plans can link to it as an anchor.
	in, out := flowCoeff(chain, places)
	hops := pl.hopCosts(chain, paths)
	for i := range dep.Placements {
		// Clone: offer sets may be memo-owned, and deployments outlive
		// the per-plan memo (AddExisting registers them for reuse).
		dep.Placements[i].Offers = offers[i].Clone()
		if in[i] > 0 {
			var up float64
			for j := i; j < len(hops); j++ {
				up += out[j] * hops[j]
			}
			dep.Placements[i].UpstreamMS = up / in[i]
		}
	}
	for i := range paths {
		dep.Edges = append(dep.Edges, Edge{From: i, To: i + 1, Path: paths[i], Iface: chain.linkIface(i)})
	}
	for _, p := range dep.Placements {
		if !p.Reused {
			dep.NewComponents++
		}
	}
	return dep
}

// checkProperties implements validity condition 2: walking the chain
// from the terminal provider back to the client, it computes the
// effective property set offered across each linkage — applying the
// service's property modification rules to every path environment — and
// checks it against the requiring component's (scope-evaluated)
// requirements. Properties a component does not generate pass through
// from its own provider, restricted to the linking interface's declared
// properties: this makes wrapper components like the Encryptor
// transparent for TrustLevel while letting them re-establish
// Confidentiality. Anchor terminals contribute their recorded effective
// properties. On success it returns the effective set each placement
// offers to its client.
func (pl *Planner) checkProperties(chain Chain, places []Placement, paths []netmodel.Path, req Request) ([]property.Set, bool) {
	k := len(chain) - 1
	offers := make([]property.Set, len(chain))

	// The head's own implemented properties must satisfy any explicit
	// client expectations on the requested interface.
	if _, ok := chain[0].comp.ImplementsInterface(req.Interface); ok {
		if headOffer, err := pl.evalImplProps(chain[0].comp, req.Interface, places[0]); err == nil {
			offers[0] = headOffer
		}
	}
	if len(req.RequireProps) > 0 && !offers[0].Satisfies(req.RequireProps) {
		return nil, false
	}
	if k == 0 {
		return offers, true
	}

	// Effective properties offered by the terminal element.
	var offered property.Set
	if chain[k].isAnchor() {
		offered = chain[k].anchor.Offers.Clone()
	} else {
		var err error
		offered, err = pl.evalImplProps(chain[k].comp, chain.linkIface(k-1), places[k])
		if err != nil {
			return nil, false
		}
	}
	offers[k] = offered

	for i := k - 1; i >= 0; i-- {
		env := pl.linkageEnv(paths[i])
		received, err := pl.Service.ModRules.ApplySetRO(offered, env)
		if err != nil {
			return nil, false
		}
		reqProps, err := pl.evalReqProps(chain[i].comp, places[i])
		if err != nil {
			return nil, false
		}
		if !received.Satisfies(reqProps) {
			return nil, false
		}
		if i == 0 {
			break
		}
		// Compute what component i offers to component i-1: received
		// properties pass through, restricted to the linking interface's
		// declaration, overlaid with the properties i generates itself.
		iface := chain.linkIface(i - 1)
		decl, _ := pl.Service.Interface(iface)
		next := property.Set{}
		for name, v := range received {
			if decl.HasProperty(name) {
				next[name] = v
			}
		}
		gen, err := pl.evalImplProps(chain[i].comp, iface, places[i])
		if err != nil {
			return nil, false
		}
		offered = next.Merge(gen)
		offers[i] = offered
	}
	return offers, true
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
func flowCoeff(chain Chain, places []Placement) (in, out []float64) {
	in = make([]float64, len(chain))
	out = make([]float64, len(chain)-1)
	seen := map[string]bool{}
	f := 1.0
	for i := range chain {
		in[i] = f
		rrf := chain[i].comp.Behaviors.EffectiveRRF()
		id := chain[i].comp.Name + "{" + places[i].configFP() + "}"
		if rrf < 1 {
			if seen[id] {
				rrf = 1
			}
			seen[id] = true
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
func (pl *Planner) capacityRPS(chain Chain, places []Placement, paths []netmodel.Path) float64 {
	in, out := flowCoeff(chain, places)
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
		cpuPerNode[places[i].Node] += in[i] * elem.comp.Behaviors.CPUMSPerRequest
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
func (pl *Planner) hopCosts(chain Chain, paths []netmodel.Path) []float64 {
	hops := make([]float64, len(paths))
	for i, path := range paths {
		hops[i] = hopMS(chain[i+1].comp.Behaviors, path)
		if chain[i+1].isAnchor() {
			hops[i] += chain[i+1].anchor.UpstreamMS
		}
	}
	return hops
}

// expectedLatency computes the expected client-perceived latency of one
// request: each linkage contributes its hop cost weighted by the
// probability the request traverses it (the product of upstream RRFs).
// The head component's own service time is always incurred.
func (pl *Planner) expectedLatency(chain Chain, places []Placement, paths []netmodel.Path) float64 {
	_, out := flowCoeff(chain, places)
	total := chain[0].comp.Behaviors.CPUMSPerRequest
	for i, hop := range pl.hopCosts(chain, paths) {
		total += out[i] * hop
	}
	return total
}
