package planner

import (
	"partsvc/internal/netmodel"
	"partsvc/internal/property"
	"partsvc/internal/spec"
)

// planMemo caches pure per-plan-call evaluations. Property-expression
// evaluation and placement construction are pure in (component, node,
// factored configuration) — and, for head placements, the requesting
// user — yet the search loops re-derive them for every candidate
// mapping. One memo is created per plan call and discarded with it, so
// memoized results can never outlive a network or specification change.
type planMemo struct {
	evals  map[evalKey]evalResult
	places map[placeKey]placeResult
}

// evalKey identifies one InterfaceSpec evaluation site: a component's
// implemented or required interface, evaluated in the scope of a node
// and a factored configuration.
type evalKey struct {
	comp string
	role string // "i:" + interface name, or "r:" + required interface
	node netmodel.NodeID
	cfg  string // Config fingerprint
}

type evalResult struct {
	props property.Set
	err   error
}

// placeKey identifies one placementFor call: component at node, with
// head placements (which see the request user) keyed separately.
type placeKey struct {
	comp string
	node netmodel.NodeID
	head bool
}

type placeResult struct {
	p  Placement
	ok bool
}

func newPlanMemo() *planMemo {
	return &planMemo{
		evals:  map[evalKey]evalResult{},
		places: map[placeKey]placeResult{},
	}
}

// beginPlan resets per-call state: search statistics, the evaluation
// memo, and the route handle — the epoch-current one, or the pinned one
// when an in-flight replan wave froze the planner's topology view.
func (pl *Planner) beginPlan() {
	pl.stats = Stats{}
	pl.memo = newPlanMemo()
	if pl.pinnedRoutes != nil {
		pl.routes = pl.pinnedRoutes
	} else {
		pl.routes = pl.Net.Routes()
	}
	pl.hits0, pl.misses0 = pl.routes.Counters()
}

// endPlan folds the route-cache counter deltas accumulated during this
// plan call into the statistics.
func (pl *Planner) endPlan() {
	h, m := pl.routes.Counters()
	pl.stats.RouteCacheHits = int(h - pl.hits0)
	pl.stats.RouteCacheMisses = int(m - pl.misses0)
}

// linkageEnv returns the property environment a linkage along the path
// experiences: the planner's loopback environment for co-located
// components, otherwise the cached link aggregate (falling back to a
// direct computation for paths minted under an older epoch). The
// returned set is shared and read-only.
func (pl *Planner) linkageEnv(path netmodel.Path) property.Set {
	if path.IsLoopback() {
		return pl.LoopbackEnv
	}
	if _, env, ok := pl.routes.PathEnv(path.Nodes[0], path.Nodes[len(path.Nodes)-1]); ok {
		return env
	}
	return path.Env(pl.Net, pl.LoopbackEnv)
}

// evalImplProps memoizes InterfaceSpec.EvalProps for the component's
// implementation of iface, scoped at the placement's node and config.
func (pl *Planner) evalImplProps(comp spec.Component, iface string, place Placement) (property.Set, error) {
	impl, _ := comp.ImplementsInterface(iface)
	return pl.evalProps(impl, evalKey{comp.Name, "i:" + iface, place.Node, place.configFP()}, place)
}

// evalReqProps memoizes the component's first required interface
// evaluated at the placement.
func (pl *Planner) evalReqProps(comp spec.Component, place Placement) (property.Set, error) {
	req := comp.Requires[0]
	return pl.evalProps(req, evalKey{comp.Name, "r:" + req.Name, place.Node, place.configFP()}, place)
}

// evalReqPropsAt memoizes the component's i-th required interface (the
// tree planner links one provider subtree per requirement).
func (pl *Planner) evalReqPropsAt(comp spec.Component, i int, place Placement) (property.Set, error) {
	req := comp.Requires[i]
	return pl.evalProps(req, evalKey{comp.Name, "r:" + req.Name, place.Node, place.configFP()}, place)
}

func (pl *Planner) evalProps(is spec.InterfaceSpec, key evalKey, place Placement) (property.Set, error) {
	if r, ok := pl.memo.evals[key]; ok {
		return r.props, r.err
	}
	props, err := is.EvalProps(pl.scopeAt(place))
	pl.memo.evals[key] = evalResult{props, err}
	return props, err
}

// placementForCached memoizes placementFor. The request user is fixed
// for the duration of a plan call, so (component, node, head?) fully
// determines the result. Callers still account rejections themselves,
// exactly as with the uncached call.
func (pl *Planner) placementForCached(comp spec.Component, node netmodel.NodeID, req Request, pos int) (Placement, bool) {
	key := placeKey{comp.Name, node, pos == 0}
	if r, ok := pl.memo.places[key]; ok {
		return r.p, r.ok
	}
	p, ok := pl.placementFor(comp, node, req, pos)
	if ok {
		p.sealKeys()
	}
	pl.memo.places[key] = placeResult{p, ok}
	return p, ok
}
