package planner

import (
	"math"
	"slices"

	"partsvc/internal/netmodel"
	"partsvc/internal/property"
	"partsvc/internal/spec"
)

// The planner remembers what it derives in three layers, split by what
// each entry depends on, so that a call re-derives only what can have
// moved since the last one:
//
//   - propLayer: what node liveness, node and link properties and the
//     specification decide — interned placement identities, placements,
//     interface property evaluations, candidate lists before reuse
//     substitution, and the property walk. It lives on the Planner
//     across calls while its propKey holds. No route is part of it: the
//     walk reads a linkage's environment by its interned content
//     (netmodel.EnvID), so a latency change that re-routes a pair onto a
//     path with another environment meets other walk states, never a
//     stale one.
//   - reuseLayer: what the reuse set (Planner.Existing) decides on top
//     of that — the registered instances as candidates, the enumerated
//     graphs and the reuse-substituted candidate lists. The property
//     layer keeps a few, found by the reuse set's content and by a
//     settled session's own wiring (planMemo.own): callers reassign
//     Existing wholesale before a call (the table's live instances),
//     with no generation to compare.
//   - linkLayer: the link costs of one route handle, kept on the
//     Planner while the call's *RouteCache handle and the specification
//     are the same — across calls while the network's route epoch
//     stands (each call reads the handle once, at its outermost entry)
//     — and dropped when either changes. A link cost counts as a
//     route lookup the first time each call uses it, kept or resolved,
//     so the lookup counts stay those of per-call tables.
//   - planMemo: one call. What the request decides (head placements,
//     the head's walk step) and the search scratch. Replan's standing
//     deployment and its search are passes over one network state and
//     share it; it is dropped when the outermost call ends. Two things
//     can move inside a call and are guarded: the route handle (a pass
//     that begins under a different RouteCache starts a new one) and the
//     reuse set (every method that changes Existing bumps Planner.gen,
//     and the next reuseNow looks the layer up again).
type planMemo struct {
	routes *netmodel.RouteCache
	props  *propLayer
	// lookups counts route lookups not yet reported to the route cache.
	lookups uint64

	links map[*spec.Component]*linkTable // the link layer's tables
	call  uint32                         // the call's stamp in them
	// latencies records whether every link latency is non-negative, the
	// assumption lowerBound's triangle inequality rests on: 0 until
	// checked, then 1 (it holds) or -1.
	latencies int8

	// own is the settled session's own wiring while Replan searches;
	// empty otherwise.
	own ownWiring
	// reuse is the reuse layer of generation reuseGen; heads holds the
	// head candidates under it.
	reuse    *reuseLayer
	reuseGen uint64
	heads    map[*spec.Component][]cand
	// headPlaces memoizes the head placements, which see the request
	// user; headWalks and headWalkID the head's walk steps, which see
	// its RequireProps.
	headPlaces map[placeKey]placeResult
	headWalks  []walkState
	headWalkID map[walkKey]int32

	// The model being solved (a call solves its graphs one at a time)
	// with the one-candidate domains of its anchors, and Evaluate's
	// scratch: the assignment as candidates and as walk states (states[0]
	// indexes headWalks, the rest the property layer's walks), and the
	// provider states of the position being walked with the environments
	// of the linkages to them.
	model    graphModel
	pins     []cand
	assigned []*cand
	states   []int32
	kids     []int32
	envs     []netmodel.EnvID
	// leastW is lowerBound's scratch: the least weight on each
	// position's path from the head.
	leastW []float64
}

// ownWiring is a settled session's own wiring (Replan): keys,
// sorted, names the old deployment's placements that link to a
// provider, which the reuse set then offers neither as reused
// candidates nor as anchors at their registered records — what those
// record of their upstream predates the change being answered. stands
// are the same placements as the old deployment runs them now, offers
// and upstream latency re-derived under current routes: the search may
// anchor on them, which reuses an instance together with its wiring.
// Anywhere else such a key is a fresh install, as it is for the engine,
// which reinstalls an instance whose providers change.
type ownWiring struct {
	keys   []string
	stands []Placement
}

// propKey is what the property layer depends on, beside the node
// snapshot (propLayer.current). The network's property generation moves
// with every mutation but a link's latency or bandwidth
// (netmodel.Network.PropGen); the route cache's is the one its node
// indices and EnvIDs come from, which lags the network's when it
// mutated after the call read its route handle.
type propKey struct {
	net      *netmodel.Network
	svc      *spec.Service
	netGen   uint64
	routeGen uint64
}

// propLayerCap bounds the walk states a property layer accumulates
// while its key holds; past it the layer starts over.
const propLayerCap = 1 << 16

// maxReuseLayers is how many reuse sets a property layer remembers: a
// fleet planner meets several sites', and each settled session's own
// wiring makes its reuse set another one.
const maxReuseLayers = 8

type propLayer struct {
	key propKey
	// nodes is the live node table in ID order; nodeIdx[i] is the dense
	// route-cache index of nodes[i], -1 when the call's route handle
	// predates the node — such a node has no routes and is pruned by propagation.
	nodes   []*netmodel.Node
	nodeIdx []int32
	// down and props snapshot each node's liveness and properties when
	// the layer was built. A node's properties can be written in place
	// without an invalidation, so the generations cannot vouch for
	// them: every call compares.
	down  []bool
	props []property.Set

	places map[placeKey]placeResult
	evals  map[evalKey]evalResult
	keyIDs map[placeID]int32
	dupIDs map[dupID]int32
	// lists holds each component's candidates before reuse substitution.
	lists  map[*spec.Component]*candList
	walks  []walkState
	walkID map[walkKey]int32
	// joinID interns the provider side of a position with several
	// providers (see join).
	joinID map[[3]int32]int32
	// offers interns anchor offers by content; stands maps an anchor's
	// (placement key, offers) to its walk state.
	offers property.Interner
	stands map[[2]int32]int32
	// reuse holds the reuse layers, most recently used first.
	reuse []*reuseLayer
}

func newPropLayer(key propKey, routes *netmodel.RouteCache) *propLayer {
	pr := &propLayer{
		key:    key,
		nodes:  key.net.Nodes(),
		places: map[placeKey]placeResult{},
		evals:  map[evalKey]evalResult{},
		keyIDs: map[placeID]int32{},
		dupIDs: map[dupID]int32{},
		lists:  map[*spec.Component]*candList{},
		walkID: make(map[walkKey]int32, 256),
		joinID: map[[3]int32]int32{},
		stands: map[[2]int32]int32{},
	}
	pr.nodeIdx = make([]int32, len(pr.nodes))
	pr.down = make([]bool, len(pr.nodes))
	pr.props = make([]property.Set, len(pr.nodes))
	for i, n := range pr.nodes {
		idx, ok := routes.Index(n.ID)
		if !ok {
			idx = -1
		}
		pr.nodeIdx[i] = idx
		pr.down[i], pr.props[i] = n.Down, n.Props.Clone()
	}
	return pr
}

// current reports whether every node still has the liveness and
// properties the layer was built under.
func (pr *propLayer) current() bool {
	for i, n := range pr.nodes {
		if n.Down != pr.down[i] || !n.Props.Equal(pr.props[i]) {
			return false
		}
	}
	return true
}

// cand is one candidate placement as the search sees it: the placement
// plus everything the inner loops compare, resolved to integers once.
type cand struct {
	Placement
	// node is the dense route-cache index of Node (-1: unknown to the
	// cache, unroutable).
	node int32
	// key is the interned placement identity (component, node,
	// configuration): the no-instance-twice rule compares it.
	key int32
	// dup is the interned (component, configuration) pair: the
	// no-duplicate-replica rule compares it, and a cache's RRF applies
	// at its first occurrence along a chain.
	dup int32
	// stand is, for an anchor, its walk state: its recorded Offers
	// standing in for its upstream (standOf).
	stand int32
}

// candList is the domain of a graph position whose component may run on
// any suitable node, built once per component and reuse-set generation.
type candList struct {
	cands []cand
	// rejected counts the nodes whose deployment conditions failed;
	// every graph that uses the list adds it to RejectedConditions.
	rejected int
	// reused reports that some candidate is a registered instance, which
	// deploys at no penalty (graphModel.lowerBound).
	reused bool
}

// reuseLayer is everything derived from one reuse set's content.
type reuseLayer struct {
	// maxLen is the chain-length bound the graphs were enumerated under.
	maxLen int
	// own holds the keys of the own wiring the layer was built for
	// (planMemo.own), left out of byKey and, at their registered
	// records, out of the anchors; stands holds the call's stands as
	// anchor candidates, found by key and refreshed on every lookup.
	own    []string
	stands []cand
	// existing is Existing as candidates (Reused set), in order; byKey
	// finds an entry by interned placement key.
	existing []cand
	byKey    map[int32]int32
	graphs   map[string][]Graph
	lists    map[*spec.Component]*candList
}

// holds reports whether the layer was built for this reuse set and own
// wiring: the same instances in the same order, with the same
// configurations, recorded offers and upstream latencies, and the same
// own keys and stands (by key; what a stand records is refreshed).
func (ru *reuseLayer) holds(existing []Placement, maxLen int, own *ownWiring) bool {
	if ru.maxLen != maxLen || len(ru.existing) != len(existing) || len(ru.stands) != len(own.stands) ||
		!slices.Equal(ru.own, own.keys) {
		return false
	}
	for i := range existing {
		a, b := &ru.existing[i].Placement, &existing[i]
		if a.Component != b.Component || a.Node != b.Node || a.UpstreamMS != b.UpstreamMS ||
			!a.Config.Equal(b.Config) || !a.Offers.Equal(b.Offers) {
			return false
		}
	}
	for i := range own.stands {
		if ru.stands[i].Key() != own.stands[i].Key() || len(ru.stands[i].Offers) == 0 != (len(own.stands[i].Offers) == 0) {
			return false
		}
	}
	return true
}

type placeID struct {
	comp string
	node netmodel.NodeID
	cfg  string
}

type dupID struct{ comp, cfg string }

// placeKey identifies one placementFor call: component at node; head
// placements see the request user and are keyed apart.
type placeKey struct {
	comp *spec.Component
	node netmodel.NodeID
	head bool
}

type placeResult struct {
	p  Placement
	ok bool
}

// evalKey identifies one InterfaceSpec evaluation site: a component's
// implemented or required interface, evaluated in the scope of a
// placement (its interned key fixes node and configuration).
type evalKey struct {
	comp     *spec.Component
	iface    string
	required bool
	place    int32
}

type evalResult struct {
	props property.Set
	err   error
}

// linkCost is what the search needs to know about linking a provider
// component across one node pair.
type linkCost struct {
	// hopMS is the latency cost of the linkage (hopMS below); +Inf when
	// there is no route, NaN while unknown.
	hopMS float64
	// bneckMbps is the route's bottleneck bandwidth (+Inf on loopback).
	bneckMbps float64
	// env is the route's interned environment, noEnv without a route.
	env netmodel.EnvID
	// call stamps the last call that counted the lookup.
	call uint32
}

// noEnv marks a linkage with no route.
const noEnv netmodel.EnvID = -1

// linkTable holds the link costs of one provider component, per
// (client node, provider node) index pair. Rows are allocated and
// entries filled on first use, so a search that prunes most positions
// touches a few rows of a large network's table.
type linkTable struct {
	comp *spec.Component
	rows [][]linkCost
}

// linkLayer is the link-cost tables of one route handle and
// specification, and the number of calls that used them.
type linkLayer struct {
	routes *netmodel.RouteCache
	svc    *spec.Service
	tables map[*spec.Component]*linkTable
	calls  uint32
}

// verdict is the outcome of exact validation.
type verdict uint8

const (
	valid verdict = iota
	noPath
	badProps
	overload
)

// walkKey identifies one step of the property walk (validity condition
// 2): a candidate serving its client over iface, given the walk states
// of its providers and the environments of the linkages to them. What a
// position offers depends only on the positions of its subtree, so the
// state of a subtree is shared by every assignment — every linkage
// graph, and every call while the property layer holds — that contains
// it. The head's steps are keyed the same way in the call's memo.
type walkKey struct {
	place int32 // interned placement key of the candidate
	// next and env are the provider side: -1 and noEnv at a terminal; a
	// single provider's walk state and linkage environment; for several,
	// the interned join of (state, environment) pairs in requirement
	// order (below -1, see join) and noEnv.
	next  int32
	env   netmodel.EnvID
	iface string // the interface it serves its client over
}

type walkState struct {
	// offers is the effective property set the position offers its
	// client. Shared and read-only.
	offers  property.Set
	node    int32
	verdict verdict
}

// beginPlan opens a planning pass: it resets the search statistics and
// snapshots the route counters, and — when this is the outermost call —
// starts the call's memo on the network's current route handle, over
// the property layer its key selects. Passes nest (every public entry
// point brackets itself) and share the outermost one's memo, so a call
// sees one route epoch however the topology moves under it; endPlan
// closes them.
func (pl *Planner) beginPlan() {
	pl.flushLookups()
	if pl.depth == 0 {
		routes := pl.Net.Routes()
		if ll := pl.links; ll == nil || ll.routes != routes || ll.svc != pl.Service {
			pl.links = &linkLayer{routes: routes, svc: pl.Service, tables: map[*spec.Component]*linkTable{}}
		}
		pl.links.calls++
		pl.memo = &planMemo{
			routes:     routes,
			props:      pl.propsFor(routes),
			links:      pl.links.tables,
			call:       pl.links.calls,
			heads:      map[*spec.Component][]cand{},
			headPlaces: map[placeKey]placeResult{},
			headWalkID: map[walkKey]int32{},
		}
	}
	pl.depth++
	pl.stats = Stats{}
	pl.hits0, pl.misses0 = pl.memo.routes.Counters()
}

// propsFor returns the property layer for a call on routes: the kept
// one while its key holds, else a new one.
func (pl *Planner) propsFor(routes *netmodel.RouteCache) *propLayer {
	key := propKey{net: pl.Net, svc: pl.Service, netGen: pl.Net.PropGen(), routeGen: routes.PropGen()}
	if pr := pl.props; pr != nil && pr.key == key && len(pr.walks) <= propLayerCap && pr.current() {
		pl.layers.PropLayerKept++
		return pr
	}
	pl.layers.PropLayerRebuilt++
	pl.props = newPropLayer(key, routes)
	return pl.props
}

// endPlan closes the pass beginPlan opened, folding the route-cache
// counter deltas of the pass into the statistics, and drops the call's
// memo with the outermost one.
func (pl *Planner) endPlan() {
	pl.flushLookups()
	h, m := pl.memo.routes.Counters()
	pl.stats.RouteCacheHits = int(h - pl.hits0)
	pl.stats.RouteCacheMisses = int(m - pl.misses0)
	pl.stats.layerCounts = pl.layers
	pl.depth--
	if pl.depth == 0 {
		pl.memo = nil
	}
}

// flushLookups reports the memo's batched route lookups to its cache.
func (pl *Planner) flushLookups() {
	if mm := pl.memo; mm != nil && mm.lookups > 0 {
		mm.routes.AddLookups(mm.lookups)
		mm.lookups = 0
	}
}

// latenciesNonNegative reports whether every link latency of net is
// non-negative, checking once per call.
func (mm *planMemo) latenciesNonNegative(net *netmodel.Network) bool {
	if mm.latencies == 0 {
		mm.latencies = 1
		for _, l := range net.Links() {
			if !(l.LatencyMS >= 0) {
				mm.latencies = -1
				break
			}
		}
	}
	return mm.latencies > 0
}

// path resolves the route between two dense node indices, counting the
// lookup.
func (mm *planMemo) path(from, to int32) (netmodel.Path, property.Set, bool) {
	if from < 0 || to < 0 {
		return netmodel.Path{}, nil, false
	}
	mm.lookups++
	return mm.routes.PathAt(from, to)
}

// candOf resolves a placement to a candidate, looking up its node's
// dense route index.
func (mm *planMemo) candOf(p Placement) cand {
	idx, ok := mm.routes.Index(p.Node)
	if !ok {
		idx = -1
	}
	return mm.props.candAt(p, idx)
}

// candAt is candOf for a caller that knows the node's dense index.
func (pr *propLayer) candAt(p Placement, node int32) cand {
	if p.idKey == "" {
		p.sealKeys()
	}
	c := cand{Placement: p, node: node}
	pid := placeID{p.Component, p.Node, p.cfgFP}
	id, ok := pr.keyIDs[pid]
	if !ok {
		id = int32(len(pr.keyIDs))
		pr.keyIDs[pid] = id
	}
	c.key = id
	did := dupID{p.Component, p.cfgFP}
	id, ok = pr.dupIDs[did]
	if !ok {
		id = int32(len(pr.dupIDs))
		pr.dupIDs[did] = id
	}
	c.dup = id
	return c
}

// linksOf returns the link-cost table of a provider component.
func (mm *planMemo) linksOf(comp *spec.Component) *linkTable {
	t := mm.links[comp]
	if t == nil {
		t = &linkTable{comp: comp, rows: make([][]linkCost, mm.routes.NumNodes())}
		mm.links[comp] = t
	}
	return t
}

// link returns the cost of linking t's component at node `to` to a
// client at node `from`, resolving the route the first time.
func (mm *planMemo) link(t *linkTable, from, to int32) linkCost {
	if from < 0 || to < 0 {
		return linkCost{hopMS: math.Inf(1), env: noEnv}
	}
	row := t.rows[from]
	if row == nil {
		row = make([]linkCost, len(t.rows))
		for i := range row {
			row[i].hopMS = math.NaN()
		}
		t.rows[from] = row
	}
	c := &row[to]
	if c.call != mm.call {
		c.call = mm.call
		mm.lookups++
	}
	if c.hopMS != c.hopMS {
		*c = linkCost{hopMS: math.Inf(1), env: noEnv, call: mm.call}
		if path, env, ok := mm.routes.PathEnvAt(from, to); ok {
			*c = linkCost{hopMS: hopMS(t.comp.Behaviors, path), bneckMbps: path.BottleneckMbps, env: env, call: mm.call}
		}
	}
	return *c
}

// reuseNow returns the reuse layer of the planner's current reuse set,
// looking it up again when Existing has changed since the last call.
func (pl *Planner) reuseNow() *reuseLayer {
	mm := pl.memo
	if mm.reuse != nil && mm.reuseGen == pl.gen {
		return mm.reuse
	}
	mm.reuse, mm.reuseGen = pl.reuseFor(), pl.gen
	clear(mm.heads)
	return mm.reuse
}

// reuseFor finds the property layer's reuse layer for Existing and the
// call's own wiring, or builds it, evicting the least recently used
// beyond maxReuseLayers, and sets its stands to the call's. The graphs
// point at the stands, so they anchor at what the call recorded.
func (pl *Planner) reuseFor() *reuseLayer {
	ru := pl.findReuse()
	for i, p := range pl.memo.own.stands {
		p.Reused = true
		ru.stands[i] = pl.memo.candOf(p)
		ru.stands[i].stand = pl.standOf(&ru.stands[i])
	}
	return ru
}

func (pl *Planner) findReuse() *reuseLayer {
	mm, pr := pl.memo, pl.memo.props
	for i, ru := range pr.reuse {
		if ru.holds(pl.Existing, pl.maxLen(), &mm.own) {
			copy(pr.reuse[1:i+1], pr.reuse[:i])
			pr.reuse[0] = ru
			pl.layers.ReuseLayerKept++
			return ru
		}
	}
	pl.layers.ReuseLayerRebuilt++
	ru := &reuseLayer{
		maxLen:   pl.maxLen(),
		own:      mm.own.keys,
		existing: make([]cand, len(pl.Existing)),
		stands:   make([]cand, len(mm.own.stands)),
		byKey:    make(map[int32]int32, len(pl.Existing)),
		graphs:   map[string][]Graph{},
		lists:    map[*spec.Component]*candList{},
	}
	for i, e := range pl.Existing {
		e.Reused = true
		ru.existing[i] = mm.candOf(e)
		_, dup := ru.byKey[ru.existing[i].key]
		if _, own := slices.BinarySearch(mm.own.keys, e.Key()); !dup && !own {
			ru.byKey[ru.existing[i].key] = int32(i)
		}
	}
	if len(pr.reuse) < maxReuseLayers {
		pr.reuse = append(pr.reuse, nil)
	}
	copy(pr.reuse[1:], pr.reuse)
	pr.reuse[0] = ru
	return ru
}

// reused substitutes the registered instance for a fresh candidate that
// names the same component, node and factored configuration.
func (ru *reuseLayer) reused(c cand) cand {
	if i, ok := ru.byKey[c.key]; ok {
		return ru.existing[i]
	}
	return c
}

// candidates lists the domain of a non-head, non-anchor graph position:
// a stateful primary with a deployed instance may only be reused (state
// lives in the primary; replication happens through data views), and
// everything else ranges over the nodes whose deployment conditions
// hold, with registered instances substituted where they match.
func (pl *Planner) candidates(comp *spec.Component) *candList {
	ru := pl.reuseNow()
	if l := ru.lists[comp]; l != nil {
		return l
	}
	l := &candList{}
	if pl.isStatefulPrimary(comp) {
		for _, e := range ru.existing {
			if e.Component == comp.Name {
				l.cands = append(l.cands, e)
			}
		}
	}
	if len(l.cands) == 0 { // not a primary, or no instance of it yet
		// The fresh list is shared until a registered instance replaces
		// one of its candidates.
		fresh := pl.freshCandidates(comp)
		l.cands, l.rejected = fresh.cands, fresh.rejected
		shared := true
		for i, c := range fresh.cands {
			if r := ru.reused(c); r.Reused {
				if shared {
					l.cands, shared = slices.Clone(fresh.cands), false
				}
				l.cands[i] = r
			}
		}
	}
	l.reused = slices.ContainsFunc(l.cands, func(c cand) bool { return c.Reused })
	ru.lists[comp] = l
	return l
}

// freshCandidates lists the nodes where comp's deployment conditions
// hold as fresh candidates, before any reuse substitution.
func (pl *Planner) freshCandidates(comp *spec.Component) *candList {
	pr := pl.memo.props
	if l := pr.lists[comp]; l != nil {
		return l
	}
	l := &candList{cands: make([]cand, 0, len(pr.nodes))}
	for i, node := range pr.nodes {
		p, ok := pl.placementForCached(comp, node.ID, Request{}, 1)
		if !ok {
			l.rejected++
			continue
		}
		l.cands = append(l.cands, pr.candAt(p, pr.nodeIdx[i]))
	}
	pr.lists[comp] = l
	return l
}

// headCandidate returns the single-candidate domain of a graph's head:
// the component at the client node, its conditions evaluated with the
// request user in scope. Empty when the conditions fail.
func (pl *Planner) headCandidate(comp *spec.Component, req Request) []cand {
	ru := pl.reuseNow()
	if h, ok := pl.memo.heads[comp]; ok {
		return h
	}
	var h []cand
	if p, ok := pl.placementForCached(comp, req.ClientNode, req, 0); ok {
		h = []cand{ru.reused(pl.memo.candOf(p))}
	}
	pl.memo.heads[comp] = h
	return h
}

// evalImplProps memoizes InterfaceSpec.EvalProps for the component's
// implementation of iface, scoped at the candidate's node and config.
func (pl *Planner) evalImplProps(comp *spec.Component, iface string, c *cand) (property.Set, error) {
	evals := pl.memo.props.evals
	key := evalKey{comp, iface, false, c.key}
	if r, ok := evals[key]; ok {
		return r.props, r.err
	}
	impl, _ := comp.ImplementsInterface(iface)
	props, err := impl.EvalProps(pl.scopeAt(c.Placement))
	evals[key] = evalResult{props, err}
	return props, err
}

// evalReqProps memoizes the component's i-th required interface
// evaluated at the candidate.
func (pl *Planner) evalReqProps(comp *spec.Component, i int, c *cand) (property.Set, error) {
	evals := pl.memo.props.evals
	key := evalKey{comp, comp.Requires[i].Name, true, c.key}
	if r, ok := evals[key]; ok {
		return r.props, r.err
	}
	props, err := comp.Requires[i].EvalProps(pl.scopeAt(c.Placement))
	evals[key] = evalResult{props, err}
	return props, err
}

// placementForCached memoizes placementFor: a head placement (pos 0)
// sees the request user and is memoized for the call, any other in the
// property layer. Callers still account rejections themselves, exactly
// as with the uncached call.
func (pl *Planner) placementForCached(comp *spec.Component, node netmodel.NodeID, req Request, pos int) (Placement, bool) {
	places := pl.memo.props.places
	if pos == 0 {
		places = pl.memo.headPlaces
	}
	key := placeKey{comp, node, pos == 0}
	if r, ok := places[key]; ok {
		return r.p, r.ok
	}
	p, ok := pl.placementFor(comp, node, req, pos)
	if ok {
		p.sealKeys()
	}
	places[key] = placeResult{p, ok}
	return p, ok
}

// loopbackEnv is the property environment of intra-node linkage
// (components co-located on one node): confidential. Shared and
// read-only.
var loopbackEnv = property.Set{"Confidentiality": property.Bool(true)}

// envSet returns the property environment an interned linkage
// environment names: loopbackEnv for co-located components, otherwise
// the route's link aggregate. The returned set is shared and read-only.
func (mm *planMemo) envSet(env netmodel.EnvID) property.Set {
	if env == netmodel.LoopbackEnv {
		return loopbackEnv
	}
	return mm.routes.Env(env)
}

// standOf returns the walk state of an anchor terminal: its recorded
// Offers stand in for its already-deployed upstream, so the state is
// decided by the placement and the offers' content.
func (pl *Planner) standOf(c *cand) int32 {
	pr := pl.memo.props
	oid := pr.offers.Intern(c.Offers)
	key := [2]int32{c.key, oid}
	if id, ok := pr.stands[key]; ok {
		return id
	}
	id := int32(len(pr.walks))
	pr.walks = append(pr.walks, walkState{offers: pr.offers.Set(oid), node: c.node, verdict: valid})
	pr.stands[key] = id
	return id
}

// join folds the walk states of a position's providers, each with the
// environment of the linkage to it, into the provider side of its walk
// key. A single provider is its own state, so the common case needs no
// lookup here.
func (pr *propLayer) join(kids []int32, envs []netmodel.EnvID) (int32, netmodel.EnvID) {
	switch len(kids) {
	case 0:
		return -1, noEnv
	case 1:
		return kids[0], envs[0]
	}
	id := int32(-1)
	for k, kid := range kids {
		key := [3]int32{id, kid, int32(envs[k])}
		j, ok := pr.joinID[key]
		if !ok {
			j = int32(-2 - len(pr.joinID))
			pr.joinID[key] = j
		}
		id = j
	}
	return id, noEnv
}

// walk returns the property-walk state of candidate c of component comp
// serving its client over iface, given the states of its providers in
// requirement order and the environments of the linkages to them. The
// head's step also holds the request's RequireProps, so its states live
// in the call's memo (headWalks); every other state in the property
// layer.
func (pl *Planner) walk(comp *spec.Component, c *cand, iface string, kids []int32, envs []netmodel.EnvID, head bool, req Request) int32 {
	mm := pl.memo
	ids, states := mm.props.walkID, &mm.props.walks
	if head {
		ids, states = mm.headWalkID, &mm.headWalks
	}
	key := walkKey{place: c.key, iface: iface}
	key.next, key.env = mm.props.join(kids, envs)
	if id, ok := ids[key]; ok {
		return id
	}
	st := walkState{node: c.node}
	st.offers, st.verdict = pl.walkStep(comp, c, iface, head, kids, envs, req)
	id := int32(len(*states))
	*states = append(*states, st)
	ids[key] = id
	return id
}

// walkStep computes one step of validity condition 2. What the
// component receives over each required interface — that provider's
// offer modified by the linkage environment — must satisfy the
// requirement; what it then offers its own client is the received
// properties (with several providers the property-wise weakest: a
// multi-input component is only as strong as its weakest input)
// restricted to the serving interface's declaration (pass-through:
// wrapper components like the Encryptor are transparent for TrustLevel)
// overlaid with the properties it generates itself (letting them
// re-establish Confidentiality). The providers' states are valid: the
// walk stops at the first failure. The head serves the requested
// interface with no pass-through.
func (pl *Planner) walkStep(comp *spec.Component, c *cand, iface string, head bool, kids []int32, envs []netmodel.EnvID, req Request) (property.Set, verdict) {
	mm := pl.memo
	var received property.Set
	for k, id := range kids {
		if envs[k] == noEnv {
			return nil, noPath
		}
		got, err := pl.Service.ModRules.ApplySetRO(mm.props.walks[id].offers, mm.envSet(envs[k]))
		if err != nil {
			return nil, badProps
		}
		reqProps, err := pl.evalReqProps(comp, k, c)
		if err != nil || !got.Satisfies(reqProps) {
			return nil, badProps
		}
		if k == 0 {
			received = got
		} else {
			received = weakest(received, got)
		}
	}
	if head {
		// The head's own implemented properties must satisfy any explicit
		// client expectations on the requested interface.
		var offers property.Set
		if _, ok := comp.ImplementsInterface(iface); ok {
			if o, err := pl.evalImplProps(comp, iface, c); err == nil {
				offers = o
			}
		}
		if len(req.RequireProps) > 0 && !offers.Satisfies(req.RequireProps) {
			return nil, badProps
		}
		return offers, valid
	}
	gen, err := pl.evalImplProps(comp, iface, c)
	if err != nil {
		return nil, badProps
	}
	if len(kids) == 0 {
		return gen, valid
	}
	decl, _ := pl.Service.Interface(iface)
	passed := property.Set{}
	for name, v := range received {
		if decl.HasProperty(name) {
			passed[name] = v
		}
	}
	return passed.Merge(gen), valid
}

// weakest returns the properties both sets carry, each at the weaker of
// its two values.
func weakest(a, b property.Set) property.Set {
	out := property.Set{}
	for name, v := range a {
		if w, ok := b[name]; ok {
			if m := property.Min(v, w); m.IsValid() {
				out[name] = m
			}
		}
	}
	return out
}
