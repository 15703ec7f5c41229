package planner

import (
	"math"

	"partsvc/internal/netmodel"
	"partsvc/internal/property"
	"partsvc/internal/solver"
	"partsvc/internal/spec"
)

// planMemo holds every pure answer one public planner call computes, so
// that each is computed once and afterwards read from a map or an
// array. The call is the scope: RepairReplan's repair, its Replan and
// its rewire Replan are three planning passes over one network state
// and share one memo; the memo is created when the outermost call
// begins and dropped when it ends, so nothing memoized can outlive a
// network or specification change. A call plans one request: what
// depends on it (head placements, the head's walk step) is not keyed by
// it. Two things can move inside a call
// and are guarded explicitly: the route handle (a pass that begins
// under a different RouteCache starts over with an empty memo) and the
// reuse set (everything derived from Planner.Existing lives in a
// reuseSet tagged with the generation it was built for).
type planMemo struct {
	routes *netmodel.RouteCache
	// nodes is the live node table in ID order; nodeIdx[i] is the dense
	// route-cache index of nodes[i], -1 when the (pinned) cache predates
	// the node — such a node has no routes and is pruned by propagation.
	nodes   []*netmodel.Node
	nodeIdx []int32
	// lookups counts PathAt calls not yet reported to the route cache.
	lookups uint64

	// engine is the constraint engine of the call: one Solver for every
	// graph, so its working arrays are allocated once.
	engine solver.Solver

	places map[placeKey]placeResult
	evals  map[evalKey]evalResult
	keyIDs map[placeID]int32
	dupIDs map[dupID]int32
	links  map[*spec.Component]*linkTable
	walks  []walkState
	walkID map[walkKey]int32
	// joinID interns the provider side of a position with several
	// providers (see walkKey.next).
	joinID map[[2]int32]int32
	reuse  *reuseSet

	// The model being solved (a call solves its graphs one at a time)
	// with the one-candidate domains of its anchors, and Evaluate's
	// scratch: the assignment as candidates and as walk states, and the
	// provider states of the position being walked.
	model    graphModel
	pins     []cand
	assigned []*cand
	states   []int32
	kids     []int32
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
}

// candList is the domain of a graph position whose component may run on
// any suitable node, built once per component and reuse-set generation.
type candList struct {
	cands []cand
	// rejected counts the nodes whose deployment conditions failed;
	// every graph that uses the list adds it to RejectedConditions.
	rejected int
}

// reuseSet is everything derived from Planner.Existing, valid for one
// generation of it.
type reuseSet struct {
	gen uint64
	// existing is Existing as candidates (Reused set), in order; byKey
	// finds an entry by interned placement key.
	existing []cand
	byKey    map[int32]int32
	graphs   map[string][]Graph
	lists    map[*spec.Component]*candList
	heads    map[*spec.Component][]cand
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
}

// linkTable holds the link costs of one provider component, per
// (client node, provider node) index pair. Rows are allocated and
// entries filled on first use, so a repair that pins most positions
// touches a few rows of a large network's table.
type linkTable struct {
	comp *spec.Component
	rows [][]linkCost
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
// 2): a candidate serving its client over iface, given the walk state
// of its provider side. What a position offers depends only on the
// positions of its subtree, so the state of a subtree is shared by
// every assignment — and every linkage graph — that contains it.
type walkKey struct {
	place int32 // interned placement key of the candidate
	// next is the provider side: -1 at a terminal, the provider's walk
	// state for a single provider, and for several the interned join of
	// their states in requirement order (below -1, see join).
	next  int32
	head  bool       // position 0: serves the requested interface, no pass-through
	iface string     // the interface it serves its client over
	stand *Placement // anchor terminal: its recorded Offers stand in for the upstream
}

type walkState struct {
	// offers is the effective property set the position offers its
	// client. Shared and read-only.
	offers  property.Set
	node    int32
	verdict verdict
}

// beginPlan opens a planning pass: it resets the search statistics and
// snapshots the route counters, and — when this is the outermost call,
// or the route handle moved — starts an empty memo. Passes nest (every
// public entry point brackets itself); endPlan closes them.
func (pl *Planner) beginPlan() {
	routes := pl.pinnedRoutes
	if routes == nil {
		routes = pl.Net.Routes()
	}
	pl.beginPlanOn(routes)
}

func (pl *Planner) beginPlanOn(routes *netmodel.RouteCache) {
	pl.flushLookups()
	if pl.depth == 0 || pl.memo.routes != routes {
		pl.memo = newPlanMemo(pl.Net, routes)
	}
	pl.depth++
	pl.stats = Stats{}
	pl.hits0, pl.misses0 = routes.Counters()
}

// endPlan closes the pass beginPlan opened, folding the route-cache
// counter deltas of the pass into the statistics, and drops the memo
// with the outermost one.
func (pl *Planner) endPlan() {
	pl.flushLookups()
	h, m := pl.memo.routes.Counters()
	pl.stats.RouteCacheHits = int(h - pl.hits0)
	pl.stats.RouteCacheMisses = int(m - pl.misses0)
	pl.depth--
	if pl.depth == 0 {
		pl.memo = nil
	}
}

// flushLookups reports the memo's batched PathAt calls to its cache.
func (pl *Planner) flushLookups() {
	if mm := pl.memo; mm != nil && mm.lookups > 0 {
		mm.routes.AddLookups(mm.lookups)
		mm.lookups = 0
	}
}

func newPlanMemo(net *netmodel.Network, routes *netmodel.RouteCache) *planMemo {
	mm := &planMemo{
		routes: routes,
		nodes:  net.Nodes(),
		places: map[placeKey]placeResult{},
		evals:  map[evalKey]evalResult{},
		keyIDs: map[placeID]int32{},
		dupIDs: map[dupID]int32{},
		links:  map[*spec.Component]*linkTable{},
		walkID: make(map[walkKey]int32, 256),
	}
	mm.nodeIdx = make([]int32, len(mm.nodes))
	for i, n := range mm.nodes {
		idx, ok := routes.Index(n.ID)
		if !ok {
			idx = -1
		}
		mm.nodeIdx[i] = idx
	}
	return mm
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
	return mm.candAt(p, idx)
}

// candAt is candOf for a caller that knows the node's dense index.
func (mm *planMemo) candAt(p Placement, node int32) cand {
	if p.idKey == "" {
		p.sealKeys()
	}
	c := cand{Placement: p, node: node}
	pid := placeID{p.Component, p.Node, p.cfgFP}
	id, ok := mm.keyIDs[pid]
	if !ok {
		id = int32(len(mm.keyIDs))
		mm.keyIDs[pid] = id
	}
	c.key = id
	did := dupID{p.Component, p.cfgFP}
	id, ok = mm.dupIDs[did]
	if !ok {
		id = int32(len(mm.dupIDs))
		mm.dupIDs[did] = id
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
		return linkCost{hopMS: math.Inf(1)}
	}
	row := t.rows[from]
	if row == nil {
		row = make([]linkCost, len(t.rows))
		for i := range row {
			row[i].hopMS = math.NaN()
		}
		t.rows[from] = row
	}
	c := row[to]
	if c.hopMS != c.hopMS {
		c = linkCost{hopMS: math.Inf(1)}
		if path, _, ok := mm.path(from, to); ok {
			c = linkCost{hopMS: hopMS(t.comp.Behaviors, path), bneckMbps: path.BottleneckMbps}
		}
		row[to] = c
	}
	return c
}

// reuseNow returns the reuse-set derivations for the planner's current
// generation, rebuilding them when Existing has changed since.
func (pl *Planner) reuseNow() *reuseSet {
	mm := pl.memo
	if mm.reuse != nil && mm.reuse.gen == pl.gen {
		return mm.reuse
	}
	ru := &reuseSet{
		gen:      pl.gen,
		existing: make([]cand, len(pl.Existing)),
		byKey:    make(map[int32]int32, len(pl.Existing)),
		graphs:   map[string][]Graph{},
		lists:    map[*spec.Component]*candList{},
		heads:    map[*spec.Component][]cand{},
	}
	for i, e := range pl.Existing {
		e.Reused = true
		ru.existing[i] = mm.candOf(e)
		if _, dup := ru.byKey[ru.existing[i].key]; !dup {
			ru.byKey[ru.existing[i].key] = int32(i)
		}
	}
	mm.reuse = ru
	return ru
}

// reused substitutes the registered instance for a fresh candidate that
// names the same component, node and factored configuration.
func (ru *reuseSet) reused(c cand) cand {
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
func (pl *Planner) candidates(comp *spec.Component, req Request) *candList {
	ru := pl.reuseNow()
	if l := ru.lists[comp]; l != nil {
		return l
	}
	mm := pl.memo
	l := &candList{}
	if pl.isStatefulPrimary(comp) {
		for _, e := range ru.existing {
			if e.Component == comp.Name {
				l.cands = append(l.cands, e)
			}
		}
	}
	if len(l.cands) == 0 { // not a primary, or no instance of it yet
		l.cands = make([]cand, 0, len(mm.nodes))
		for i, node := range mm.nodes {
			p, ok := pl.placementForCached(comp, node.ID, req, 1)
			if !ok {
				l.rejected++
				continue
			}
			l.cands = append(l.cands, ru.reused(mm.candAt(p, mm.nodeIdx[i])))
		}
	}
	ru.lists[comp] = l
	return l
}

// headCandidate returns the single-candidate domain of a graph's head:
// the component at the client node, its conditions evaluated with the
// request user in scope. Empty when the conditions fail.
func (pl *Planner) headCandidate(comp *spec.Component, req Request) []cand {
	ru := pl.reuseNow()
	if h, ok := ru.heads[comp]; ok {
		return h
	}
	var h []cand
	if p, ok := pl.placementForCached(comp, req.ClientNode, req, 0); ok {
		h = []cand{ru.reused(pl.memo.candOf(p))}
	}
	ru.heads[comp] = h
	return h
}

// evalImplProps memoizes InterfaceSpec.EvalProps for the component's
// implementation of iface, scoped at the candidate's node and config.
func (pl *Planner) evalImplProps(comp *spec.Component, iface string, c *cand) (property.Set, error) {
	key := evalKey{comp, iface, false, c.key}
	if r, ok := pl.memo.evals[key]; ok {
		return r.props, r.err
	}
	impl, _ := comp.ImplementsInterface(iface)
	props, err := impl.EvalProps(pl.scopeAt(c.Placement))
	pl.memo.evals[key] = evalResult{props, err}
	return props, err
}

// evalReqProps memoizes the component's i-th required interface
// evaluated at the candidate.
func (pl *Planner) evalReqProps(comp *spec.Component, i int, c *cand) (property.Set, error) {
	key := evalKey{comp, comp.Requires[i].Name, true, c.key}
	if r, ok := pl.memo.evals[key]; ok {
		return r.props, r.err
	}
	props, err := comp.Requires[i].EvalProps(pl.scopeAt(c.Placement))
	pl.memo.evals[key] = evalResult{props, err}
	return props, err
}

// placementForCached memoizes placementFor. Callers still account
// rejections themselves, exactly as with the uncached call.
func (pl *Planner) placementForCached(comp *spec.Component, node netmodel.NodeID, req Request, pos int) (Placement, bool) {
	key := placeKey{comp, node, pos == 0}
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

// loopbackEnv is the property environment of intra-node linkage
// (components co-located on one node): confidential. Shared and
// read-only.
var loopbackEnv = property.Set{"Confidentiality": property.Bool(true)}

// linkageEnv returns the property environment of a linkage between two
// dense node indices: loopbackEnv for co-located components, otherwise
// the cached link aggregate. The returned set is shared and read-only.
func (pl *Planner) linkageEnv(from, to int32) (property.Set, bool) {
	path, env, ok := pl.memo.path(from, to)
	if ok && path.IsLoopback() {
		env = loopbackEnv
	}
	return env, ok
}

// join folds the walk states of a position's providers into the one
// value its walk key carries. One provider is its own state, so a
// single-provider position needs no lookup here.
func (mm *planMemo) join(kids []int32) int32 {
	if len(kids) == 0 {
		return -1
	}
	id := kids[0]
	for _, k := range kids[1:] {
		pair := [2]int32{id, k}
		j, ok := mm.joinID[pair]
		if !ok {
			if mm.joinID == nil {
				mm.joinID = map[[2]int32]int32{}
			}
			j = int32(-2 - len(mm.joinID))
			mm.joinID[pair] = j
		}
		id = j
	}
	return id
}

// walk returns the property-walk state of candidate c of component comp
// at the step key describes, given the states of its providers in
// requirement order (key.place and key.next are filled in here).
func (pl *Planner) walk(comp *spec.Component, c *cand, key walkKey, kids []int32, req Request) int32 {
	mm := pl.memo
	key.place, key.next = c.key, mm.join(kids)
	if id, ok := mm.walkID[key]; ok {
		return id
	}
	st := walkState{node: c.node}
	st.offers, st.verdict = pl.walkStep(comp, c, key, kids, req)
	id := int32(len(mm.walks))
	mm.walks = append(mm.walks, st)
	mm.walkID[key] = id
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
// walk stops at the first failure.
func (pl *Planner) walkStep(comp *spec.Component, c *cand, key walkKey, kids []int32, req Request) (property.Set, verdict) {
	iface := key.iface
	var received property.Set
	for k, id := range kids {
		nx := pl.memo.walks[id]
		env, ok := pl.linkageEnv(c.node, nx.node)
		if !ok {
			return nil, noPath
		}
		got, err := pl.Service.ModRules.ApplySetRO(nx.offers, env)
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
	if key.head {
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
	if key.stand != nil {
		return key.stand.Offers, valid
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
