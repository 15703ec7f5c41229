package planner

import (
	"fmt"
	"math"
	"sort"

	"partsvc/internal/solver"
)

// This file is the planner's search: planning mapped onto the generic
// constraint engine in internal/solver. Variables are linkage-graph
// positions, domains are candidate placements, binary constraints are
// route existence plus the adjacent duplicate rules, and the admissible
// bound is the optimistic flow-weighted hop cost (a per-chain DP
// relaxation computes subtree completions inside the engine).
// Everything the binary relation cannot express — property
// compatibility under modification rules, load aggregation,
// non-adjacent duplicates — is enforced by the exact Evaluate, so every
// result obeys the three validity conditions of Section 3.3 (the
// package's tests hold it placement-identical to the paper's exhaustive
// mapper).

// chainModel is the solver model of one linkage chain.
type chainModel struct {
	pl    *Planner
	chain Chain
	req   Request
	// cands holds the candidate placements per chain position; domain
	// values are indices into these slices.
	cands [][]Placement
	// wIn[v] is the optimistic in-flow at position v per unit client
	// rate: the product of upstream RRFs with every caching component
	// counted at full effect. The first-occurrence rule can only raise
	// RRFs toward 1, so wIn never exceeds the true flow — which makes
	// the flow-weighted hop bound admissible.
	wIn []float64
	// caching marks positions whose component has RRF < 1.
	caching []bool
}

func (m *chainModel) Vars() int            { return len(m.chain) }
func (m *chainModel) Parent(v int) int     { return v - 1 }
func (m *chainModel) DomainSize(v int) int { return len(m.cands[v]) }
func (m *chainModel) Bounded() bool        { return m.req.Objective != MaxCapacity }

// Compatible prunes pairs no complete assignment can redeem: linkages
// with no network route, linkages whose path cannot carry the requested
// rate, and adjacent duplicate instances or replicas (the full
// any-distance rules run in Evaluate).
func (m *chainModel) Compatible(v, pv, cv int) bool {
	a, b := m.cands[v-1][pv], m.cands[v][cv]
	path, ok := m.pl.routes.Path(a.Node, b.Node)
	if !ok {
		return false
	}
	// Bandwidth: wIn[v] never exceeds the true flow on this linkage, so
	// when even that optimistic demand saturates the path bottleneck,
	// capacityRPS caps below the requested rate for every completion and
	// validate rejects them all. Pruning here lets propagation prove
	// infeasibility (e.g. a partitioned client) without enumerating. A
	// non-positive bottleneck means an unconstrained link on the path,
	// which the validators skip — so skip the prune too.
	if m.req.RateRPS > 0 && path.BottleneckMbps > 0 && !path.IsLoopback() {
		bh := m.chain[v].comp.Behaviors
		bits := m.req.RateRPS * m.wIn[v] * float64(bh.RequestBytes+bh.ResponseBytes) * 8
		if bits > path.BottleneckMbps*1e6 {
			return false
		}
	}
	if a.Key() == b.Key() {
		return false
	}
	if m.caching[v] && a.Component == b.Component && a.configFP() == b.configFP() {
		return false
	}
	return true
}

// EdgeBound lower-bounds the primary-objective contribution of placing
// position v at candidate cv under parent candidate pv. MinCost is
// exact (one per new component); MinLatency is the optimistic
// flow-weighted hop cost plus the deployment penalty.
func (m *chainModel) EdgeBound(v, pv, cv int) float64 {
	p := m.cands[v][cv]
	switch m.req.Objective {
	case MinCost:
		if p.Reused {
			return 0
		}
		return 1
	case MaxCapacity:
		return 0
	}
	var pen float64
	if !p.Reused {
		pen = m.pl.DeployPenaltyMS
	}
	if v == 0 {
		return m.chain[0].comp.Behaviors.CPUMSPerRequest + pen
	}
	path, ok := m.pl.routes.Path(m.cands[v-1][pv].Node, p.Node)
	if !ok {
		return math.Inf(1)
	}
	hop := hopMS(m.chain[v].comp.Behaviors, path)
	if m.chain[v].isAnchor() {
		hop += m.chain[v].anchor.UpstreamMS
	}
	return pen + m.wIn[v]*hop
}

// Evaluate applies the full duplicate rules and the exact validity
// conditions (properties, load, metrics) via the chain validator.
func (m *chainModel) Evaluate(assign []int) (any, float64, bool) {
	places := make([]Placement, len(assign))
	for v, cv := range assign {
		places[v] = m.cands[v][cv]
	}
	for v := 1; v < len(places); v++ {
		id := places[v].Component + "{" + places[v].configFP() + "}"
		for j := 0; j < v; j++ {
			if places[v].Key() == places[j].Key() {
				return nil, 0, false
			}
			if m.caching[v] && id == places[j].Component+"{"+places[j].configFP()+"}" {
				return nil, 0, false
			}
		}
	}
	m.pl.stats.MappingsTried++
	dep := m.pl.validate(m.chain, places, m.req)
	if dep == nil {
		return nil, 0, false
	}
	return dep, m.pl.primaryOf(m.req.Objective, dep), true
}

func (m *chainModel) Better(a, b any) bool {
	return m.pl.better(m.req.Objective, a.(*Deployment), b.(*Deployment))
}

// primaryOf is the primary objective key of the deployment — the same
// quantity better compares first, shared with the solver's bound.
func (pl *Planner) primaryOf(o Objective, d *Deployment) float64 {
	switch o {
	case MinCost:
		return float64(d.NewComponents)
	case MaxCapacity:
		return -d.CapacityRPS
	default:
		return d.ExpectedLatencyMS + pl.DeployPenaltyMS*float64(d.NewComponents)
	}
}

// newChainModel builds the solver model of a chain: the head pinned at
// the client node, anchors and existing stateful primaries at their
// recorded nodes, everything else over the whole node table. ok=false
// when a position has no candidates at all.
func (pl *Planner) newChainModel(chain Chain, req Request) (*chainModel, bool) {
	if chain[0].isAnchor() {
		return nil, false
	}
	head, ok := pl.placementForCached(chain[0].comp, req.ClientNode, req, 0)
	if !ok {
		pl.stats.RejectedConditions++
		return nil, false
	}
	if anchor, found := pl.anchorFor(head); found {
		head = anchor
	}
	m := &chainModel{pl: pl, chain: chain, req: req}
	m.cands = make([][]Placement, len(chain))
	m.cands[0] = []Placement{head}
	m.caching = make([]bool, len(chain))
	m.wIn = make([]float64, len(chain))
	w := 1.0
	for i := range chain {
		m.caching[i] = chain[i].comp.Behaviors.EffectiveRRF() < 1
		m.wIn[i] = w
		w *= chain[i].comp.Behaviors.EffectiveRRF()
	}
	for pos := 1; pos < len(chain); pos++ {
		m.cands[pos] = pl.chainCandidates(chain, pos, req)
		if len(m.cands[pos]) == 0 {
			return nil, false
		}
	}
	return m, true
}

// chainCandidates lists the domain of one chain position: an anchor is
// pinned, a stateful primary with a deployed instance may only be
// reused (state lives in the primary; replication happens through data
// views), and everything else ranges over the nodes whose deployment
// conditions hold.
func (pl *Planner) chainCandidates(chain Chain, pos int, req Request) []Placement {
	elem := chain[pos]
	if elem.isAnchor() {
		p := *elem.anchor
		p.Reused = true
		return []Placement{p}
	}
	comp := elem.comp
	if pl.isStatefulPrimary(comp) && pl.hasAnyInstance(comp.Name) {
		var out []Placement
		for _, e := range pl.Existing {
			if e.Component != comp.Name {
				continue
			}
			p := e
			p.Reused = true
			out = append(out, p)
		}
		return out
	}
	var out []Placement
	for _, node := range pl.Net.Nodes() {
		p, ok := pl.placementForCached(comp, node.ID, req, pos)
		if !ok {
			pl.stats.RejectedConditions++
			continue
		}
		if anchor, found := pl.anchorFor(p); found {
			p = anchor
		}
		out = append(out, p)
	}
	return out
}

// treeModel is the solver model of one linkage tree (components with
// multiple required interfaces, which chains cannot express).
type treeModel struct {
	pl   *Planner
	flat []treeNode
	req  Request
	// cands, caching as in chainModel, indexed by pre-order position.
	cands   [][]Placement
	caching []bool
	// ifaces[v] is the interface linking v to its parent ("" for the
	// root, which serves the requested interface directly).
	ifaces []string
}

func (m *treeModel) Vars() int            { return len(m.flat) }
func (m *treeModel) Parent(v int) int     { return m.flat[v].parent }
func (m *treeModel) DomainSize(v int) int { return len(m.cands[v]) }
func (m *treeModel) Bounded() bool        { return m.req.Objective != MaxCapacity }

func (m *treeModel) Compatible(v, pv, cv int) bool {
	a, b := m.cands[m.flat[v].parent][pv], m.cands[v][cv]
	path, ok := m.pl.routes.Path(a.Node, b.Node)
	if !ok {
		return false
	}
	// Tree flow weights are exact, so an edge whose demand alone exceeds
	// the path bottleneck fails the tree validator's per-link bandwidth
	// aggregation in every completion — prune it during propagation (a
	// non-positive bottleneck marks an unconstrained link; skip as the
	// validator does).
	if m.req.RateRPS > 0 && path.BottleneckMbps > 0 && !path.IsLoopback() {
		bh := m.flat[v].tree.comp.Behaviors
		bits := m.req.RateRPS * m.flat[v].weight * float64(bh.RequestBytes+bh.ResponseBytes) * 8
		if bits > path.BottleneckMbps*1e6 {
			return false
		}
	}
	if a.Key() == b.Key() {
		return false
	}
	if m.caching[v] && a.Component == b.Component && a.configFP() == b.configFP() {
		return false
	}
	return true
}

// EdgeBound: tree flow weights are exact (no first-occurrence
// adjustment applies across branches), so the latency bound is the true
// per-edge contribution and the search rarely backtracks.
func (m *treeModel) EdgeBound(v, pv, cv int) float64 {
	p := m.cands[v][cv]
	switch m.req.Objective {
	case MinCost:
		if p.Reused {
			return 0
		}
		return 1
	case MaxCapacity:
		return 0
	}
	var pen float64
	if !p.Reused {
		pen = m.pl.DeployPenaltyMS
	}
	if v == 0 {
		return m.flat[0].tree.comp.Behaviors.CPUMSPerRequest + pen
	}
	path, ok := m.pl.routes.Path(m.cands[m.flat[v].parent][pv].Node, p.Node)
	if !ok {
		return math.Inf(1)
	}
	hop := hopMS(m.flat[v].tree.comp.Behaviors, path)
	if m.flat[v].tree.anchor != nil {
		hop += m.flat[v].tree.anchor.UpstreamMS
	}
	return pen + m.flat[v].weight*hop
}

func (m *treeModel) Evaluate(assign []int) (any, float64, bool) {
	places := make([]Placement, len(assign))
	for v, cv := range assign {
		places[v] = m.cands[v][cv]
	}
	// Duplicate rules along each ancestor path (per branch, as in the
	// backtracking tree mapper).
	for v := 1; v < len(places); v++ {
		id := places[v].Component + "{" + places[v].configFP() + "}"
		for a := m.flat[v].parent; a >= 0; a = m.flat[a].parent {
			if places[v].Key() == places[a].Key() {
				return nil, 0, false
			}
			if m.caching[v] && id == places[a].Component+"{"+places[a].configFP()+"}" {
				return nil, 0, false
			}
		}
	}
	m.pl.stats.MappingsTried++
	td := m.pl.validateTree(m.flat, places, m.req)
	if td == nil {
		return nil, 0, false
	}
	dep := m.toDeployment(td)
	return dep, m.pl.primaryOf(m.req.Objective, dep), true
}

func (m *treeModel) Better(a, b any) bool {
	return m.pl.better(m.req.Objective, a.(*Deployment), b.(*Deployment))
}

// toDeployment flattens a validated tree deployment into the common
// Deployment shape: placements in pre-order, one edge per parent link
// carrying its linking interface so the engine can wire multi-upstream
// components. CapacityRPS is +Inf by convention — the tree validator
// enforces load at the requested rate itself, and tree headroom beyond
// that is not modeled.
func (m *treeModel) toDeployment(td *TreeDeployment) *Deployment {
	dep := &Deployment{
		ExpectedLatencyMS: td.ExpectedLatencyMS,
		NewComponents:     td.NewComponents,
		CapacityRPS:       math.Inf(1),
	}
	for _, tp := range td.Placements {
		dep.Placements = append(dep.Placements, tp.Placement)
	}
	for i := 1; i < len(td.Placements); i++ {
		dep.Edges = append(dep.Edges, Edge{
			From:  td.Placements[i].Parent,
			To:    i,
			Path:  td.Placements[i].Path,
			Iface: m.ifaces[i],
		})
	}
	return dep
}

// newTreeModel builds the solver model of a linkage tree.
func (pl *Planner) newTreeModel(tree *Tree, req Request) (*treeModel, bool) {
	flat := flatten(tree)
	head, ok := pl.placementForCached(flat[0].tree.comp, req.ClientNode, req, 0)
	if !ok {
		pl.stats.RejectedConditions++
		return nil, false
	}
	if anchor, found := pl.anchorFor(head); found {
		head = anchor
	}
	m := &treeModel{pl: pl, flat: flat, req: req}
	m.cands = make([][]Placement, len(flat))
	m.cands[0] = []Placement{head}
	m.caching = make([]bool, len(flat))
	m.ifaces = make([]string, len(flat))
	childOrd := make([]int, len(flat))
	for v, tn := range flat {
		m.caching[v] = tn.tree.comp.Behaviors.EffectiveRRF() < 1
		if v == 0 {
			continue
		}
		p := tn.parent
		m.ifaces[v] = flat[p].tree.comp.Requires[childOrd[p]].Name
		childOrd[p]++
		m.cands[v] = pl.treeCandidates(tn, req, v)
		if len(m.cands[v]) == 0 {
			return nil, false
		}
	}
	return m, true
}

// treeCandidates lists the domain of one tree position.
func (pl *Planner) treeCandidates(tn treeNode, req Request, pos int) []Placement {
	if tn.tree.anchor != nil {
		p := *tn.tree.anchor
		p.Reused = true
		return []Placement{p}
	}
	comp := tn.tree.comp
	if pl.isStatefulPrimary(comp) && pl.hasAnyInstance(comp.Name) {
		var out []Placement
		for _, e := range pl.Existing {
			if e.Component != comp.Name {
				continue
			}
			p := e
			p.Reused = true
			out = append(out, p)
		}
		return out
	}
	var out []Placement
	for _, node := range pl.Net.Nodes() {
		p, ok := pl.placementForCached(comp, node.ID, req, pos)
		if !ok {
			pl.stats.RejectedConditions++
			continue
		}
		if anchor, found := pl.anchorFor(p); found {
			p = anchor
		}
		out = append(out, p)
	}
	return out
}

// Plan satisfies a client request: every valid linkage graph (chains
// and trees alike) becomes a constraint model, AC-3 propagation prunes
// candidate placements over the epoch-versioned route cache, and
// branch-and-bound finds the best deployment under the request's
// objective. A returned deployment always sustains the request rate
// (validity condition 3); an error carries the accumulated rejection
// statistics.
func (pl *Planner) Plan(req Request) (*Deployment, error) {
	pl.beginPlan()
	defer pl.endPlan()
	if _, ok := pl.Net.Node(req.ClientNode); !ok {
		return nil, fmt.Errorf("planner: client node %q not in network", req.ClientNode)
	}
	if _, ok := pl.Service.Interface(req.Interface); !ok {
		return nil, fmt.Errorf("planner: interface %q not in service %q", req.Interface, pl.Service.Name)
	}
	trees := pl.EnumerateTrees(req.Interface)
	pl.stats.ChainsEnumerated = len(trees)
	if len(trees) == 0 {
		return nil, fmt.Errorf("planner: no component graph implements %q", req.Interface)
	}
	// Solve small linkage graphs first and thread the best primary cost
	// seen so far into every later search as a seeded upper bound: cheap
	// direct chains establish an incumbent that prunes the much larger
	// searches of long (and often infeasible) graphs. better is a strict
	// total order, so neither the ordering nor the seeding changes which
	// deployment wins — only how much of the space is searched.
	order := make([]int, len(trees))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return trees[order[a]].size() < trees[order[b]].size() })
	ub := math.Inf(1)
	var best *Deployment
	for _, ti := range order {
		dep := pl.solveOne(trees[ti], req, &ub)
		if dep == nil {
			continue
		}
		if p := pl.primaryOf(req.Objective, dep); p < ub {
			ub = p
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
	// Rate admission is enforced here, whatever shape won: the tree
	// validator's load model must not leak an over-committed deployment.
	if req.RateRPS > 0 && best.CapacityRPS < req.RateRPS {
		return nil, fmt.Errorf("planner: best deployment sustains %.1f rps, below the request rate %.1f (load)",
			best.CapacityRPS, req.RateRPS)
	}
	return best, nil
}

// solveOne maps one linkage graph through the constraint engine. ub,
// when non-nil, seeds the search with the best primary cost of the
// sibling graphs solved so far.
func (pl *Planner) solveOne(tree *Tree, req Request, ub *float64) *Deployment {
	if tree.anchor != nil {
		return nil // a bare anchor is not a deployable head
	}
	if chain, ok := treeAsChain(tree); ok {
		return pl.solveChain(chain, req, ub)
	}
	m, ok := pl.newTreeModel(tree, req)
	if !ok {
		return nil
	}
	s := solver.Solver{Stats: pl.SolverStats, UpperBound: ub}
	sol, _, solved := s.Solve(m)
	if !solved {
		return nil
	}
	return sol.Result.(*Deployment)
}

func (pl *Planner) solveChain(chain Chain, req Request, ub *float64) *Deployment {
	m, ok := pl.newChainModel(chain, req)
	if !ok {
		return nil
	}
	s := solver.Solver{Stats: pl.SolverStats, UpperBound: ub}
	sol, _, solved := s.Solve(m)
	if !solved {
		return nil
	}
	return sol.Result.(*Deployment)
}

// treeAsChain converts a single-requirement tree to a chain, reporting
// false when the tree genuinely branches.
func treeAsChain(t *Tree) (Chain, bool) {
	var chain Chain
	for cur := t; ; {
		chain = append(chain, chainElem{comp: cur.comp, anchor: cur.anchor})
		switch len(cur.children) {
		case 0:
			return chain, true
		case 1:
			cur = cur.children[0]
		default:
			return nil, false
		}
	}
}
