package planner

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"partsvc/internal/solver"
	"partsvc/internal/spec"
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

// graphModel is the solver model of one linkage graph, less the exact
// evaluation: chainModel and treeModel add their validator.
type graphModel struct {
	pl  *Planner
	mm  *planMemo
	req Request
	pos []position
}

// position is one variable of the model: a graph position and its
// domain.
type position struct {
	comp   *spec.Component
	anchor *Placement // non-nil: existing-instance terminal
	parent int        // -1 for the head
	// weight is the in-flow at the position per unit client rate. For a
	// chain it is optimistic: the product of upstream RRFs with every
	// caching component counted at full effect. The first-occurrence
	// rule can only raise RRFs toward 1, so it never exceeds the true
	// flow — which makes the flow-weighted hop bound admissible. Tree
	// weights are exact (no first-occurrence adjustment applies across
	// branches), so there the bound is the true per-edge contribution.
	weight float64
	// bits is the bandwidth the linkage to the parent needs at the
	// request rate and that weight.
	bits float64
	// caching marks a component with RRF < 1.
	caching bool
	// cands is the domain; values are indices into it. The list is
	// shared with every other model of the call that places the same
	// component.
	cands []cand
	links *linkTable
}

func (m *graphModel) Vars() int            { return len(m.pos) }
func (m *graphModel) Parent(v int) int     { return m.pos[v].parent }
func (m *graphModel) DomainSize(v int) int { return len(m.pos[v].cands) }
func (m *graphModel) Bounded() bool        { return m.req.Objective != MaxCapacity }

// add appends a position. It reports false when the domain is empty.
func (m *graphModel) add(comp *spec.Component, anchor *Placement, parent int, weight float64, cands []cand) bool {
	bh := comp.Behaviors
	m.pos = append(m.pos, position{
		comp: comp, anchor: anchor, parent: parent, weight: weight,
		bits:    m.req.RateRPS * weight * float64(bh.RequestBytes+bh.ResponseBytes) * 8,
		caching: bh.EffectiveRRF() < 1,
		cands:   cands,
		links:   m.mm.linksOf(comp),
	})
	return len(cands) > 0
}

// domainOf returns the domain of a non-head position: an anchor is
// pinned, anything else ranges over the component's candidate list
// (whose condition rejections are accounted once per use).
func (m *graphModel) domainOf(comp *spec.Component, pinned []cand) []cand {
	if pinned != nil {
		return pinned
	}
	l := m.pl.candidates(comp, m.req)
	m.pl.stats.RejectedConditions += l.rejected
	return l.cands
}

// Compatible prunes pairs no complete assignment can redeem: linkages
// with no network route, linkages whose path cannot carry the requested
// rate, and adjacent duplicate instances or replicas (the full
// any-distance rules run in Evaluate).
func (m *graphModel) Compatible(v, pv, cv int) bool {
	p := &m.pos[v]
	a, b := &m.pos[p.parent].cands[pv], &p.cands[cv]
	lc := m.mm.link(p.links, a.node, b.node)
	if math.IsInf(lc.hopMS, 1) {
		return false
	}
	// Bandwidth: the position's weight never exceeds the true flow on
	// this linkage, so when even that demand saturates the path
	// bottleneck, capacity caps below the requested rate for every
	// completion and the validator rejects them all. Pruning here lets
	// propagation prove infeasibility (e.g. a partitioned client) without
	// enumerating. A non-positive bottleneck means an unconstrained link
	// on the path, which the validators skip — so skip the prune too (a
	// loopback's bottleneck is +Inf and never binds).
	if m.req.RateRPS > 0 && lc.bneckMbps > 0 && p.bits > lc.bneckMbps*1e6 {
		return false
	}
	if a.key == b.key {
		return false
	}
	return !p.caching || a.dup != b.dup
}

// EdgeBound lower-bounds the primary-objective contribution of placing
// position v at candidate cv under parent candidate pv. MinCost is
// exact (one per new component); MinLatency is the flow-weighted hop
// cost plus the deployment penalty.
func (m *graphModel) EdgeBound(v, pv, cv int) float64 {
	p := &m.pos[v]
	c := &p.cands[cv]
	switch m.req.Objective {
	case MinCost:
		if c.Reused {
			return 0
		}
		return 1
	case MaxCapacity:
		return 0
	}
	var pen float64
	if !c.Reused {
		pen = m.pl.DeployPenaltyMS
	}
	if v == 0 {
		return p.comp.Behaviors.CPUMSPerRequest + pen
	}
	hop := m.mm.link(p.links, m.pos[p.parent].cands[pv].node, c.node).hopMS
	if p.anchor != nil {
		hop += p.anchor.UpstreamMS
	}
	return pen + p.weight*hop
}

func (m *graphModel) Better(a, b any) bool {
	return m.pl.better(m.req.Objective, a.(*Deployment), b.(*Deployment))
}

// assigned resolves a complete assignment to its candidates and applies
// the no-loop and no-duplicate-replica rules along each ancestor path
// (for a chain, every earlier position). nil rejects the assignment.
func (m *graphModel) assigned(assign []int) []*cand {
	cs := slices.Grow(m.mm.assigned[:0], len(assign))[:len(assign)]
	m.mm.assigned = cs
	for v, cv := range assign {
		cs[v] = &m.pos[v].cands[cv]
	}
	for v := 1; v < len(cs); v++ {
		for a := m.pos[v].parent; a >= 0; a = m.pos[a].parent {
			if cs[v].key == cs[a].key || (m.pos[v].caching && cs[v].dup == cs[a].dup) {
				return nil
			}
		}
	}
	return cs
}

// chainModel is the solver model of one linkage chain.
type chainModel struct {
	graphModel
	chain Chain
}

// Evaluate applies the full duplicate rules and the exact validity
// conditions (properties, load, metrics) via the chain validator.
func (m *chainModel) Evaluate(assign []int) (any, float64, bool) {
	cs := m.assigned(assign)
	if cs == nil {
		return nil, 0, false
	}
	m.pl.stats.MappingsTried++
	dep, v := m.pl.validateChain(m.chain, cs, m.req)
	if v != valid {
		m.pl.reject(v)
		return nil, 0, false
	}
	return dep, m.pl.primaryOf(m.req.Objective, dep), true
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
// the client node, anchors at their recorded nodes, existing stateful
// primaries at theirs, everything else over the whole node table.
// ok=false when a position has no candidates at all. The model lives in
// the memo and is overwritten by the next one: a call solves its graphs
// one at a time.
func (pl *Planner) newChainModel(chain Chain, req Request) (*chainModel, bool) {
	if chain[0].isAnchor() {
		return nil, false
	}
	head := pl.headCandidate(chain[0].comp, req)
	if len(head) == 0 {
		pl.stats.RejectedConditions++
		return nil, false
	}
	m := &pl.memo.chain
	*m = chainModel{chain: chain, graphModel: graphModel{pl: pl, mm: pl.memo, req: req, pos: m.pos[:0]}}
	m.add(chain[0].comp, nil, -1, 1, head)
	w := chain[0].comp.Behaviors.EffectiveRRF()
	for i := 1; i < len(chain); i++ {
		e := &chain[i]
		if !m.add(e.comp, e.anchor, i-1, w, m.domainOf(e.comp, e.pinned)) {
			return nil, false
		}
		w *= e.comp.Behaviors.EffectiveRRF()
	}
	return m, true
}

// treeModel is the solver model of one linkage tree (components with
// multiple required interfaces, which chains cannot express).
type treeModel struct {
	graphModel
	flat []treeNode
	// ifaces[v] is the interface linking v to its parent ("" for the
	// root, which serves the requested interface directly).
	ifaces []string
}

func (m *treeModel) Evaluate(assign []int) (any, float64, bool) {
	cs := m.assigned(assign)
	if cs == nil {
		return nil, 0, false
	}
	m.pl.stats.MappingsTried++
	td := m.pl.validateTree(m.flat, cs, m.req)
	if td == nil {
		return nil, 0, false
	}
	dep := m.toDeployment(td)
	return dep, m.pl.primaryOf(m.req.Objective, dep), true
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
	head := pl.headCandidate(flat[0].tree.comp, req)
	if len(head) == 0 {
		pl.stats.RejectedConditions++
		return nil, false
	}
	m := &treeModel{flat: flat, ifaces: make([]string, len(flat))}
	m.graphModel = graphModel{pl: pl, mm: pl.memo, req: req, pos: make([]position, 0, len(flat))}
	m.add(flat[0].tree.comp, nil, -1, 1, head)
	childOrd := make([]int, len(flat))
	for v := 1; v < len(flat); v++ {
		tn := flat[v]
		p := tn.parent
		m.ifaces[v] = flat[p].tree.comp.Requires[childOrd[p]].Name
		childOrd[p]++
		t := tn.tree
		if !m.add(t.comp, t.anchor, p, tn.weight, m.domainOf(t.comp, t.pinned)) {
			return nil, false
		}
	}
	return m, true
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
	trees := pl.enumerateTrees(req.Interface)
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
	sizes := make([]int, len(trees))
	for i := range order {
		order[i] = i
		sizes[i] = trees[i].size()
	}
	sort.SliceStable(order, func(a, b int) bool { return sizes[order[a]] < sizes[order[b]] })
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

// solveOne maps one linkage graph through the call's constraint engine.
// ub seeds the search with the best primary cost of the sibling graphs
// solved so far.
func (pl *Planner) solveOne(tree *Tree, req Request, ub *float64) *Deployment {
	if tree.anchor != nil {
		return nil // a bare anchor is not a deployable head
	}
	var m solver.Model
	if chain, ok := treeAsChain(tree, pl.memo.chainBuf[:0]); ok {
		pl.memo.chainBuf = chain
		cm, ok := pl.newChainModel(chain, req)
		if !ok {
			return nil
		}
		m = cm
	} else {
		tm, ok := pl.newTreeModel(tree, req)
		if !ok {
			return nil
		}
		m = tm
	}
	s := &pl.memo.engine
	s.Stats, s.UpperBound = pl.SolverStats, ub
	sol, _, solved := s.Solve(m)
	if !solved {
		return nil
	}
	return sol.Result.(*Deployment)
}

// treeAsChain converts a single-requirement tree to a chain appended to
// buf, reporting false when the tree genuinely branches.
func treeAsChain(t *Tree, buf Chain) (Chain, bool) {
	for cur := t; ; cur = cur.children[0] {
		buf = append(buf, chainElem{comp: cur.comp, anchor: cur.anchor, pinned: cur.pinned})
		switch len(cur.children) {
		case 0:
			return buf, true
		case 1:
		default:
			return nil, false
		}
	}
}
