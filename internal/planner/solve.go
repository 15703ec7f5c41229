package planner

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"partsvc/internal/spec"
)

// This file is the planner's search: planning mapped onto the generic
// constraint engine in internal/solver. Variables are linkage-graph
// positions, domains are candidate placements, binary constraints are
// route existence plus the adjacent duplicate rules, and the admissible
// bound is the optimistic flow-weighted hop cost (a per-graph DP
// relaxation computes subtree completions inside the engine).
// Everything the binary relation cannot express — property
// compatibility under modification rules, load aggregation,
// non-adjacent duplicates — is enforced by the exact Evaluate, so every
// result obeys the three validity conditions of Section 3.3 (the
// package's tests hold it placement-identical to the paper's exhaustive
// mapper).

// graphModel is the solver model of one linkage graph.
type graphModel struct {
	pl  *Planner
	mm  *planMemo
	req Request
	g   Graph
	pos []position
}

// position is what the search adds to graph position g[v]: its domain
// and the weights of its linkage.
type position struct {
	// weight is the in-flow at the position per unit client rate, taken
	// optimistically: the product of the RRFs in front of it with every
	// caching component counted at full effect. The first-occurrence
	// rule can only raise RRFs toward 1, so it never exceeds the true
	// flow — which makes the flow-weighted hop bound admissible.
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
func (m *graphModel) Parent(v int) int     { return m.g[v].parent }
func (m *graphModel) DomainSize(v int) int { return len(m.pos[v].cands) }
func (m *graphModel) Bounded() bool        { return m.req.Objective != MaxCapacity }

// add appends the next graph position with its domain. It reports false
// when the domain is empty.
func (m *graphModel) add(weight float64, cands []cand) bool {
	comp := m.g[len(m.pos)].comp
	bh := comp.Behaviors
	m.pos = append(m.pos, position{
		weight:  weight,
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
func (m *graphModel) domainOf(comp *spec.Component, anchor *cand) []cand {
	if anchor != nil {
		m.mm.pins = append(m.mm.pins, *anchor)
		return m.mm.pins[len(m.mm.pins)-1:]
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
	a, b := &m.pos[m.g[v].parent].cands[pv], &p.cands[cv]
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
		return m.g[0].comp.Behaviors.CPUMSPerRequest + pen
	}
	hop := m.mm.link(p.links, m.pos[m.g[v].parent].cands[pv].node, c.node).hopMS
	if a := m.g[v].anchor; a != nil {
		hop += a.UpstreamMS
	}
	return pen + p.weight*hop
}

func (m *graphModel) Better(a, b any) bool {
	return m.pl.better(m.req.Objective, a.(*Deployment), b.(*Deployment))
}

// assigned resolves a complete assignment to its candidates and applies
// the no-loop and no-duplicate-replica rules along each path from the
// head (for a chain, every earlier position). nil rejects the
// assignment.
func (m *graphModel) assigned(assign []int) []*cand {
	cs := slices.Grow(m.mm.assigned[:0], len(assign))[:len(assign)]
	m.mm.assigned = cs
	for v, cv := range assign {
		cs[v] = &m.pos[v].cands[cv]
	}
	for v := 1; v < len(cs); v++ {
		for a := m.g[v].parent; a >= 0; a = m.g[a].parent {
			if cs[v].key == cs[a].key || (m.pos[v].caching && cs[v].dup == cs[a].dup) {
				return nil
			}
		}
	}
	return cs
}

// Evaluate applies the full duplicate rules and the exact validity
// conditions (properties, load, metrics) via the validator.
func (m *graphModel) Evaluate(assign []int) (any, float64, bool) {
	cs := m.assigned(assign)
	if cs == nil {
		return nil, 0, false
	}
	m.pl.stats.MappingsTried++
	dep, v := m.pl.validate(m.g, cs, m.req)
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

// newModel builds the solver model of a linkage graph: the head pinned
// at the client node, anchors at their recorded nodes, existing stateful
// primaries at theirs, everything else over the whole node table.
// ok=false when a position has no candidates at all (or the head is a
// bare anchor, which is not deployable). The model lives in the memo and
// is overwritten by the next one: a call solves its graphs one at a
// time.
func (pl *Planner) newModel(g Graph, req Request) (*graphModel, bool) {
	if g[0].anchor != nil {
		return nil, false
	}
	head := pl.headCandidate(g[0].comp, req)
	if len(head) == 0 {
		pl.stats.RejectedConditions++
		return nil, false
	}
	m := &pl.memo.model
	*m = graphModel{pl: pl, mm: pl.memo, req: req, g: g, pos: m.pos[:0]}
	pl.memo.pins = pl.memo.pins[:0]
	m.add(1, head)
	for i := 1; i < len(g); i++ {
		p := g[i].parent
		w := m.pos[p].weight * g[p].comp.Behaviors.EffectiveRRF()
		if !m.add(w, m.domainOf(g[i].comp, g[i].anchor)) {
			return nil, false
		}
	}
	return m, true
}

// Plan satisfies a client request: every valid linkage graph becomes a
// constraint model, AC-3 propagation prunes
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
	graphs := pl.enumerate(req.Interface)
	pl.stats.ChainsEnumerated = len(graphs)
	if len(graphs) == 0 {
		return nil, fmt.Errorf("planner: no component graph implements %q", req.Interface)
	}
	// Solve small linkage graphs first and thread the best primary cost
	// seen so far into every later search as a seeded upper bound: cheap
	// direct chains establish an incumbent that prunes the much larger
	// searches of long (and often infeasible) graphs. better is a strict
	// total order, so neither the ordering nor the seeding changes which
	// deployment wins — only how much of the space is searched.
	order := make([]int, len(graphs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return len(graphs[order[a]]) < len(graphs[order[b]]) })
	ub := math.Inf(1)
	var best *Deployment
	for _, gi := range order {
		dep := pl.solveOne(graphs[gi], req, &ub)
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
	return best, nil
}

// solveOne maps one linkage graph through the call's constraint engine.
// ub seeds the search with the best primary cost of the sibling graphs
// solved so far.
func (pl *Planner) solveOne(g Graph, req Request, ub *float64) *Deployment {
	m, ok := pl.newModel(g, req)
	if !ok {
		return nil
	}
	s := &pl.memo.engine
	s.Stats, s.UpperBound = pl.SolverStats, ub
	sol, _, solved := s.Solve(m)
	if !solved {
		return nil
	}
	return sol.Result.(*Deployment)
}
