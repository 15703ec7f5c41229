// Package solver is a constraint-solving planner core: placement as a
// constraint-satisfaction/optimization problem over tree-structured
// variable graphs, in the style of the constraint-based deployment work
// the paper's bibliography points at (McCarthy/Dearle/Kirby). The
// engine is deliberately generic — variables, integer domains, a binary
// compatibility relation along tree edges, an admissible additive cost
// bound, and an exact evaluator — so the planner adapter in
// internal/planner owns every domain-specific rule (properties, trust,
// bandwidth, routing) while this package owns search mechanics:
//
//   - the binary relation of every tree edge is tabulated: the model's
//     Compatible and EdgeBound are asked at most once per
//     (variable, parent value, child value) and every later consultation
//     reads the table (table.go);
//   - AC-3 style constraint propagation prunes domains before search;
//     every support test is counted as one Propagation, the engine's
//     unit of work, whether the table or the model answered it;
//   - branch-and-bound DFS with an incrementally maintained frontier
//     bound (per-subtree DP relaxations computed bottom-up) prunes
//     assignments that cannot beat the incumbent;
//   - Repair re-solves with every clean variable pinned to its previous
//     value, so a local change re-propagates only the invalidated
//     domains — O(affected) work instead of O(topology) — and reports
//     infeasibility so the caller can fall back to a fresh solve.
package solver

import "math"

// Model is a tree-structured constraint optimization problem. Variables
// are indexed 0..Vars()-1 in pre-order: Parent(0) == -1 and
// Parent(v) < v for every other v, so assigning variables in index
// order always assigns a parent before its children. Values are indices
// into each variable's private candidate list (the adapter owns the
// actual candidates). Compatible and EdgeBound must be pure for the
// duration of a Solve or Repair call: the engine asks each question
// once and remembers the answer.
type Model interface {
	// Vars returns the variable count.
	Vars() int
	// Parent returns v's parent variable (-1 for the root).
	Parent(v int) int
	// DomainSize returns the number of candidate values of v.
	DomainSize(v int) int
	// Compatible reports whether child value cv of variable v is
	// compatible with parent value pv across the edge (Parent(v), v).
	// It must be sound: false only when no complete assignment
	// extending (pv, cv) can be valid. Never called for the root.
	Compatible(v, pv, cv int) bool
	// Bounded reports whether EdgeBound yields admissible additive
	// bounds for the primary objective. When false the engine skips
	// bound pruning and enumerates every propagation-surviving
	// assignment (exact evaluation still decides).
	Bounded() bool
	// EdgeBound returns an admissible (never over-estimating) lower
	// bound on the primary-cost contribution of assigning value cv to v
	// under parent value pv. For the root, pv is -1 and the bound
	// covers the root variable's own contribution. For other variables
	// it is asked only about compatible pairs.
	EdgeBound(v, pv, cv int) float64
	// Evaluate checks a complete assignment exactly (constraints the
	// binary relation cannot express live here) and returns an opaque
	// result plus its primary cost. ok=false rejects the assignment.
	// assign is the engine's buffer: copy what must outlive the call.
	Evaluate(assign []int) (result any, primary float64, ok bool)
	// Better reports whether evaluated result a should replace b,
	// providing the full deterministic tie-break order.
	Better(a, b any) bool
}

// Solution is a complete, evaluated assignment.
type Solution struct {
	// Assign maps each variable to the index of its chosen value.
	Assign []int
	// Result is the model's Evaluate output for Assign.
	Result any
	// Primary is the primary objective value of Result.
	Primary float64
}

// RunStats are the work counters of one Solve/Repair call.
type RunStats struct {
	// Propagations counts binary support tests — every consultation of
	// the edge relation for one (parent value, child value) pair, across
	// AC-3, bound maintenance and the descent. The relation is
	// tabulated, so the model's Compatible runs at most once per pair;
	// the count is of tests, not of model calls.
	Propagations uint64
	// Backtracks counts abandoned partial assignments (bound prunes,
	// dead values, rejected evaluations).
	Backtracks uint64
	// Evaluations counts exact whole-assignment evaluations.
	Evaluations uint64
}

const eps = 1e-9

// Solver runs searches and accumulates counters into Stats (when set).
// A Solver is not safe for concurrent use; share the Stats instead. It
// keeps its working arrays between calls, so solving many models
// through one Solver allocates them once.
type Solver struct {
	Stats *Stats
	// UpperBound, when non-nil, is an externally known upper bound on
	// the primary cost (e.g. the best solution of a sibling model when a
	// caller solves several models for the same request). Assignments
	// whose admissible bound exceeds it are pruned even before this
	// model finds its own incumbent; assignments within eps of it
	// survive to the exact tie-break, so seeding never changes which
	// solution wins — only how much of the space is searched.
	UpperBound *float64

	sc search
}

// Solve finds the best complete assignment of m, or ok=false when the
// model is infeasible.
func (s *Solver) Solve(m Model) (Solution, RunStats, bool) {
	sol, run, ok := s.run(m, nil, nil)
	if s.Stats != nil {
		s.Stats.Solves.Add(1)
		s.Stats.addRun(run)
	}
	return sol, run, ok
}

// Repair re-solves m keeping every clean variable pinned to its
// previous value: dirty[v] selects the variables whose domains are
// re-opened, prev[v] supplies the pinned value index for clean ones.
// ok=false means repair is infeasible under the pins (empty domain
// after propagation, or no valid complete assignment) and the caller
// should fall back to a fresh solve.
func (s *Solver) Repair(m Model, prev []int, dirty []bool) (Solution, RunStats, bool) {
	sol, run, ok := s.run(m, prev, dirty)
	if s.Stats != nil {
		s.Stats.Repairs.Add(1)
		if !ok {
			s.Stats.RepairFallbacks.Add(1)
		}
		s.Stats.addRun(run)
	}
	return sol, run, ok
}

// run propagates, computes subtree bounds, and runs branch-and-bound
// DFS in variable order. A nil dirty opens every domain in full.
func (s *Solver) run(m Model, prev []int, dirty []bool) (Solution, RunStats, bool) {
	sc := &s.sc
	if !sc.init(m, prev, dirty) {
		return Solution{}, RunStats{}, false
	}
	defer sc.release()
	if !sc.propagate() {
		return Solution{}, sc.run, false
	}
	sc.limit = math.Inf(1)
	if s.UpperBound != nil {
		sc.limit = *s.UpperBound
	}
	if sc.bounded {
		sc.subtreeBounds()
		sc.contrib[0] = sc.hmin(0, -1)
		sc.h = sc.contrib[0]
	}
	sc.dfs(0)
	if !sc.found {
		return Solution{}, sc.run, false
	}
	return sc.best, sc.run, true
}

// hmin returns the least bound of v's subtree given parent slot ps (-1
// for the root): min over v's surviving domain of edge bound plus
// subtree completion. +Inf when no value is compatible.
func (sc *search) hmin(v, ps int) float64 {
	best := math.Inf(1)
	for _, cs := range sc.dom(v) {
		var b float64
		if ps >= 0 {
			sc.run.Propagations++
			e := sc.edge(v, ps, cs)
			if !sc.compatible(v, e, ps, cs) {
				continue
			}
			b = sc.edgeBound(v, e, ps, cs)
		} else {
			b = sc.rootBound[cs]
		}
		if b += sc.comp[sc.voff[v]+cs]; b < best {
			best = b
		}
	}
	return best
}

// dfs assigns variable v and everything after it. g is the accumulated
// edge-bound cost of assigned variables; h the frontier sum: for every
// unassigned variable whose parent is assigned, the least completion of
// its whole subtree. contrib[v] remembers v's frontier term so
// assigning v can replace it with its own children's terms.
func (sc *search) dfs(v int) bool {
	if v == sc.n {
		sc.run.Evaluations++
		result, primary, ok := sc.m.Evaluate(sc.assign)
		if !ok {
			sc.run.Backtracks++
			return false
		}
		if !sc.found || sc.m.Better(result, sc.best.Result) {
			if !sc.found {
				sc.best.Assign = make([]int, sc.n)
				sc.found = true
			}
			copy(sc.best.Assign, sc.assign)
			sc.best.Result, sc.best.Primary = result, primary
		}
		return true
	}
	ps := -1
	if p := sc.parent[v]; p >= 0 {
		ps = sc.cur[p]
	}
	found := false
	for _, cs := range sc.dom(v) {
		var e int
		if ps >= 0 {
			sc.run.Propagations++
			e = sc.edge(v, ps, cs)
			if !sc.compatible(v, e, ps, cs) {
				continue
			}
		}
		var g0, h0 float64
		if sc.bounded {
			g0, h0 = sc.g, sc.h
			ng := sc.g
			if ps >= 0 {
				ng += sc.edgeBound(v, e, ps, cs)
			} else {
				ng += sc.rootBound[cs]
			}
			nh := sc.h - sc.contrib[v]
			dead := false
			for _, c := range sc.children(v) {
				sc.contrib[c] = sc.hmin(c, cs)
				if math.IsInf(sc.contrib[c], 1) {
					dead = true
					break
				}
				nh += sc.contrib[c]
			}
			if dead {
				sc.run.Backtracks++
				continue
			}
			// Strict-inequality pruning: assignments whose bound ties
			// the incumbent's (or the seeded) primary survive to the
			// exact tie-break.
			lim := sc.limit
			if sc.found && sc.best.Primary < lim {
				lim = sc.best.Primary
			}
			if ng+nh > lim+eps {
				sc.run.Backtracks++
				continue
			}
			sc.g, sc.h = ng, nh
		}
		sc.cur[v] = cs
		sc.assign[v] = sc.value(v, cs)
		if sc.dfs(v + 1) {
			found = true
		} else {
			sc.run.Backtracks++
		}
		if sc.bounded {
			sc.g, sc.h = g0, h0
		}
	}
	return found
}

// subtreeBounds computes, bottom-up over the pruned domains, the DP
// relaxation comp[voff[v]+slot]: a lower bound on the cost of
// completing v's strict subtree when v takes that value. +Inf marks
// values with no compatible child completion (dead values — kept in the
// domain, the DFS skips them via the frontier bound). It also records
// the root's own bounds.
func (sc *search) subtreeBounds() {
	for v := sc.n - 1; v >= 0; v-- {
		for _, ps := range sc.dom(v) {
			total := 0.0
			for _, c := range sc.children(v) {
				best := math.Inf(1)
				for _, cs := range sc.dom(c) {
					sc.run.Propagations++
					e := sc.edge(c, ps, cs)
					if !sc.compatible(c, e, ps, cs) {
						continue
					}
					if b := sc.edgeBound(c, e, ps, cs) + sc.comp[sc.voff[c]+cs]; b < best {
						best = b
					}
				}
				total += best
				if math.IsInf(total, 1) {
					break
				}
			}
			sc.comp[sc.voff[v]+ps] = total
		}
	}
	for _, cs := range sc.dom(0) {
		sc.rootBound[cs] = sc.m.EdgeBound(0, -1, sc.value(0, cs))
	}
}
