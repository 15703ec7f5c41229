package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The reference search: the engine as it was before the edge relation
// was tabulated. It asks the model's Compatible and EdgeBound directly
// at every step, which is what the tabulated search must be
// indistinguishable from — same solution, same counters.

func refSolve(m Model, ub *float64) (Solution, RunStats, bool) {
	return refSearch(m, refFullDomains(m), ub)
}

func refRepair(m Model, prev []int, dirty []bool, ub *float64) (Solution, RunStats, bool) {
	doms := make([][]int, m.Vars())
	for v := range doms {
		if dirty[v] {
			doms[v] = refIdentity(m.DomainSize(v))
		} else {
			doms[v] = []int{prev[v]}
		}
	}
	return refSearch(m, doms, ub)
}

func refIdentity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func refFullDomains(m Model) [][]int {
	doms := make([][]int, m.Vars())
	for v := range doms {
		doms[v] = refIdentity(m.DomainSize(v))
	}
	return doms
}

// search propagates, computes subtree bounds, and runs branch-and-bound
// DFS in variable order.
func refSearch(m Model, doms [][]int, ub *float64) (Solution, RunStats, bool) {
	var run RunStats
	n := m.Vars()
	if n == 0 {
		return Solution{}, run, false
	}
	children := refChildLists(m)
	if !refPropagate(m, doms, children, &run) {
		return Solution{}, run, false
	}

	bounded := m.Bounded()
	var minComp [][]float64
	if bounded {
		minComp = refSubtreeBounds(m, doms, children, &run)
	}

	// hmin returns the least bound of v's subtree given parent value pv
	// (-1 for the root): min over v's surviving domain of edge bound
	// plus subtree completion. +Inf when no value is compatible.
	hmin := func(v, pv int) float64 {
		best := math.Inf(1)
		for di, cv := range doms[v] {
			if pv >= 0 {
				run.Propagations++
				if !m.Compatible(v, pv, cv) {
					continue
				}
			}
			if b := m.EdgeBound(v, pv, cv) + minComp[v][di]; b < best {
				best = b
			}
		}
		return best
	}

	assign := make([]int, n)
	var best *Solution
	limit := math.Inf(1)
	if ub != nil {
		limit = *ub
	}
	// g is the accumulated edge-bound cost of assigned variables; h the
	// frontier sum: for every unassigned variable whose parent is
	// assigned, the least completion of its whole subtree. contrib[v]
	// remembers v's frontier term so assigning v can replace it with
	// its own children's terms.
	contrib := make([]float64, n)
	var g, h float64
	if bounded {
		contrib[0] = hmin(0, -1)
		h = contrib[0]
	}

	var dfs func(v int) bool
	dfs = func(v int) bool {
		if v == n {
			run.Evaluations++
			result, primary, ok := m.Evaluate(assign)
			if !ok {
				run.Backtracks++
				return false
			}
			if best == nil || m.Better(result, best.Result) {
				best = &Solution{Assign: append([]int(nil), assign...), Result: result, Primary: primary}
			}
			return true
		}
		pv := -1
		if p := m.Parent(v); p >= 0 {
			pv = assign[p]
		}
		found := false
		for _, cv := range doms[v] {
			if pv >= 0 {
				run.Propagations++
				if !m.Compatible(v, pv, cv) {
					continue
				}
			}
			var g0, h0 float64
			if bounded {
				g0, h0 = g, h
				ng := g + m.EdgeBound(v, pv, cv)
				nh := h - contrib[v]
				dead := false
				for _, c := range children[v] {
					contrib[c] = hmin(c, cv)
					if math.IsInf(contrib[c], 1) {
						dead = true
						break
					}
					nh += contrib[c]
				}
				if dead {
					run.Backtracks++
					continue
				}
				// Strict-inequality pruning: assignments whose bound ties
				// the incumbent's (or the seeded) primary survive to the
				// exact tie-break.
				lim := limit
				if best != nil && best.Primary < lim {
					lim = best.Primary
				}
				if ng+nh > lim+eps {
					run.Backtracks++
					continue
				}
				g, h = ng, nh
			}
			assign[v] = cv
			if dfs(v + 1) {
				found = true
			} else {
				run.Backtracks++
			}
			if bounded {
				g, h = g0, h0
			}
		}
		return found
	}
	dfs(0)
	if best == nil {
		return Solution{}, run, false
	}
	return *best, run, true
}

// childLists inverts Parent into per-variable child index lists.
func refChildLists(m Model) [][]int {
	children := make([][]int, m.Vars())
	for v := 1; v < m.Vars(); v++ {
		p := m.Parent(v)
		children[p] = append(children[p], v)
	}
	return children
}

// subtreeBounds computes, bottom-up over the pruned domains, the DP
// relaxation minComp[v][di]: a lower bound on the cost of completing
// v's strict subtree when v takes its di-th surviving value. +Inf marks
// values with no compatible child completion (dead values — kept in the
// domain, the DFS skips them via the frontier bound).
func refSubtreeBounds(m Model, doms [][]int, children [][]int, run *RunStats) [][]float64 {
	n := m.Vars()
	minComp := make([][]float64, n)
	for v := n - 1; v >= 0; v-- {
		minComp[v] = make([]float64, len(doms[v]))
		for di, pv := range doms[v] {
			total := 0.0
			for _, c := range children[v] {
				best := math.Inf(1)
				for ci, cv := range doms[c] {
					run.Propagations++
					if !m.Compatible(c, pv, cv) {
						continue
					}
					if b := m.EdgeBound(c, pv, cv) + minComp[c][ci]; b < best {
						best = b
					}
				}
				total += best
				if math.IsInf(total, 1) {
					break
				}
			}
			minComp[v][di] = total
		}
	}
	return minComp
}

// propagate runs AC-3 over the tree's arcs: for every edge
// (parent, child) both directed arcs are revised until a fixpoint.
// Domains are pruned in place (order preserved — determinism rides on
// it). Returns false when any domain empties, i.e. the model (or the
// repair pinning) is infeasible. Every support test counts as one
// Propagation in run.
func refPropagate(m Model, doms [][]int, children [][]int, run *RunStats) bool {
	type arc struct{ x, y int } // revise x's domain against neighbor y
	var work []arc
	for v := 1; v < m.Vars(); v++ {
		p := m.Parent(v)
		work = append(work, arc{v, p}, arc{p, v})
	}
	enqueue := func(x, y int) {
		work = append(work, arc{x, y})
	}
	for len(work) > 0 {
		a := work[0]
		work = work[1:]
		if !refRevise(m, doms, a.x, a.y, run) {
			continue
		}
		if len(doms[a.x]) == 0 {
			return false
		}
		// x's domain shrank: re-revise every other neighbor against x.
		if p := m.Parent(a.x); p >= 0 && p != a.y {
			enqueue(p, a.x)
		}
		for _, c := range children[a.x] {
			if c != a.y {
				enqueue(c, a.x)
			}
		}
	}
	return true
}

// revise drops values of x with no support in y, returning whether the
// domain changed. x and y are parent and child of one tree edge (in
// either order); the constraint is always Compatible(child, pv, cv).
func refRevise(m Model, doms [][]int, x, y int, run *RunStats) bool {
	childVar := x
	if m.Parent(y) == x {
		childVar = y
	}
	kept := doms[x][:0]
	for _, xv := range doms[x] {
		supported := false
		for _, yv := range doms[y] {
			run.Propagations++
			pv, cv := xv, yv
			if childVar == x {
				pv, cv = yv, xv
			}
			if m.Compatible(childVar, pv, cv) {
				supported = true
				break
			}
		}
		if supported {
			kept = append(kept, xv)
		}
	}
	changed := len(kept) != len(doms[x])
	doms[x] = kept
	return changed
}

// randomTree is a random tree-shaped model: random parents, per-variable
// domain sizes, a seeded blocked relation, seeded edge costs whose sum
// is the exact cost, and an Evaluate that rejects a seeded share of
// leaves (constraints the binary relation cannot express). It counts
// the model calls so a test can hold the engine to "at most once".
type randomTree struct {
	parents []int
	sizes   []int
	blocked map[[3]int]bool
	cost    map[[3]int]float64
	reject  map[string]bool
	bounded bool

	compatCalls, boundCalls map[[3]int]int
}

func newRandomTree(rng *rand.Rand, bounded bool) *randomTree {
	n := 2 + rng.Intn(7)
	m := &randomTree{
		parents: make([]int, n), sizes: make([]int, n), bounded: bounded,
		blocked: map[[3]int]bool{}, cost: map[[3]int]float64{}, reject: map[string]bool{},
		compatCalls: map[[3]int]int{}, boundCalls: map[[3]int]int{},
	}
	m.parents[0] = -1
	for v := 0; v < n; v++ {
		if v > 0 {
			m.parents[v] = rng.Intn(v)
		}
		m.sizes[v] = 1 + rng.Intn(5)
	}
	for v := 0; v < n; v++ {
		pk := 1
		if v > 0 {
			pk = m.sizes[m.parents[v]]
		}
		for pv := 0; pv < pk; pv++ {
			for cv := 0; cv < m.sizes[v]; cv++ {
				key := [3]int{v, pv, cv}
				if v == 0 {
					key[1] = -1
				}
				// Small integer costs make ties, and ties are where the
				// strict-inequality pruning and Better earn their keep.
				m.cost[key] = float64(rng.Intn(6))
				if v > 0 && rng.Float64() < 0.25 {
					m.blocked[key] = true
				}
			}
		}
	}
	return m
}

func (m *randomTree) Vars() int            { return len(m.parents) }
func (m *randomTree) Parent(v int) int     { return m.parents[v] }
func (m *randomTree) DomainSize(v int) int { return m.sizes[v] }
func (m *randomTree) Bounded() bool        { return m.bounded }
func (m *randomTree) Compatible(v, pv, cv int) bool {
	m.compatCalls[[3]int{v, pv, cv}]++
	return !m.blocked[[3]int{v, pv, cv}]
}
func (m *randomTree) EdgeBound(v, pv, cv int) float64 {
	m.boundCalls[[3]int{v, pv, cv}]++
	return m.cost[[3]int{v, pv, cv}]
}
func (m *randomTree) Evaluate(assign []int) (any, float64, bool) {
	key := fmt.Sprint(assign)
	// A seventh of the leaves fail exact evaluation, decided by content.
	sum := 0
	for v, a := range assign {
		sum += (v + 3) * (a + 1)
	}
	if sum%7 == 0 {
		return nil, 0, false
	}
	total := 0.0
	for v, a := range assign {
		pv := -1
		if p := m.parents[v]; p >= 0 {
			pv = assign[p]
		}
		total += m.cost[[3]int{v, pv, a}]
	}
	return key, total, true
}
func (m *randomTree) Better(a, b any) bool { return a.(string) < b.(string) }

func (m *randomTree) resetCalls() {
	m.compatCalls, m.boundCalls = map[[3]int]int{}, map[[3]int]int{}
}

// TestTabulatedSearchMatchesReference: on random tree models — bounded
// and not, seeded with an upper bound and not, solved and repaired — the
// tabulated search returns the reference's solution and the reference's
// counters, and asks the model each question at most once. One Solver
// runs every case, so stale working arrays would show.
func TestTabulatedSearchMatchesReference(t *testing.T) {
	var s Solver
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newRandomTree(rng, seed%4 != 0)
		var ub *float64
		if seed%3 == 0 {
			u := float64(rng.Intn(12))
			ub = &u
		}
		s.UpperBound = ub

		check := func(kind string, got Solution, gotRun RunStats, gotOK bool, want Solution, wantRun RunStats, wantOK bool) {
			t.Helper()
			if gotOK != wantOK {
				t.Fatalf("seed %d %s: ok=%v, reference %v", seed, kind, gotOK, wantOK)
			}
			if gotRun != wantRun {
				t.Fatalf("seed %d %s: counters %+v, reference %+v", seed, kind, gotRun, wantRun)
			}
			if !gotOK {
				return
			}
			if fmt.Sprint(got.Assign) != fmt.Sprint(want.Assign) || got.Result != want.Result ||
				math.Abs(got.Primary-want.Primary) > 0 {
				t.Fatalf("seed %d %s: solution %+v, reference %+v", seed, kind, got, want)
			}
			for key, n := range m.compatCalls {
				if n > 1 {
					t.Fatalf("seed %d %s: Compatible%v asked %d times", seed, kind, key, n)
				}
			}
			for key, n := range m.boundCalls {
				if n > 1 {
					t.Fatalf("seed %d %s: EdgeBound%v asked %d times", seed, kind, key, n)
				}
			}
		}

		want, wantRun, wantOK := refSolve(m, ub)
		m.resetCalls()
		got, gotRun, gotOK := s.Solve(m)
		check("solve", got, gotRun, gotOK, want, wantRun, wantOK)
		if !gotOK {
			continue
		}

		// Repair around a random dirty set, pinned to the solution.
		dirty := make([]bool, m.Vars())
		for v := range dirty {
			dirty[v] = rng.Float64() < 0.3
		}
		wantR, wantRunR, wantOKR := refRepair(m, got.Assign, dirty, ub)
		m.resetCalls()
		gotR, gotRunR, gotOKR := s.Repair(m, got.Assign, dirty)
		check("repair", gotR, gotRunR, gotOKR, wantR, wantRunR, wantOKR)
	}
}
