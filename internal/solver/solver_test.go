package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// gridModel is a synthetic chain COP: vars 0..n-1 in a line, domains of
// size k, edge cost |pv-cv| plus a per-value cost table, a parity
// constraint knocking out some pairs, and exact evaluation equal to the
// bound sums (so the bound is tight and search must still be exact).
type gridModel struct {
	n, k    int
	cost    [][]float64 // cost[v][cv]
	blocked map[[3]int]bool
}

func newGridModel(n, k int, seed int64) *gridModel {
	rng := rand.New(rand.NewSource(seed))
	m := &gridModel{n: n, k: k, blocked: map[[3]int]bool{}}
	m.cost = make([][]float64, n)
	for v := 0; v < n; v++ {
		m.cost[v] = make([]float64, k)
		for cv := 0; cv < k; cv++ {
			m.cost[v][cv] = float64(rng.Intn(50))
		}
	}
	for v := 1; v < n; v++ {
		for pv := 0; pv < k; pv++ {
			for cv := 0; cv < k; cv++ {
				if rng.Float64() < 0.2 {
					m.blocked[[3]int{v, pv, cv}] = true
				}
			}
		}
	}
	return m
}

func (m *gridModel) Vars() int            { return m.n }
func (m *gridModel) Parent(v int) int     { return v - 1 }
func (m *gridModel) DomainSize(v int) int { return m.k }
func (m *gridModel) Bounded() bool        { return true }
func (m *gridModel) Compatible(v, pv, cv int) bool {
	return !m.blocked[[3]int{v, pv, cv}]
}
func (m *gridModel) EdgeBound(v, pv, cv int) float64 {
	b := m.cost[v][cv]
	if pv >= 0 {
		b += math.Abs(float64(pv - cv))
	}
	return b
}
func (m *gridModel) Evaluate(assign []int) (any, float64, bool) {
	total := 0.0
	for v := 0; v < m.n; v++ {
		pv := -1
		if v > 0 {
			pv = assign[v-1]
		}
		if pv >= 0 && !m.Compatible(v, pv, assign[v]) {
			return nil, 0, false
		}
		total += m.EdgeBound(v, pv, assign[v])
	}
	return append([]int(nil), assign...), total, true
}
func (m *gridModel) Better(a, b any) bool {
	aa, bb := a.([]int), b.([]int)
	var ca, cb float64
	for v := range aa {
		pv := -1
		if v > 0 {
			pv = aa[v-1]
		}
		ca += m.EdgeBound(v, pv, aa[v])
	}
	for v := range bb {
		pv := -1
		if v > 0 {
			pv = bb[v-1]
		}
		cb += m.EdgeBound(v, pv, bb[v])
	}
	if math.Abs(ca-cb) > eps {
		return ca < cb
	}
	return fmt.Sprint(aa) < fmt.Sprint(bb)
}

// bruteForce enumerates every assignment.
func bruteForce(m *gridModel) (best []int, bestCost float64, found bool) {
	assign := make([]int, m.n)
	bestCost = math.Inf(1)
	var rec func(v int)
	rec = func(v int) {
		if v == m.n {
			if r, cost, ok := m.Evaluate(assign); ok {
				if !found || cost < bestCost-eps ||
					(math.Abs(cost-bestCost) <= eps && m.Better(r, best)) {
					best = r.([]int)
					bestCost = cost
					found = true
				}
			}
			return
		}
		for cv := 0; cv < m.k; cv++ {
			assign[v] = cv
			rec(v + 1)
		}
	}
	rec(0)
	return best, bestCost, found
}

func TestSolveMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		m := newGridModel(5, 6, seed)
		var s Solver
		sol, _, ok := s.Solve(m)
		want, wantCost, feasible := bruteForce(m)
		if ok != feasible {
			t.Fatalf("seed %d: solver feasibility %v, brute force %v", seed, ok, feasible)
		}
		if !ok {
			continue
		}
		if math.Abs(sol.Primary-wantCost) > eps {
			t.Fatalf("seed %d: solver cost %v, brute force %v", seed, sol.Primary, wantCost)
		}
		got := sol.Result.([]int)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: solver %v, brute force %v (same cost, tie-break must match)", seed, got, want)
		}
	}
}

func TestSolveDeterministic(t *testing.T) {
	m := newGridModel(6, 5, 7)
	var s Solver
	a, _, ok1 := s.Solve(m)
	b, _, ok2 := s.Solve(m)
	if ok1 != ok2 || fmt.Sprint(a.Result) != fmt.Sprint(b.Result) {
		t.Fatalf("solve not deterministic: %v vs %v", a.Result, b.Result)
	}
}

func TestRepairPinsCleanVariables(t *testing.T) {
	m := newGridModel(6, 8, 3)
	stats := &Stats{}
	s := Solver{Stats: stats}
	sol, fresh, ok := s.Solve(m)
	if !ok {
		t.Fatal("model infeasible")
	}
	// Repair with only variable 3 dirty: all others keep their values.
	dirty := make([]bool, m.n)
	dirty[3] = true
	rep, run, ok := s.Repair(m, sol.Assign, dirty)
	if !ok {
		t.Fatal("repair infeasible though the previous solution still is")
	}
	for v := range rep.Assign {
		if v != 3 && rep.Assign[v] != sol.Assign[v] {
			t.Fatalf("repair moved clean variable %d: %d -> %d", v, sol.Assign[v], rep.Assign[v])
		}
	}
	if rep.Primary > sol.Primary+eps {
		t.Fatalf("repair found a worse value for the dirty variable: %v > %v", rep.Primary, sol.Primary)
	}
	if run.Propagations*2 >= fresh.Propagations {
		t.Fatalf("repair should be far cheaper: repair %d propagations vs fresh %d",
			run.Propagations, fresh.Propagations)
	}
	if got := stats.Repairs.Load(); got != 1 {
		t.Fatalf("Repairs counter = %d, want 1", got)
	}
}

// conflictModel admits no assignment at all once var 1 is pinned to 0.
type conflictModel struct{ gridModel }

func (m *conflictModel) Compatible(v, pv, cv int) bool { return v != 1 || cv != 0 }
func (m *conflictModel) Evaluate(assign []int) (any, float64, bool) {
	if assign[1] == 0 {
		return nil, 0, false
	}
	return m.gridModel.Evaluate(assign)
}

func TestRepairInfeasibleFallsBack(t *testing.T) {
	m := &conflictModel{*newGridModel(3, 3, 5)}
	stats := &Stats{}
	s := Solver{Stats: stats}
	prev := []int{0, 0, 0} // var 1 pinned to the now-forbidden value
	dirty := []bool{false, false, true}
	_, _, ok := s.Repair(m, prev, dirty)
	if ok {
		t.Fatal("repair reported success for an infeasible pinning")
	}
	if got := stats.Repairs.Load(); got != 1 {
		t.Fatalf("Repairs = %d, want 1", got)
	}
	// The full model remains solvable.
	if _, _, ok := s.Solve(m); !ok {
		t.Fatal("fresh solve should succeed")
	}
}

// treeShape exercises a non-chain parent structure: 0 -> {1, 2}, 2 -> {3}.
type treeShape struct{ gridModel }

func (m *treeShape) Parent(v int) int { return []int{-1, 0, 0, 2}[v] }
func (m *treeShape) Better(a, b any) bool {
	_, ca, _ := m.Evaluate(a.([]int))
	_, cb, _ := m.Evaluate(b.([]int))
	if math.Abs(ca-cb) > eps {
		return ca < cb
	}
	return fmt.Sprint(a) < fmt.Sprint(b)
}
func (m *treeShape) Evaluate(assign []int) (any, float64, bool) {
	total := 0.0
	for v := 0; v < m.n; v++ {
		pv := -1
		if p := m.Parent(v); p >= 0 {
			pv = assign[p]
		}
		if pv >= 0 && !m.Compatible(v, pv, assign[v]) {
			return nil, 0, false
		}
		total += m.EdgeBound(v, pv, assign[v])
	}
	return append([]int(nil), assign...), total, true
}

func TestSolveTreeShape(t *testing.T) {
	m := &treeShape{*newGridModel(4, 5, 11)}
	var s Solver
	sol, _, ok := s.Solve(m)
	if !ok {
		t.Fatal("tree model infeasible")
	}
	// Brute force over the tree evaluation.
	best := math.Inf(1)
	assign := make([]int, 4)
	var rec func(v int)
	rec = func(v int) {
		if v == 4 {
			if _, cost, ok := m.Evaluate(assign); ok && cost < best {
				best = cost
			}
			return
		}
		for cv := 0; cv < m.k; cv++ {
			assign[v] = cv
			rec(v + 1)
		}
	}
	rec(0)
	if math.Abs(sol.Primary-best) > eps {
		t.Fatalf("tree solve cost %v, brute force %v", sol.Primary, best)
	}
}
