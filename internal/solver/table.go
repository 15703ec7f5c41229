package solver

import "slices"

// search is the working state of one Solve/Repair call. Everything is
// held in flat arrays indexed by variable offsets, and the arrays stay
// with the Solver between calls, so a caller that solves many models
// (the planner: one per linkage graph) pays for them once.
//
// The search works in slot space: a variable's slots are the positions
// of its initial domain — every value for an open variable, the single
// pinned value for a variable Repair holds in place. Sizing by the
// initial domains is what keeps Repair O(affected): an edge between two
// pinned variables is a 1×1 table however large their value lists are.
type search struct {
	m       Model
	n       int
	bounded bool
	run     RunStats

	parent []int
	// pin[v] is the pinned model value of v, or -1 when v is open (its
	// slot s then stands for model value s).
	pin   []int
	width []int // slots of v
	voff  []int // offset of v's slots in dom, comp and rootBound-sized arrays

	// Surviving slots of v: dom[voff[v] : voff[v]+domLen[v]], pruned in
	// place with order preserved (determinism rides on it).
	domSlots []int
	domLen   []int

	// Children of v in index order: childList[childOff[v]:childOff[v+1]].
	childOff  []int
	childList []int

	// The tabulated relation of edge (parent[v], v): entry
	// eoff[v] + ps*width[v] + cs. state is relUnknown until the model
	// has been asked; bound is valid once state is relBounded.
	eoff  []int
	state []uint8
	bound []float64

	comp      []float64 // subtree completion per slot (see subtreeBounds)
	rootBound []float64 // EdgeBound(0, -1, ·) per root slot
	contrib   []float64
	cur       []int // slot assigned to each variable on the current descent
	assign    []int // the same assignment in model values, for Evaluate
	work      []arc

	g, h, limit float64
	best        Solution
	found       bool
}

const (
	relUnknown uint8 = iota
	relIncompatible
	relCompatible // compatible, bound not asked yet
	relBounded    // compatible, bound[·] holds EdgeBound
)

// init sizes the working arrays for m. A nil dirty opens every domain;
// otherwise clean variables are pinned to prev. It reports false for a
// model without variables.
func (sc *search) init(m Model, prev []int, dirty []bool) bool {
	n := m.Vars()
	if n == 0 {
		return false
	}
	sc.m, sc.n, sc.bounded = m, n, m.Bounded()
	sc.run = RunStats{}
	sc.g, sc.h = 0, 0
	sc.best, sc.found = Solution{}, false

	sc.parent = resize(sc.parent, n)
	sc.pin = resize(sc.pin, n)
	sc.width = resize(sc.width, n)
	sc.voff = resize(sc.voff, n)
	sc.domLen = resize(sc.domLen, n)
	sc.eoff = resize(sc.eoff, n)
	sc.childOff = resize(sc.childOff, n+1)
	sc.childList = resize(sc.childList, n)
	sc.cur = resize(sc.cur, n)
	sc.assign = resize(sc.assign, n)
	sc.contrib = resize(sc.contrib, n)

	slots, entries := 0, 0
	clear(sc.childOff)
	for v := 0; v < n; v++ {
		p := m.Parent(v)
		sc.parent[v] = p
		sc.pin[v], sc.width[v] = -1, m.DomainSize(v)
		if dirty != nil && !dirty[v] {
			sc.pin[v], sc.width[v] = prev[v], 1
		}
		sc.voff[v] = slots
		slots += sc.width[v]
		sc.domLen[v] = sc.width[v]
		if p >= 0 {
			sc.eoff[v] = entries
			entries += sc.width[p] * sc.width[v]
			sc.childOff[p+1]++
		}
	}
	for v := 0; v < n; v++ {
		sc.childOff[v+1] += sc.childOff[v]
	}
	// Parents precede children, so filling in index order lists each
	// variable's children in index order; cur doubles as the cursor.
	next := sc.cur
	clear(next)
	for v := 1; v < n; v++ {
		p := sc.parent[v]
		sc.childList[sc.childOff[p]+next[p]] = v
		next[p]++
	}

	sc.domSlots = resize(sc.domSlots, slots)
	for v := 0; v < n; v++ {
		d := sc.domSlots[sc.voff[v] : sc.voff[v]+sc.width[v]]
		for s := range d {
			d[s] = s
		}
	}
	sc.state = resize(sc.state, entries)
	clear(sc.state)
	if sc.bounded {
		sc.bound = resize(sc.bound, entries)
		sc.comp = resize(sc.comp, slots)
		sc.rootBound = resize(sc.rootBound, sc.width[0])
	}
	return true
}

// release drops what the arrays must not keep alive between calls.
func (sc *search) release() {
	sc.m = nil
	sc.best = Solution{}
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// dom returns v's surviving slots.
func (sc *search) dom(v int) []int {
	return sc.domSlots[sc.voff[v] : sc.voff[v]+sc.domLen[v]]
}

func (sc *search) children(v int) []int {
	return sc.childList[sc.childOff[v]:sc.childOff[v+1]]
}

// value translates a slot of v to the model's value index.
func (sc *search) value(v, slot int) int {
	if pv := sc.pin[v]; pv >= 0 {
		return pv
	}
	return slot
}

// edge returns the table entry of child slot cs of v under parent slot
// ps.
func (sc *search) edge(v, ps, cs int) int {
	return sc.eoff[v] + ps*sc.width[v] + cs
}

// compatible answers the edge relation at entry e = edge(v, ps, cs),
// asking the model the first time.
func (sc *search) compatible(v, e, ps, cs int) bool {
	st := sc.state[e]
	if st == relUnknown {
		st = relIncompatible
		if sc.m.Compatible(v, sc.value(sc.parent[v], ps), sc.value(v, cs)) {
			st = relCompatible
		}
		sc.state[e] = st
	}
	return st >= relCompatible
}

// edgeBound answers EdgeBound at an entry compatible has accepted,
// asking the model the first time.
func (sc *search) edgeBound(v, e, ps, cs int) float64 {
	if sc.state[e] != relBounded {
		sc.bound[e] = sc.m.EdgeBound(v, sc.value(sc.parent[v], ps), sc.value(v, cs))
		sc.state[e] = relBounded
	}
	return sc.bound[e]
}
