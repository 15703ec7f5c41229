package solver

// arc asks for x's domain to be revised against neighbor y.
type arc struct{ x, y int }

// propagate runs AC-3 over the tree's arcs: for every edge
// (parent, child) both directed arcs are revised until a fixpoint.
// Domains are pruned in place (order preserved — determinism rides on
// it). Returns false when any domain empties, i.e. the model (or the
// repair pinning) is infeasible. Every support test counts as one
// Propagation.
func (sc *search) propagate() bool {
	work := sc.work[:0]
	for v := 1; v < sc.n; v++ {
		p := sc.parent[v]
		work = append(work, arc{v, p}, arc{p, v})
	}
	for head := 0; head < len(work); head++ {
		a := work[head]
		if !sc.revise(a.x, a.y) {
			continue
		}
		if sc.domLen[a.x] == 0 {
			sc.work = work
			return false
		}
		// x's domain shrank: re-revise every other neighbor against x.
		if p := sc.parent[a.x]; p >= 0 && p != a.y {
			work = append(work, arc{p, a.x})
		}
		for _, c := range sc.children(a.x) {
			if c != a.y {
				work = append(work, arc{c, a.x})
			}
		}
	}
	sc.work = work
	return true
}

// revise drops slots of x with no support in y, returning whether the
// domain changed. x and y are parent and child of one tree edge (in
// either order); the constraint is always the child's edge relation.
func (sc *search) revise(x, y int) bool {
	xIsChild := sc.parent[y] != x
	dx, dy := sc.dom(x), sc.dom(y)
	kept := 0
	for _, xs := range dx {
		supported := false
		for _, ys := range dy {
			sc.run.Propagations++
			if xIsChild {
				supported = sc.compatible(x, sc.edge(x, ys, xs), ys, xs)
			} else {
				supported = sc.compatible(y, sc.edge(y, xs, ys), xs, ys)
			}
			if supported {
				break
			}
		}
		if supported {
			dx[kept] = xs
			kept++
		}
	}
	changed := kept != len(dx)
	sc.domLen[x] = kept
	return changed
}
