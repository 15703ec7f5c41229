package planner

import (
	"math"
	"slices"
	"sort"
	"strings"

	"partsvc/internal/netmodel"
)

// ChangedSet names the network elements a monitoring event touched:
// nodes whose properties or liveness changed, and links whose latency,
// bandwidth, or property environment changed. Incremental repair uses
// it to decide which placements of a deployment are actually affected.
type ChangedSet struct {
	nodes map[netmodel.NodeID]bool
	links map[[2]netmodel.NodeID]bool
}

// NewChangedSet returns an empty change set.
func NewChangedSet() *ChangedSet {
	return &ChangedSet{nodes: map[netmodel.NodeID]bool{}, links: map[[2]netmodel.NodeID]bool{}}
}

// AddNode records a changed node.
func (c *ChangedSet) AddNode(n netmodel.NodeID) { c.nodes[n] = true }

// AddLink records a changed link; endpoint order is canonicalized.
func (c *ChangedSet) AddLink(a, b netmodel.NodeID) {
	if b < a {
		a, b = b, a
	}
	c.links[[2]netmodel.NodeID{a, b}] = true
}

// Empty reports whether nothing changed.
func (c *ChangedSet) Empty() bool {
	return c == nil || (len(c.nodes) == 0 && len(c.links) == 0)
}

// NodeAffected reports whether the node is in the change set.
func (c *ChangedSet) NodeAffected(n netmodel.NodeID) bool { return c != nil && c.nodes[n] }

// PathAffected reports whether the path traverses a changed node or
// link.
func (c *ChangedSet) PathAffected(p netmodel.Path) bool {
	if c == nil {
		return false
	}
	for i, n := range p.Nodes {
		if c.nodes[n] {
			return true
		}
		if i+1 < len(p.Nodes) {
			a, b := n, p.Nodes[i+1]
			if b < a {
				a, b = b, a
			}
			if c.links[[2]netmodel.NodeID{a, b}] {
				return true
			}
		}
	}
	return false
}

// String renders the set deterministically ("nodes[sd-2] links[ny-1~sd-1]").
func (c *ChangedSet) String() string {
	if c.Empty() {
		return "empty"
	}
	nodes := make([]string, 0, len(c.nodes))
	for n := range c.nodes {
		nodes = append(nodes, string(n))
	}
	sort.Strings(nodes)
	links := make([]string, 0, len(c.links))
	for l := range c.links {
		links = append(links, string(l[0])+"~"+string(l[1]))
	}
	sort.Strings(links)
	return "nodes[" + strings.Join(nodes, " ") + "] links[" + strings.Join(links, " ") + "]"
}

// RepairReplan adapts a session to a network change whose touched
// elements are known. It first repairs the old deployment
// incrementally: placements untouched by the change keep their
// assignment (their solver domains collapse to the previous value),
// only invalidated domains re-open, and constraint propagation plus
// branch-and-bound run over the affected remainder — O(affected) work
// instead of O(topology). A repair that moves or evicts something is
// the answer.
//
// A repair that comes back unchanged says only that the pins still
// hold, not that they are still optimal: an improvement elsewhere or a
// degraded link under the pinned wiring is invisible to it. The answer
// is then one full search for the best placement that counts sunk
// instances as free, with every linkage priced under current routes.
// The session's own instances are sunk only together with their wiring
// (ownWiring): the search may end a branch at one as it runs now, and
// places its key anywhere else as a fresh install. Keeping the old
// deployment as it runs now (standing) seeds the search's bound, and
// the search's answer is taken only when it is better. With no old
// deployment, an empty change set or a repair infeasible under its
// pins, the answer is the same search; an old deployment that no
// longer holds is no option then, and its own wiring is installed
// afresh wherever the search places it.
func (pl *Planner) RepairReplan(old *Deployment, req Request, ch *ChangedSet) (*Diff, error) {
	// One memo for the whole adaptation: the repair and the search are
	// passes over the same network state.
	pl.beginPlan()
	defer pl.endPlan()
	evicted := pl.RevalidateExisting()
	var stand *Deployment
	if old != nil && !ch.Empty() {
		if stand = pl.tryRepair(old, req, ch); stand != nil {
			if diff := buildDiff(old, stand); !diff.Unchanged() || len(evicted) > 0 {
				diff.Evicted = evicted
				return diff, nil
			}
		}
	}
	if stand == nil {
		stand = pl.standing(old, req)
	}
	pl.memo.own, pl.memo.reuse = pl.ownWiring(old, stand), nil
	ub := math.Inf(1)
	if stand != nil {
		ub = pl.primaryOf(req.Objective, stand)
	}
	diff, err := pl.replan(old, req, ub)
	if stand != nil && (err != nil || !pl.better(req.Objective, diff.New, stand)) {
		diff, err = buildDiff(old, stand), nil
	}
	if err != nil {
		return nil, err
	}
	diff.Evicted = append(evicted, diff.Evicted...)
	return diff, nil
}

// ownWiring returns the own wiring of a settled session's old
// deployment: the placements that link to a provider, but for a
// stateful primary, whose state lives where it is and which is never
// installed twice. Its stands come from stand, the old deployment as it
// runs now, when it still holds: each placement that runs there
// together with its whole upstream on registered instances.
func (pl *Planner) ownWiring(old, stand *Deployment) ownWiring {
	var own ownWiring
	if old == nil {
		return own
	}
	sunk := make([]bool, len(old.Placements))
	for i := len(old.Placements) - 1; i >= 0; i-- {
		p := old.Placements[i]
		if stand != nil {
			sunk[i] = stand.Placements[i].Reused
			for _, e := range stand.Edges {
				sunk[i] = sunk[i] && (e.From != i || sunk[e.To])
			}
		}
		if comp, ok := pl.component(p.Component); !old.hasProvider(i) || ok && pl.isStatefulPrimary(comp) {
			continue
		}
		own.keys = append(own.keys, p.Key())
		if sunk[i] {
			own.stands = append(own.stands, stand.Placements[i])
		}
	}
	slices.Sort(own.keys)
	own.keys = slices.Compact(own.keys)
	return own
}

// pin builds the solver model of the old deployment's linkage graph,
// its anchors at their registered records so that it is priced as a
// plan prices it, and finds each placement in its position's domain:
// prev[v] is its index there, -1 where it is a candidate no more (its
// node is down, its conditions or configuration moved). ok=false when
// the deployment describes no linkage graph of the specification, an
// anchored instance left the reuse set, or a position has no candidate
// at all.
func (pl *Planner) pin(old *Deployment, req Request) (m *graphModel, prev []int, ok bool) {
	g, err := pl.graphOf(old)
	if err != nil {
		return nil, nil, false
	}
	ru := pl.reuseNow()
	for i := range g {
		if a := g[i].anchor; a != nil {
			j, registered := ru.byKey[a.key]
			if !registered {
				return nil, nil, false
			}
			r := ru.existing[j]
			r.stand = pl.standOf(&r)
			g[i].anchor = &r
		}
	}
	if m, ok = pl.newModel(g, req); !ok {
		return nil, nil, false
	}
	prev = make([]int, len(g))
	for v := range prev {
		key := old.Placements[v].Key()
		prev[v] = slices.IndexFunc(m.pos[v].cands, func(c cand) bool { return c.Key() == key })
	}
	return m, prev, true
}

// standing returns the old deployment as it runs now, priced as a plan
// prices it, or nil when it no longer holds: a placement is no
// candidate any more, a linkage lost its route or its properties, the
// rate no longer fits.
func (pl *Planner) standing(old *Deployment, req Request) *Deployment {
	m, prev, ok := pl.pin(old, req)
	if !ok || slices.Contains(prev, -1) {
		return nil
	}
	dep, _, ok := m.Evaluate(prev)
	if !ok {
		return nil
	}
	return dep.(*Deployment)
}

// tryRepair pins every placement of the old deployment that the change
// cannot have affected and re-solves the rest. nil requests the full
// search.
func (pl *Planner) tryRepair(old *Deployment, req Request, ch *ChangedSet) *Deployment {
	m, prev, ok := pl.pin(old, req)
	if !ok {
		return nil
	}
	// A placement on a changed node, or one that is no candidate any
	// more, re-opens; so do both ends of an edge whose recorded route
	// traverses a changed element: either may need to move to restore a
	// good (or any) route between them.
	dirty := make([]bool, len(prev))
	for i, p := range old.Placements {
		dirty[i] = ch.NodeAffected(p.Node) || prev[i] < 0
	}
	for _, e := range old.Edges {
		if ch.PathAffected(e.Path) {
			dirty[e.From], dirty[e.To] = true, true
		}
	}
	if dirty[0] {
		return nil // the head is pinned at the client node
	}
	s := &pl.engine
	s.Stats, s.UpperBound = pl.SolverStats, nil
	sol, _, solved := s.Repair(m, prev, dirty)
	if !solved {
		return nil
	}
	return sol.Result.(*Deployment)
}
