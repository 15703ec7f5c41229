package planner

import (
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
// the answer. A repair that comes back unchanged with nothing evicted
// says only that the pins still hold, not that they are still optimal:
// an improvement elsewhere or a degraded link under the pinned wiring
// is invisible to it, so it continues exactly as ReplanRewire does — a
// replan over the full reuse set, and on a no-op there too, the rewire
// check. The repaired mapping is valid now, and the replan can make it
// too: its primary cost, priced as a plan prices it, seeds the replan's
// upper bound and the rewire check's, and only a seeded search that
// finds nothing runs again unseeded, so the answer is the unseeded one.
// When nothing is adopted the repaired deployment (the old
// placements re-costed under current routes) is returned. With no old
// deployment or an empty change set, or when repair is infeasible under
// its pins (or the deployment does not describe a linkage graph of the
// specification), it is ReplanRewire itself, so callers always get a
// valid diff.
func (pl *Planner) RepairReplan(old *Deployment, req Request, ch *ChangedSet) (*Diff, error) {
	// One memo for the whole adaptation: the repair, the replan and the
	// rewire check are passes over the same network state.
	pl.beginPlan()
	defer pl.endPlan()
	if old == nil || ch.Empty() {
		return pl.ReplanRewire(old, req)
	}
	evicted := pl.RevalidateExisting()
	dep, priced, ok := pl.tryRepair(old, req, ch, evicted)
	if !ok {
		// Fallback: the full pass revalidates again (finding nothing new —
		// the evictions above already pruned the reuse set), so the diff
		// must carry the evictions observed here.
		diff, err := pl.ReplanRewire(old, req)
		if err != nil {
			return nil, err
		}
		diff.Evicted = append(evicted, diff.Evicted...)
		return diff, nil
	}
	repaired := buildDiff(old, dep)
	repaired.Evicted = evicted
	if !repaired.Unchanged() || len(evicted) > 0 {
		return repaired, nil
	}
	diff, err := pl.replan(old, req, pl.primaryOf(req.Objective, priced))
	if err != nil {
		diff, err = pl.Replan(old, req)
	}
	if err == nil && !diff.Unchanged() {
		return diff, nil
	}
	return pl.rewireCheck(old, req, repaired, priced), nil
}

// tryRepair pins every placement of the old deployment that the change
// cannot have affected and re-solves the rest. ok=false requests a
// fresh full replan. priced is the repaired deployment as a plan prices
// it: a plan's anchors carry the upstream latency their registration
// records, where the old deployment's copy of a reused leaf may record
// another, so priced reprices those hops.
func (pl *Planner) tryRepair(old *Deployment, req Request, ch *ChangedSet, evicted []Placement) (dep, priced *Deployment, ok bool) {
	g, err := pl.graphOf(old)
	if err != nil {
		return nil, nil, false // foreign deployment: replan fresh
	}
	for i := range g {
		key := old.Placements[i].Key()
		if g[i].anchor != nil && !slices.ContainsFunc(pl.Existing, func(e Placement) bool { return e.Key() == key }) {
			return nil, nil, false // the anchored instance left the reuse set: replan fresh
		}
	}
	evictedKeys := make(map[string]bool, len(evicted))
	for _, p := range evicted {
		evictedKeys[p.Key()] = true
	}
	n := len(g)
	dirty := make([]bool, n)
	for i, p := range old.Placements {
		if ch.NodeAffected(p.Node) || evictedKeys[p.Key()] {
			dirty[i] = true
			continue
		}
		if node, live := pl.Net.Node(p.Node); !live || node.Down {
			dirty[i] = true
		}
	}
	// An edge whose recorded route traverses a changed element
	// invalidates both endpoints: either may need to move to restore a
	// good (or any) route between them.
	for _, e := range old.Edges {
		if ch.PathAffected(e.Path) {
			dirty[e.From] = true
			dirty[e.To] = true
		}
	}
	// A changed node can also break deployment conditions or re-factor
	// configurations without appearing in any path.
	for i := range g {
		if dirty[i] || g[i].anchor != nil {
			continue
		}
		p, live := pl.placementForCached(g[i].comp, old.Placements[i].Node, req, i)
		if !live || p.configFP() != old.Placements[i].configFP() {
			dirty[i] = true
		}
	}
	if dirty[0] {
		return nil, nil, false // the head is pinned at the client node; replan fresh
	}
	m, ok := pl.newModel(g, req)
	if !ok {
		return nil, nil, false
	}
	prev := make([]int, n)
	for v := 0; v < n; v++ {
		if dirty[v] {
			continue
		}
		idx := -1
		for ci := range m.pos[v].cands {
			if m.pos[v].cands[ci].Key() == old.Placements[v].Key() {
				idx = ci
				break
			}
		}
		if idx < 0 {
			// The previous placement is no longer a candidate (conditions
			// moved, instance evicted): re-open the variable.
			if v == 0 {
				return nil, nil, false
			}
			dirty[v] = true
			continue
		}
		prev[v] = idx
	}
	s := &pl.engine
	s.Stats, s.UpperBound = pl.SolverStats, nil
	sol, _, solved := s.Repair(m, prev, dirty)
	if !solved {
		return nil, nil, false
	}
	dep = sol.Result.(*Deployment)
	in := flowCoeff(g, m.assigned(sol.Assign))
	repriced := *dep
	ru := pl.reuseNow()
	for v := range g {
		if a := g[v].anchor; a != nil {
			if i, ok := ru.byKey[a.key]; ok {
				repriced.ExpectedLatencyMS += in[v] * (ru.existing[i].UpstreamMS - a.UpstreamMS)
			}
		}
	}
	return dep, &repriced, true
}
