package planner

import (
	"strings"

	"partsvc/internal/netmodel"
	"partsvc/internal/property"
	"partsvc/internal/spec"
)

// The paper's implemented planner handles chains and announces a
// partial-order constraint solver for general directed component graphs
// (Section 3.3). This file provides that generalization for tree-shaped
// linkage graphs: components with multiple required interfaces obtain
// one provider subtree per requirement, and the tree validator applies
// the same three validity conditions to a complete node assignment
// (the search itself is solve.go's treeModel).

// Tree is a linkage tree: the root implements the requested interface
// and each child subtree provides one of the root's required
// interfaces, in declaration order.
type Tree struct {
	comp     *spec.Component
	anchor   *Placement
	pinned   []cand // see chainElem
	children []*Tree
}

// Names renders the tree as a nested expression, e.g.
// "Portal(MailServer, LogServer)".
func (t *Tree) Names() string {
	if len(t.children) == 0 {
		name := t.comp.Name
		if t.anchor != nil {
			name += "*"
		}
		return name
	}
	parts := make([]string, len(t.children))
	for i, c := range t.children {
		parts[i] = c.Names()
	}
	return t.comp.Name + "(" + strings.Join(parts, ", ") + ")"
}

// size counts the tree's components.
func (t *Tree) size() int {
	n := 1
	for _, c := range t.children {
		n += c.size()
	}
	return n
}

// EnumerateTrees finds the valid linkage trees satisfying an interface,
// bounded by MaxChainLen components per tree. Anchors terminate subtrees
// exactly as in chain enumeration. Trees are immutable and share their
// subtrees; within a planner call the result is computed once per
// reuse-set generation.
func (pl *Planner) EnumerateTrees(iface string) []*Tree {
	pl.beginPlan()
	defer pl.endPlan()
	return pl.enumerateTrees(iface)
}

func (pl *Planner) enumerateTrees(iface string) []*Tree {
	ru := pl.reuseNow()
	if trees, ok := ru.trees[iface]; ok {
		return trees
	}
	type level struct {
		iface  string
		budget int
	}
	built := map[level][]*Tree{}
	var build func(iface string, budget int) []*Tree
	build = func(iface string, budget int) []*Tree {
		if budget <= 0 {
			return nil
		}
		if out, ok := built[level{iface, budget}]; ok {
			return out
		}
		var out []*Tree
		for _, a := range ru.anchorsFor(pl, iface) {
			out = append(out, &Tree{comp: a.comp, anchor: a.anchor, pinned: a.pinned})
		}
		for _, comp := range pl.implementersOf(iface) {
			if len(comp.Requires) == 0 {
				out = append(out, &Tree{comp: comp})
				continue
			}
			// Cartesian product of provider subtrees per requirement.
			partials := []*Tree{{comp: comp}}
			feasible := true
			for _, req := range comp.Requires {
				subs := build(req.Name, budget-1)
				if len(subs) == 0 {
					feasible = false
					break
				}
				var next []*Tree
				for _, p := range partials {
					for _, s := range subs {
						grown := &Tree{comp: p.comp, children: append(append([]*Tree(nil), p.children...), s)}
						if grown.size() <= budget {
							next = append(next, grown)
						}
					}
				}
				partials = next
			}
			if feasible {
				out = append(out, partials...)
			}
		}
		built[level{iface, budget}] = out
		return out
	}
	trees := build(iface, pl.maxLen())
	ru.trees[iface] = trees
	return trees
}

// anchorsFor lists the registered instances that can terminate a
// linkage over iface: they implement it and have recorded effective
// properties to stand in for their already-deployed upstream.
func (ru *reuseSet) anchorsFor(pl *Planner, iface string) []chainElem {
	var out []chainElem
	for i := range ru.existing {
		e := &ru.existing[i]
		comp, ok := pl.component(e.Component)
		if !ok {
			continue
		}
		if _, implements := comp.ImplementsInterface(iface); implements && len(e.Offers) > 0 {
			out = append(out, chainElem{comp: comp, anchor: &e.Placement, pinned: ru.existing[i : i+1]})
		}
	}
	return out
}

// TreePlacement is a placement within a tree deployment, with its parent
// index (-1 for the root) and the path to its parent.
type TreePlacement struct {
	Placement
	Parent int
	Path   netmodel.Path
}

// TreeDeployment is a validated mapping of a linkage tree.
type TreeDeployment struct {
	// Placements lists instances in pre-order; element 0 is the root at
	// the client node.
	Placements []TreePlacement
	// ExpectedLatencyMS and NewComponents mirror Deployment.
	ExpectedLatencyMS float64
	NewComponents     int
}

// treeNode is the flattened pre-order view used during mapping.
type treeNode struct {
	tree   *Tree
	parent int // index into the flattened slice; -1 for root
	weight float64
}

// flatten produces the pre-order node list with traffic weights: the
// root has weight 1 and each child's weight is its parent's weight times
// the parent's RRF.
func flatten(t *Tree) []treeNode {
	var out []treeNode
	var walk func(t *Tree, parent int, weight float64)
	walk = func(t *Tree, parent int, weight float64) {
		idx := len(out)
		out = append(out, treeNode{tree: t, parent: parent, weight: weight})
		for _, c := range t.children {
			walk(c, idx, weight*t.comp.Behaviors.EffectiveRRF())
		}
	}
	walk(t, -1, 1)
	return out
}

// validateTree checks conditions 2 and 3 over the tree and computes
// metrics. Property propagation runs bottom-up: each subtree's offer is
// computed from its children's offers modified by the connecting path
// environments.
func (pl *Planner) validateTree(flat []treeNode, cs []*cand, req Request) *TreeDeployment {
	paths := make([]netmodel.Path, len(flat))
	for i := 1; i < len(flat); i++ {
		p, _, ok := pl.memo.path(cs[flat[i].parent].node, cs[i].node)
		if !ok {
			pl.stats.RejectedNoPath++
			return nil
		}
		paths[i] = p
	}

	// children[i] lists the flattened indices of i's children in order.
	children := make([][]int, len(flat))
	for i := 1; i < len(flat); i++ {
		children[flat[i].parent] = append(children[flat[i].parent], i)
	}

	// offerOf computes the effective property set node i offers its
	// parent over the given interface, recursing through its children.
	// Each node's offer is recorded so the deployment can register its
	// placements as reusable anchors.
	offersRec := make([]property.Set, len(flat))
	var computeOffer func(i int, iface string) (property.Set, bool)
	offerOf := func(i int, iface string) (property.Set, bool) {
		s, ok := computeOffer(i, iface)
		if ok {
			offersRec[i] = s
		}
		return s, ok
	}
	computeOffer = func(i int, iface string) (property.Set, bool) {
		tn := flat[i]
		if tn.tree.anchor != nil {
			return tn.tree.anchor.Offers.Clone(), true
		}
		// Pass-through base: the property-wise minimum of what all
		// children deliver (a multi-input component is only as strong as
		// its weakest input), restricted to the output interface.
		var carried property.Set
		for ci, c := range children[i] {
			childIface := tn.tree.comp.Requires[ci].Name
			childOffer, ok := offerOf(c, childIface)
			if !ok {
				return nil, false
			}
			env, _ := pl.linkageEnv(cs[i].node, cs[c].node)
			received, err := pl.Service.ModRules.ApplySetRO(childOffer, env)
			if err != nil {
				return nil, false
			}
			reqProps, err := pl.evalReqProps(tn.tree.comp, ci, cs[i])
			if err != nil {
				return nil, false
			}
			if !received.Satisfies(reqProps) {
				return nil, false
			}
			if carried == nil {
				carried = received.Clone()
			} else {
				for name, v := range carried {
					rv, ok := received[name]
					if !ok {
						delete(carried, name)
						continue
					}
					m := property.Min(v, rv)
					if !m.IsValid() {
						delete(carried, name)
						continue
					}
					carried[name] = m
				}
				for name := range received {
					if _, ok := carried[name]; !ok {
						delete(carried, name)
					}
				}
			}
		}
		if iface == "" {
			return property.Set{}, true
		}
		decl, _ := pl.Service.Interface(iface)
		out := property.Set{}
		for name, v := range carried {
			if decl.HasProperty(name) {
				out[name] = v
			}
		}
		if _, ok := tn.tree.comp.ImplementsInterface(iface); !ok {
			return nil, false
		}
		gen, err := pl.evalImplProps(tn.tree.comp, iface, cs[i])
		if err != nil {
			return nil, false
		}
		return out.Merge(gen), true
	}

	rootOffer, ok := offerOf(0, req.Interface)
	if !ok {
		pl.stats.RejectedProps++
		return nil
	}
	if len(req.RequireProps) > 0 && !rootOffer.Satisfies(req.RequireProps) {
		pl.stats.RejectedProps++
		return nil
	}

	// Load: per-node CPU aggregation and per-link bandwidth aggregation
	// at the requested rate.
	if req.RateRPS > 0 {
		cpuPerNode := map[netmodel.NodeID]float64{}
		for i, tn := range flat {
			cpuPerNode[cs[i].Node] += req.RateRPS * tn.weight * tn.tree.comp.Behaviors.CPUMSPerRequest
			if c := tn.tree.comp.Behaviors.CapacityRPS; c > 0 && req.RateRPS*tn.weight > c {
				pl.stats.RejectedLoad++
				return nil
			}
		}
		for node, ms := range cpuPerNode {
			n, _ := pl.Net.Node(node)
			if n.CPUCapacityRPS > 0 && ms > n.CPUCapacityRPS {
				pl.stats.RejectedLoad++
				return nil
			}
		}
		type linkKey struct{ a, b netmodel.NodeID }
		bitsPerLink := map[linkKey]float64{}
		for i := 1; i < len(flat); i++ {
			b := flat[i].tree.comp.Behaviors
			bytes := float64(b.RequestBytes+b.ResponseBytes) * 8
			for j := 0; j+1 < len(paths[i].Nodes); j++ {
				a, bn := paths[i].Nodes[j], paths[i].Nodes[j+1]
				if bn < a {
					a, bn = bn, a
				}
				bitsPerLink[linkKey{a, bn}] += req.RateRPS * flat[i].weight * bytes
			}
		}
		for key, bits := range bitsPerLink {
			l, ok := pl.Net.Link(key.a, key.b)
			if ok && l.BandwidthMbps > 0 && bits > l.BandwidthMbps*1e6 {
				pl.stats.RejectedLoad++
				return nil
			}
		}
	}

	dep := &TreeDeployment{ExpectedLatencyMS: flat[0].tree.comp.Behaviors.CPUMSPerRequest}
	for i := range flat {
		tp := TreePlacement{Placement: cs[i].Placement, Parent: flat[i].parent, Path: paths[i]}
		tp.Placement.Offers = offersRec[i].Clone()
		dep.Placements = append(dep.Placements, tp)
		if !cs[i].Reused {
			dep.NewComponents++
		}
		if i == 0 {
			continue
		}
		hop := hopMS(flat[i].tree.comp.Behaviors, paths[i])
		if flat[i].tree.anchor != nil {
			hop += flat[i].tree.anchor.UpstreamMS
		}
		dep.ExpectedLatencyMS += flat[i].weight * hop
	}
	return dep
}
