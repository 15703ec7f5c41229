package planner

import (
	"fmt"
	"math"
	"strings"
)

// This file holds the reference planners the equivalence tests compare
// Plan against. They are test-only: nothing under cmd/ or internal/bench
// can reach them. planExhaustive is the paper's implemented planner
// (exhaustive node assignment per chain); planTree is the backtracking
// mapper for tree-shaped linkage graphs. Both share the production
// validators (validate, validateTree), so what they pin down is the
// search: candidate domains, pruning, bounds and tie-breaks. The reuse
// set lookups are the references' own linear scans (anchorFor,
// hasAnyInstance), not the planner's per-generation index.

// anchorFor returns an existing placement matching the candidate's
// component, node and factored configuration.
func (pl *Planner) anchorFor(p Placement) (Placement, bool) {
	for _, e := range pl.Existing {
		if e.Component == p.Component && e.Node == p.Node && e.configFP() == p.configFP() {
			e.Reused = true
			return e, true
		}
	}
	return Placement{}, false
}

// hasAnyInstance reports whether the component already has a deployed
// instance anywhere in the network.
func (pl *Planner) hasAnyInstance(component string) bool {
	for _, e := range pl.Existing {
		if e.Component == component {
			return true
		}
	}
	return false
}

// validated runs the production chain validator on an exhaustively
// generated assignment, checking first what the search never has to:
// that every linkage has a route at all.
func (pl *Planner) validated(chain Chain, cs []*cand, req Request) *Deployment {
	if _, missing := pl.memo.routesOf(cs); missing >= 0 {
		pl.stats.RejectedNoPath++
		return nil
	}
	dep, v := pl.validateChain(chain, cs, req)
	pl.reject(v)
	return dep
}

// candsOf resolves an assignment of placements to the candidates the
// validators take.
func (pl *Planner) candsOf(places []Placement) []*cand {
	cs := make([]*cand, len(places))
	for i, p := range places {
		c := pl.memo.candOf(p)
		cs[i] = &c
	}
	return cs
}

// planExhaustive satisfies a client request the way the paper's planner
// does: it enumerates valid chains, maps each onto the network
// exhaustively, and returns the best deployment under the request's
// objective. It returns an error when no valid deployment exists, with
// the accumulated rejection statistics in Stats.
func (pl *Planner) planExhaustive(req Request) (*Deployment, error) {
	pl.beginPlan()
	defer pl.endPlan()
	if _, ok := pl.Net.Node(req.ClientNode); !ok {
		return nil, fmt.Errorf("planner: client node %q not in network", req.ClientNode)
	}
	if _, ok := pl.Service.Interface(req.Interface); !ok {
		return nil, fmt.Errorf("planner: interface %q not in service %q", req.Interface, pl.Service.Name)
	}
	chains := pl.EnumerateChains(req.Interface)
	pl.stats.ChainsEnumerated = len(chains)
	if len(chains) == 0 {
		return nil, fmt.Errorf("planner: no component chain implements %q", req.Interface)
	}
	var best *Deployment
	for _, chain := range chains {
		dep := pl.mapChain(chain, req)
		if dep == nil {
			continue
		}
		if best == nil || pl.better(req.Objective, dep, best) {
			best = dep
		}
	}
	if best == nil {
		return nil, fmt.Errorf(
			"planner: no valid mapping for %q from %s (chains %d, mappings %d; rejected: conditions %d, properties %d, load %d, no-path %d)",
			req.Interface, req.ClientNode, pl.stats.ChainsEnumerated, pl.stats.MappingsTried,
			pl.stats.RejectedConditions, pl.stats.RejectedProps, pl.stats.RejectedLoad, pl.stats.RejectedNoPath)
	}
	return best, nil
}

// mapChain performs step 2 of planning for one chain: it exhaustively
// assigns chain components to network nodes (the head pinned at the
// client node, anchors pinned at their recorded nodes), validates each
// complete assignment against the three validity conditions of Section
// 3.3, and returns the best valid deployment under the request's
// objective (nil if none).
func (pl *Planner) mapChain(chain Chain, req Request) *Deployment {
	if chain[0].isAnchor() {
		return nil // a bare anchor is not a deployable head
	}
	head, ok := pl.placementFor(chain[0].comp, req.ClientNode, req, 0)
	if !ok {
		pl.stats.RejectedConditions++
		return nil
	}
	if anchor, found := pl.anchorFor(head); found {
		head = anchor
	}
	places := make([]Placement, len(chain))
	places[0] = head

	var best *Deployment
	nodes := pl.Net.Nodes()

	consider := func(pos int, p Placement, recurse func(int)) {
		// No routing loops: a chain must not visit the same instance
		// twice. And no duplicated replicas: a caching component
		// (RRF < 1) holds the same state in every identically-configured
		// instance, so a second one can never absorb the first one's
		// misses — reject rather than model it.
		caching := chain[pos].comp.Behaviors.EffectiveRRF() < 1
		id := p.Component + "{" + p.configFP() + "}"
		for j := 0; j < pos; j++ {
			if p.Key() == places[j].Key() {
				return
			}
			if caching && id == places[j].Component+"{"+places[j].configFP()+"}" {
				return
			}
		}
		places[pos] = p
		recurse(pos + 1)
	}

	var assign func(pos int)
	assign = func(pos int) {
		if pos == len(chain) {
			pl.stats.MappingsTried++
			if dep := pl.validated(chain, pl.candsOf(places), req); dep != nil {
				if best == nil || pl.better(req.Objective, dep, best) {
					best = dep
				}
			}
			return
		}
		elem := chain[pos]
		if elem.isAnchor() {
			p := *elem.anchor
			p.Reused = true
			consider(pos, p, assign)
			return
		}
		comp := elem.comp
		// Stateful primaries with an existing instance are singletons:
		// they may only be reused, never re-instantiated (state lives in
		// the primary; replication happens through data views).
		if pl.isStatefulPrimary(comp) && pl.hasAnyInstance(comp.Name) {
			for _, e := range pl.Existing {
				if e.Component != comp.Name {
					continue
				}
				p := e
				p.Reused = true
				consider(pos, p, assign)
			}
			return
		}
		for _, node := range nodes {
			p, ok := pl.placementForCached(comp, node.ID, req, pos)
			if !ok {
				pl.stats.RejectedConditions++
				continue
			}
			if anchor, found := pl.anchorFor(p); found {
				p = anchor
			}
			consider(pos, p, assign)
		}
	}
	assign(1)
	return best
}

// String renders the deployment with parent links.
func (d *TreeDeployment) String() string {
	parts := make([]string, len(d.Placements))
	for i, p := range d.Placements {
		if p.Parent < 0 {
			parts[i] = p.Placement.String()
		} else {
			parts[i] = fmt.Sprintf("%s<-%d", p.Placement.String(), p.Parent)
		}
	}
	return strings.Join(parts, " ")
}

// planTree satisfies a request over tree-shaped linkage graphs. It
// reuses the chain machinery's constraint semantics: deployment
// conditions at every node, property compatibility (with modification
// rules) on every edge, and a per-edge bandwidth plus per-node CPU load
// check. The MinLatency deployment penalty applies as in Plan.
func (pl *Planner) planTree(req Request) (*TreeDeployment, error) {
	pl.beginPlan()
	defer pl.endPlan()
	if _, ok := pl.Net.Node(req.ClientNode); !ok {
		return nil, fmt.Errorf("planner: client node %q not in network", req.ClientNode)
	}
	if _, ok := pl.Service.Interface(req.Interface); !ok {
		return nil, fmt.Errorf("planner: interface %q not in service %q", req.Interface, pl.Service.Name)
	}
	trees := pl.EnumerateTrees(req.Interface)
	pl.stats.ChainsEnumerated = len(trees)
	if len(trees) == 0 {
		return nil, fmt.Errorf("planner: no component tree implements %q", req.Interface)
	}
	var best *TreeDeployment
	for _, tree := range trees {
		dep := pl.mapTree(tree, req)
		if dep == nil {
			continue
		}
		if best == nil || pl.treeBetter(req.Objective, dep, best) {
			best = dep
		}
	}
	if best == nil {
		return nil, fmt.Errorf("planner: no valid tree mapping for %q from %s", req.Interface, req.ClientNode)
	}
	return best, nil
}

func (pl *Planner) treeBetter(o Objective, a, b *TreeDeployment) bool {
	var ka, kb [2]float64
	switch o {
	case MinCost:
		ka = [2]float64{float64(a.NewComponents), a.ExpectedLatencyMS}
		kb = [2]float64{float64(b.NewComponents), b.ExpectedLatencyMS}
	default:
		ka = [2]float64{a.ExpectedLatencyMS + pl.DeployPenaltyMS*float64(a.NewComponents), float64(a.NewComponents)}
		kb = [2]float64{b.ExpectedLatencyMS + pl.DeployPenaltyMS*float64(b.NewComponents), float64(b.NewComponents)}
	}
	const eps = 1e-9
	if math.Abs(ka[0]-kb[0]) > eps {
		return ka[0] < kb[0]
	}
	if math.Abs(ka[1]-kb[1]) > eps {
		return ka[1] < kb[1]
	}
	return a.String() < b.String()
}

// mapTree assigns nodes to a flattened tree by backtracking.
func (pl *Planner) mapTree(tree *Tree, req Request) *TreeDeployment {
	if tree.anchor != nil {
		return nil
	}
	flat := flatten(tree)
	head, ok := pl.placementForCached(flat[0].tree.comp, req.ClientNode, req, 0)
	if !ok {
		pl.stats.RejectedConditions++
		return nil
	}
	if anchor, found := pl.anchorFor(head); found {
		head = anchor
	}
	places := make([]Placement, len(flat))
	places[0] = head

	var best *TreeDeployment
	nodes := pl.Net.Nodes()

	var assign func(pos int)
	assign = func(pos int) {
		if pos == len(flat) {
			pl.stats.MappingsTried++
			if dep := pl.validateTree(flat, pl.candsOf(places), req); dep != nil {
				if best == nil || pl.treeBetter(req.Objective, dep, best) {
					best = dep
				}
			}
			return
		}
		tn := flat[pos]
		if tn.tree.anchor != nil {
			p := *tn.tree.anchor
			p.Reused = true
			places[pos] = p
			assign(pos + 1)
			return
		}
		comp := tn.tree.comp
		if pl.isStatefulPrimary(comp) && pl.hasAnyInstance(comp.Name) {
			for _, e := range pl.Existing {
				if e.Component != comp.Name {
					continue
				}
				p := e
				p.Reused = true
				places[pos] = p
				assign(pos + 1)
			}
			return
		}
		caching := comp.Behaviors.EffectiveRRF() < 1
		for _, node := range nodes {
			p, ok := pl.placementForCached(comp, node.ID, req, pos)
			if !ok {
				pl.stats.RejectedConditions++
				continue
			}
			// No loops or duplicated replicas along the ancestor path
			// (the same rules as the chain mapper, applied per branch).
			id := p.Component + "{" + p.configFP() + "}"
			blocked := false
			for a := tn.parent; a >= 0; a = flat[a].parent {
				if p.Key() == places[a].Key() {
					blocked = true
					break
				}
				if caching && id == places[a].Component+"{"+places[a].configFP()+"}" {
					blocked = true
					break
				}
			}
			if blocked {
				continue
			}
			if anchor, found := pl.anchorFor(p); found {
				p = anchor
			}
			places[pos] = p
			assign(pos + 1)
		}
	}
	assign(1)
	return best
}
