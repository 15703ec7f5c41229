package planner

import (
	"fmt"
	"math"
	"slices"

	"partsvc/internal/property"
)

// This file implements the paper's first future-work item (Section 6):
// relaxing the static-network assumption. When node or link properties
// change — reported by a monitoring substrate or by credential
// revocation in the trust layer — existing placements are revalidated,
// invalid ones are evicted, and a fresh plan is computed; the
// difference between old and new deployments tells the runtime what to
// install and what to tear down ("whether a new deployment (either
// incremental or complete) is called for").

// Diff describes how to adapt from an old deployment to a new one.
type Diff struct {
	// New is the freshly planned deployment.
	New *Deployment
	// Install lists placements present in New but not in the old
	// deployment (components the engine must install).
	Install []Placement
	// Remove lists the old placements New no longer holds: what the
	// session releases. Whether an instance is torn down is decided by
	// who else holds it (a shared tail, the primary), once its state is
	// drained — data views have already pushed their writes through the
	// coherence layer.
	Remove []Placement
	// Evicted lists previously registered instances that failed
	// revalidation against the current network and were dropped from
	// the planner's reuse set.
	Evicted []Placement
}

// Unchanged reports whether the new deployment reuses the old one
// entirely and installs nothing.
func (d *Diff) Unchanged() bool { return len(d.Install) == 0 && len(d.Remove) == 0 }

// RevalidateExisting re-checks every registered instance against the
// current network: its node must still exist, its deployment conditions
// must still hold there, and its factored configuration must still
// evaluate to the same values (a view factored at TrustLevel=4 on a
// node now trusted at 1 is invalid — the node can no longer be
// entrusted with its keys). Invalid instances are removed from the
// reuse set and returned.
func (pl *Planner) RevalidateExisting() []Placement {
	evicted := pl.InvalidExisting()
	if len(evicted) > 0 {
		pl.Existing = slices.DeleteFunc(pl.Existing, func(p Placement) bool { return !pl.stillValid(p) })
		pl.gen++
	}
	return evicted
}

// InvalidExisting returns the registered instances RevalidateExisting
// would evict now, without evicting them.
func (pl *Planner) InvalidExisting() []Placement {
	var invalid []Placement
	for _, p := range pl.Existing {
		if !pl.stillValid(p) {
			invalid = append(invalid, p)
		}
	}
	return invalid
}

// stillValid re-derives placement validity under current node
// properties.
func (pl *Planner) stillValid(p Placement) bool {
	comp, ok := pl.Service.Component(p.Component)
	if !ok {
		return false
	}
	n, ok := pl.Net.Node(p.Node)
	if !ok || n.Down {
		return false
	}
	sc := property.Scope{Node: n.Props}
	for _, cond := range comp.Conditions {
		// Request-scoped conditions (e.g. User ACLs) cannot be
		// re-evaluated without the original request; only
		// environment-scoped conditions participate in revalidation.
		if _, bound := sc.Lookup(cond.Subject); !bound {
			continue
		}
		if !cond.Holds(sc) {
			return false
		}
	}
	for name, expr := range comp.Factors {
		v, err := expr.Eval(sc)
		if err != nil || !v.Equal(p.Config[name]) {
			return false
		}
	}
	return true
}

// Replan adapts a session to the network as it is now, returning the
// adaptation diff relative to old (which may be nil for a first
// deployment; its placements are assumed to be registered via
// AddExisting). It is one search for the best placement that counts
// sunk instances as free, with every linkage priced under current
// routes. The session's own instances are sunk only together with
// their wiring (ownWiring): the search may end a branch at one as it
// runs now, and places its key anywhere else as a fresh install.
// Keeping the old deployment as it runs now (standing) seeds the
// search's bound, and the search's answer is taken only when it is
// better. An old deployment that no longer holds is no option: the
// search runs unseeded, and its own wiring is installed afresh
// wherever the search places it.
func (pl *Planner) Replan(old *Deployment, req Request) (*Diff, error) {
	// One memo for the whole adaptation: standing and the search are
	// passes over the same network state.
	pl.beginPlan()
	defer pl.endPlan()
	evicted := pl.RevalidateExisting()
	stand := pl.standing(old, req)
	pl.memo.own, pl.memo.reuse = pl.ownWiring(old, stand), nil
	ub := math.Inf(1)
	if stand != nil {
		ub = pl.primaryOf(req.Objective, stand)
	}
	dep, err := pl.plan(req, ub)
	if stand != nil && (err != nil || !pl.better(req.Objective, dep, stand)) {
		dep, err = stand, nil
	}
	if err != nil {
		return nil, fmt.Errorf("planner: replan: %w", err)
	}
	diff := buildDiff(old, dep)
	diff.Evicted = evicted
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

// standing returns the old deployment as it runs now, priced as a plan
// prices it, or nil when it no longer holds: it describes no linkage
// graph of the specification, an anchored instance left the reuse set,
// a placement is no candidate any more (its node is down, its
// conditions or configuration moved), a linkage lost its route or its
// properties, the rate no longer fits. The model is the old
// deployment's linkage graph with its anchors at their registered
// records, and each placement is found in its position's domain.
func (pl *Planner) standing(old *Deployment, req Request) *Deployment {
	g, err := pl.graphOf(old)
	if err != nil {
		return nil
	}
	ru := pl.reuseNow()
	for i := range g {
		if a := g[i].anchor; a != nil {
			j, registered := ru.byKey[a.key]
			if !registered {
				return nil
			}
			r := ru.existing[j]
			r.stand = pl.standOf(&r)
			g[i].anchor = &r
		}
	}
	m, ok := pl.newModel(g, req)
	if !ok {
		return nil
	}
	assign := make([]int, len(g))
	for v := range assign {
		key := old.Placements[v].Key()
		if assign[v] = slices.IndexFunc(m.pos[v].cands, func(c cand) bool { return c.Key() == key }); assign[v] < 0 {
			return nil
		}
	}
	dep, _, ok := m.Evaluate(assign)
	if !ok {
		return nil
	}
	return dep.(*Deployment)
}

// buildDiff computes the install/remove bookkeeping between an old
// deployment and a new one: Install is what New does not reuse, Remove
// what of the old deployment New no longer holds.
func buildDiff(old, dep *Deployment) *Diff {
	diff := &Diff{New: dep}
	keep := map[string]bool{}
	for _, p := range dep.Placements {
		keep[p.Key()] = true
		if !p.Reused {
			diff.Install = append(diff.Install, p)
		}
	}
	if old != nil {
		// A new plan may terminate a branch at a reused instance (anchor
		// cut); the old placements upstream of that instance — its
		// subtree, contiguous in pre-order — remain part of the running
		// service graph and must not be torn down.
		for i, leaf := range dep.Placements {
			if !leaf.Reused || dep.hasProvider(i) {
				continue
			}
			for j, p := range old.Placements {
				if p.Key() == leaf.Key() {
					for k := j + 1; k < len(old.Placements) && old.clientOf(k) >= j; k++ {
						keep[old.Placements[k].Key()] = true
					}
					break
				}
			}
		}
		for _, p := range old.Placements {
			if !keep[p.Key()] {
				diff.Remove = append(diff.Remove, p)
			}
		}
	}
	return diff
}

// Verify independently validates a deployment against a request under
// the *current* network state: every placement's conditions hold, every
// linkage's effective properties satisfy the requirer, and the request
// rate fits the deployment's capacity. It reconstructs the linkage
// graph from the deployment (graphOf). A nil error means the deployment
// is valid now. The adaptation loop's audit asks it of every session.
func (pl *Planner) Verify(dep *Deployment, req Request) error {
	pl.beginPlan()
	defer pl.endPlan()
	g, err := pl.graphOf(dep)
	if err != nil {
		return err
	}
	// Condition 1 at every placement (head sees the request user).
	for i, p := range dep.Placements {
		if g[i].anchor != nil {
			continue
		}
		if _, ok := pl.placementFor(g[i].comp, p.Node, req, i); !ok {
			return fmt.Errorf("planner: conditions for %s no longer hold", p)
		}
	}
	cands := make([]cand, len(dep.Placements))
	cs := make([]*cand, len(cands))
	for i, p := range dep.Placements {
		cands[i] = pl.memo.candOf(p)
		cs[i] = &cands[i]
	}
	paths, missing := pl.memo.routesOf(g, cs)
	if missing >= 0 {
		return fmt.Errorf("planner: no route %s -> %s", cs[g[missing].parent].Node, cs[missing].Node)
	}
	if pl.checkProperties(g, cs, req) != valid {
		return fmt.Errorf("planner: property compatibility violated")
	}
	if req.RateRPS > 0 {
		if capacity := pl.capacityRPS(g, cs, paths, flowCoeff(g, cs)); req.RateRPS > capacity {
			return fmt.Errorf("planner: rate %.1f exceeds deployment capacity %.1f", req.RateRPS, capacity)
		}
	}
	return nil
}
