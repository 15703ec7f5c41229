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

// Replan revalidates the reuse set against the current network and
// plans the request afresh, returning the adaptation diff relative to
// old (which may be nil for a first deployment). The old deployment's
// placements are assumed to be registered via AddExisting.
func (pl *Planner) Replan(old *Deployment, req Request) (*Diff, error) {
	return pl.replan(old, req, math.Inf(1))
}

// replan is Replan with its plan seeded at ub (see plan).
func (pl *Planner) replan(old *Deployment, req Request, ub float64) (*Diff, error) {
	pl.beginPlan()
	defer pl.endPlan()
	evicted := pl.RevalidateExisting()
	dep, err := pl.plan(req, ub)
	if err != nil {
		return nil, fmt.Errorf("planner: replan: %w", err)
	}
	diff := buildDiff(old, dep)
	diff.Evicted = evicted
	return diff, nil
}

// buildDiff computes the install/remove bookkeeping between an old
// deployment and a freshly planned one (shared by Replan and
// RepairReplan): Install is what New does not reuse, Remove what of
// the old deployment New no longer holds.
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
	// Verify is a public entry point of its own: it reads the
	// epoch-current routes even on a planner pinned to a wave's.
	pl.beginPlanOn(pl.Net.Routes())
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
