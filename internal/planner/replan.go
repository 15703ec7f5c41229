package planner

import (
	"fmt"

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
	// Remove lists old placements no longer referenced by New
	// (candidates for teardown once their state is drained — data views
	// have already pushed their writes through the coherence layer).
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
	var evicted []Placement
	kept := pl.Existing[:0]
	for _, p := range pl.Existing {
		if pl.stillValid(p) {
			kept = append(kept, p)
		} else {
			evicted = append(evicted, p)
		}
	}
	pl.Existing = kept
	if len(evicted) > 0 {
		pl.gen++
	}
	return evicted
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
	pl.beginPlan()
	defer pl.endPlan()
	evicted := pl.RevalidateExisting()
	dep, err := pl.Plan(req)
	if err != nil {
		return nil, fmt.Errorf("planner: replan: %w", err)
	}
	diff := buildDiff(old, dep)
	diff.Evicted = evicted
	return diff, nil
}

// buildDiff computes the install/remove bookkeeping between an old
// deployment and a freshly planned one (shared by Replan and
// RepairReplan).
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

// ReplanRewire runs Replan and puts a no-op result through the rewire
// check.
func (pl *Planner) ReplanRewire(old *Deployment, req Request) (*Diff, error) {
	pl.beginPlan()
	defer pl.endPlan()
	diff, err := pl.Replan(old, req)
	if err != nil {
		return nil, err
	}
	return pl.rewireCheck(old, req, diff), nil
}

// rewireCheck decides whether a no-op adaptation (nothing to install or
// remove, nothing evicted) should nevertheless move the session: the
// network change may have moved the latency optimum away from wiring
// that reuse keeps frozen. Revalidation is validity-scoped (node death,
// condition violations); a link that merely degraded evicts nothing,
// and both a replan (whose anchor cut reuses the old graph wholesale)
// and a pinned repair then answer "unchanged" even though a better
// wiring now exists. The check re-plans with the old deployment's own
// wiring (every placement that links to a provider — the terminals may
// be shared standing infrastructure such as the primary or another
// session's view) removed from the reuse set, so the planner costs
// every graph shape afresh under current routes. The result is adopted only when it places
// differently; otherwise the reuse set is restored and noop returned.
// Same-key placements in an adopted rewire land in Install (the engine
// reinstalls them in place, carrying state), and Remove is restricted
// to the dropped wiring so shared tails keep running. Any other diff
// passes through untouched.
func (pl *Planner) rewireCheck(old *Deployment, req Request, noop *Diff) *Diff {
	if old == nil || len(old.Edges) == 0 || !noop.Unchanged() || len(noop.Evicted) > 0 {
		return noop
	}
	own := make([]Placement, 0, len(old.Placements))
	dropped := map[string]bool{}
	keys := make([]string, 0, len(old.Placements))
	for i, p := range old.Placements {
		if old.hasProvider(i) {
			own = append(own, p)
			dropped[p.Key()] = true
			keys = append(keys, p.Key())
		}
	}
	pl.DropExistingByKey(keys...)
	fresh, err := pl.Replan(old, req)
	if err != nil || sameDeploymentKeys(fresh.New, old) {
		pl.AddExisting(own...)
		return noop
	}
	kept := fresh.Remove[:0]
	for _, p := range fresh.Remove {
		if dropped[p.Key()] {
			kept = append(kept, p)
		}
	}
	fresh.Remove = kept
	return fresh
}

// sameDeploymentKeys reports whether two deployments place the same
// instances (same placement-key sets).
func sameDeploymentKeys(a, b *Deployment) bool {
	if a == nil || b == nil || len(a.Placements) != len(b.Placements) {
		return false
	}
	keys := map[string]bool{}
	for _, p := range a.Placements {
		keys[p.Key()] = true
	}
	for _, p := range b.Placements {
		if !keys[p.Key()] {
			return false
		}
	}
	return true
}
