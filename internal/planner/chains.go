package planner

import "partsvc/internal/spec"

// chainElem is one position in a linkage chain: either a specification
// component to be instantiated, or an anchor — an already-deployed
// instance that terminates the chain (incremental planning links new
// components to existing ones, as when the Seattle clients attach to the
// ViewMailServer already running in San Diego).
type chainElem struct {
	comp   *spec.Component
	anchor *Placement // non-nil: existing instance; pinned and terminal
	// pinned is the anchor as the position's one-candidate domain;
	// anchor points into it.
	pinned []cand
}

// isAnchor reports whether the element is an existing-instance terminal.
func (e chainElem) isAnchor() bool { return e.anchor != nil }

// Chain is a valid linkage chain: element 0 implements the requested
// interface, each element's required interface is implemented by the
// next, and the final element either requires nothing or is an anchor.
type Chain []chainElem

// Names returns the component names of the chain; anchors are suffixed
// with "*".
func (c Chain) Names() []string {
	out := make([]string, len(c))
	for i, e := range c {
		out[i] = e.comp.Name
		if e.isAnchor() {
			out[i] += "*"
		}
	}
	return out
}

// linkIface returns the interface over which elements i and i+1 of the
// chain are linked (the required interface of element i).
func (c Chain) linkIface(i int) string {
	return c[i].comp.Requires[0].Name
}

// EnumerateChains performs step 1 of planning (Section 3.3, "Finding
// valid linkages"): starting from the requested interface, it finds the
// components that implement it and recurses through their required
// interfaces, stopping at components with no requirements or at
// already-deployed instances that implement the needed interface.
// Components may repeat along a chain (a ViewMailServer may link to
// another ViewMailServer); enumeration is bounded by MaxChainLen.
// Components with more than one required interface do not form chains
// and are left to the tree planner.
//
// For the mail service this reproduces Figure 3: every path from
// MailClient or ViewMailClient to MailServer, optionally passing through
// ViewMailServers and Encryptor-Decryptor pairs.
func (pl *Planner) EnumerateChains(iface string) []Chain {
	pl.beginPlan()
	defer pl.endPlan()
	ru := pl.reuseNow()
	var out []Chain
	var prefix Chain
	emit := func(last chainElem) {
		chain := make(Chain, len(prefix)+1)
		copy(chain, prefix)
		chain[len(prefix)] = last
		out = append(out, chain)
	}
	var recurse func(iface string)
	recurse = func(iface string) {
		if len(prefix) >= pl.maxLen() {
			return
		}
		// Existing instances that implement the interface terminate the
		// chain; their recorded effective properties stand in for the
		// whole already-deployed upstream linkage.
		for _, a := range ru.anchorsFor(pl, iface) {
			emit(a)
		}
		for _, comp := range pl.implementersOf(iface) {
			switch len(comp.Requires) {
			case 0:
				emit(chainElem{comp: comp})
			case 1:
				prefix = append(prefix, chainElem{comp: comp})
				recurse(comp.Requires[0].Name)
				prefix = prefix[:len(prefix)-1]
			default:
				// Not a chain; the tree planner handles multi-requires.
			}
		}
	}
	recurse(iface)
	return out
}
