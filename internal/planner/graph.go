package planner

import (
	"fmt"
	"strings"

	"partsvc/internal/spec"
)

// The paper's implemented planner handles chains and announces a
// partial-order constraint solver for general directed component graphs
// (Section 3.3). This package has one linkage-graph shape for both: a
// tree in pre-order, where a component with several required interfaces
// obtains one provider subtree per requirement. A chain is the tree in
// which every component requires at most one interface.

// graphNode is one position of a linkage graph: either a specification
// component to be instantiated, or an anchor — an already-deployed
// instance that terminates its branch (incremental planning links new
// components to existing ones, as when the Seattle clients attach to the
// ViewMailServer already running in San Diego).
type graphNode struct {
	comp   *spec.Component
	anchor *cand // non-nil: existing instance; pinned there and a leaf
	// parent is the position of the client this one serves (-1 at the
	// head) and iface the interface it serves it over: the client's
	// required interface this position provides ("" at the head, which
	// serves the requested interface).
	parent int
	iface  string
	// end is one past the last position of the subtree rooted here. The
	// providers of position i, in the order of its component's Requires,
	// are i+1, graph[i+1].end, ... while below graph[i].end.
	end int
}

// Graph is a valid linkage graph, positions in pre-order: position 0
// implements the requested interface, every position's required
// interfaces are provided by its child subtrees in declaration order,
// and every leaf either requires nothing or is an anchor. Graphs are
// immutable.
type Graph []graphNode

// Branches reports whether some position links to more than one
// provider. A graph that does not branch is a chain, and Components
// reads from the client side to the terminal provider.
func (g Graph) Branches() bool {
	for i := 1; i < len(g); i++ {
		if g[i].parent != i-1 {
			return true
		}
	}
	return false
}

// Components returns the component names of the graph in pre-order;
// anchors are suffixed with "*".
func (g Graph) Components() []string {
	out := make([]string, len(g))
	for i, n := range g {
		out[i] = n.comp.Name
		if n.anchor != nil {
			out[i] += "*"
		}
	}
	return out
}

// Names renders the graph as a nested expression, e.g.
// "Portal(Encryptor2(Server), LogServer)".
func (g Graph) Names() string {
	var b strings.Builder
	g.names(&b, 0)
	return b.String()
}

func (g Graph) names(b *strings.Builder, i int) {
	b.WriteString(g[i].comp.Name)
	if g[i].anchor != nil {
		b.WriteByte('*')
	}
	if g[i].end == i+1 {
		return
	}
	b.WriteByte('(')
	for c := i + 1; c < g[i].end; c = g[c].end {
		if c > i+1 {
			b.WriteString(", ")
		}
		g.names(b, c)
	}
	b.WriteByte(')')
}

// EnumerateGraphs performs step 1 of planning (Section 3.3, "Finding
// valid linkages"): starting from the requested interface, it finds the
// components that implement it and recurses through each of their
// required interfaces, stopping at components with no requirements or at
// already-deployed instances that implement the needed interface.
// Components may repeat along a branch (a ViewMailServer may link to
// another ViewMailServer); enumeration is bounded by MaxChainLen
// components per graph. Within a planner call the result is computed
// once per reuse-set generation.
//
// For the mail service this reproduces Figure 3: every path from
// MailClient or ViewMailClient to MailServer, optionally passing through
// ViewMailServers and Encryptor-Decryptor pairs.
func (pl *Planner) EnumerateGraphs(iface string) []Graph {
	pl.beginPlan()
	defer pl.endPlan()
	return pl.enumerate(iface)
}

func (pl *Planner) enumerate(iface string) []Graph {
	ru := pl.reuseNow()
	if graphs, ok := ru.graphs[iface]; ok {
		return graphs
	}
	// choices lists what can provide an interface, in enumeration order:
	// first the existing instances that implement it — they terminate the
	// branch, their recorded effective properties standing in for the
	// whole already-deployed upstream linkage — then its implementers in
	// declaration order.
	choices := map[string][]graphNode{}
	choicesFor := func(iface string) []graphNode {
		c, ok := choices[iface]
		if !ok {
			c = ru.anchorsFor(pl, iface)
			for _, comp := range pl.implementersOf(iface) {
				c = append(c, graphNode{comp: comp})
			}
			choices[iface] = c
		}
		return c
	}
	// Depth-first over the pre-order: prefix holds the positions chosen
	// so far and pending the requirements still to provide, the next one
	// on top. Every pending requirement takes at least one more position.
	type need struct {
		client int
		iface  string
	}
	var (
		graphs  []Graph
		prefix  Graph
		pending = []need{{client: -1, iface: iface}}
		grow    func()
	)
	grow = func() {
		if len(pending) == 0 {
			g := make(Graph, len(prefix))
			copy(g, prefix)
			for i := len(g) - 1; i >= 0; i-- {
				g[i].end = max(g[i].end, i+1)
				if p := g[i].parent; p >= 0 {
					g[p].end = max(g[p].end, g[i].end)
				}
			}
			graphs = append(graphs, g)
			return
		}
		if len(prefix)+len(pending) > pl.maxLen() {
			return
		}
		next := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		for _, n := range choicesFor(next.iface) {
			if n.parent = next.client; n.parent >= 0 {
				n.iface = next.iface
			}
			prefix = append(prefix, n)
			if n.anchor == nil {
				for k := len(n.comp.Requires) - 1; k >= 0; k-- {
					pending = append(pending, need{len(prefix) - 1, n.comp.Requires[k].Name})
				}
			}
			grow()
			prefix = prefix[:len(prefix)-1]
			if n.anchor == nil {
				pending = pending[:len(pending)-len(n.comp.Requires)]
			}
		}
		pending = append(pending, next)
	}
	grow()
	ru.graphs[iface] = graphs
	return graphs
}

// anchorsFor lists the registered instances that can terminate a
// linkage over iface: they implement it and have recorded effective
// properties to stand in for their already-deployed upstream.
func (ru *reuseSet) anchorsFor(pl *Planner, iface string) []graphNode {
	var out []graphNode
	for i := range ru.existing {
		e := &ru.existing[i]
		comp, ok := pl.component(e.Component)
		if !ok {
			continue
		}
		if _, implements := comp.ImplementsInterface(iface); implements && len(e.Offers) > 0 {
			out = append(out, graphNode{comp: comp, anchor: e})
		}
	}
	return out
}

// graphOf reconstructs the linkage graph of a deployment from its
// edges: placements are in pre-order, edge k links placement k+1 to its
// client over one of the client's required interfaces, and providers
// come in the order the client's component declares its requirements. A
// reused leaf whose component still requires an interface is an anchor
// terminal, exactly as in incremental planning. Anything else — a
// placement no edge links, a foreign component, a provider that does not
// implement the linking interface — is an error.
func (pl *Planner) graphOf(dep *Deployment) (Graph, error) {
	if dep == nil || len(dep.Placements) == 0 {
		return nil, fmt.Errorf("planner: empty deployment")
	}
	if len(dep.Edges) != len(dep.Placements)-1 {
		return nil, fmt.Errorf("planner: deployment has %d placements but %d edges: it does not say who links to whom",
			len(dep.Placements), len(dep.Edges))
	}
	g := make(Graph, len(dep.Placements))
	for i, p := range dep.Placements {
		comp, ok := pl.component(p.Component)
		if !ok {
			return nil, fmt.Errorf("planner: unknown component %q", p.Component)
		}
		g[i] = graphNode{comp: comp, parent: -1, end: i + 1}
	}
	provided := make([]int, len(g)) // requirements of each position linked so far
	for k, e := range dep.Edges {
		to := k + 1
		// Pre-order: the client is the previous placement or one of its
		// ancestors.
		on := to - 1
		for on > e.From && e.From >= 0 {
			on = g[on].parent
		}
		if e.To != to || on != e.From {
			return nil, fmt.Errorf("planner: edge %d (%d -> %d) is not in pre-order", k, e.From, e.To)
		}
		client := g[e.From].comp
		if provided[e.From] >= len(client.Requires) || client.Requires[provided[e.From]].Name != e.Iface {
			return nil, fmt.Errorf("planner: %q has no requirement %q left for provider %q",
				client.Name, e.Iface, g[to].comp.Name)
		}
		if _, ok := g[to].comp.ImplementsInterface(e.Iface); !ok {
			return nil, fmt.Errorf("planner: %q does not implement %q required by %q",
				g[to].comp.Name, e.Iface, client.Name)
		}
		provided[e.From]++
		g[to].parent, g[to].iface = e.From, e.Iface
		for a := e.From; a >= 0; a = g[a].parent {
			g[a].end = to + 1
		}
	}
	for i, p := range dep.Placements {
		switch comp := g[i].comp; {
		case provided[i] == len(comp.Requires):
		case provided[i] == 0 && p.Reused:
			c := pl.memo.candOf(p)
			g[i].anchor = &c
		default:
			return nil, fmt.Errorf("planner: %s links %d of its %d required interfaces",
				p, provided[i], len(comp.Requires))
		}
	}
	return g, nil
}
