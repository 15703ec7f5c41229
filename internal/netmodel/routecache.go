package netmodel

import (
	"math"
	"sync"
	"sync/atomic"

	"partsvc/internal/property"
)

// RouteCache is an epoch-versioned all-pairs shortest-path cache over a
// Network. It interns node IDs into a dense index table, runs a
// binary-heap Dijkstra over flat arrays (no per-step map allocation),
// and materializes one single-source tree lazily per source: every
// target's Path — including its bottleneck bandwidth and its aggregate
// link-property environment — is computed once per epoch and then served
// allocation-free.
//
// Lookups come in two forms. Path and PathEnv take node IDs and count
// themselves. Index and PathAt are the planner's inner-loop form: a
// node ID is resolved to its dense index once, PathAt is two array
// reads and an atomic load, and the caller reports how many it made
// through AddLookups when its plan call ends — one shared counter
// touched once per plan instead of once per lookup.
//
// Cached Path values and environment Sets are shared across callers and
// MUST be treated as read-only. The cache is safe for concurrent use;
// the fleet's shard planners hit it from many goroutines.
//
// Topology mutators (AddNode, AddLink, Translate, and the netmon
// monitor's report methods) bump the owning Network's route epoch;
// Network.Routes then discards this cache and hands out a fresh one, so
// a stale cache is never observable through the Network API.
type RouteCache struct {
	epoch uint64

	ids  []NodeID         // dense index -> node ID, sorted by ID
	idx  map[NodeID]int32 // node ID -> dense index
	down []bool           // per dense index: node was down at interning time

	// CSR adjacency over dense indices.
	adjStart []int32
	adjNode  []int32
	adjLat   []float64
	adjBW    []float64
	adjProps []property.Set

	loopback []Path // per-node single-element paths, built once

	// trees holds one tree per source index, nil until first queried.
	// Readers load the pointer; mu serializes the builders.
	mu    sync.Mutex
	trees []atomic.Pointer[spTree]

	// lookups counts every served lookup, misses the ones that had to
	// build the source's tree; hits are the difference.
	lookups, misses atomic.Uint64
}

// spTree is the materialized single-source shortest-path tree: per
// target, the full Path and the aggregate link-property environment
// (nil for loopback or unreachable targets). Immutable once built.
// parent records each target's Dijkstra predecessor (dense index, -1
// for the source and unreachable nodes), so a link delta can decide in
// O(1) whether the tree routes through a changed edge.
type spTree struct {
	paths  []Path
	envs   []property.Set
	reach  []bool
	parent []int32
}

// usesEdge reports whether the tree routes through the undirected edge
// (a, b): tree paths are exactly the parent-pointer chains, so the edge
// is used iff it is a tree edge in either direction.
func (t *spTree) usesEdge(a, b int32) bool {
	return t.parent[b] == a || t.parent[a] == b
}

// newRouteCache interns the network's nodes and links into dense arrays.
// Trees are built lazily per source on first lookup.
func newRouteCache(n *Network, epoch uint64) *RouteCache {
	nodes := n.Nodes() // sorted by ID: dense index order == ID order
	rc := &RouteCache{
		epoch:    epoch,
		ids:      make([]NodeID, len(nodes)),
		idx:      make(map[NodeID]int32, len(nodes)),
		down:     make([]bool, len(nodes)),
		loopback: make([]Path, len(nodes)),
		trees:    make([]atomic.Pointer[spTree], len(nodes)),
	}
	for i, node := range nodes {
		rc.ids[i] = node.ID
		rc.idx[node.ID] = int32(i)
		rc.down[i] = node.Down
		rc.loopback[i] = Path{Nodes: rc.ids[i : i+1], BottleneckMbps: math.Inf(1)}
	}
	// Edges touching a down node are absent from the interned adjacency:
	// a crashed node neither forwards nor terminates traffic. The CSR
	// counts are computed over the same filter.
	rc.adjStart = make([]int32, len(nodes)+1)
	for i, id := range rc.ids {
		kept := 0
		if !rc.down[i] {
			for _, nb := range n.adj[id] {
				if !n.nodes[nb].Down {
					kept++
				}
			}
		}
		rc.adjStart[i+1] = rc.adjStart[i] + int32(kept)
	}
	total := rc.adjStart[len(nodes)]
	rc.adjNode = make([]int32, 0, total)
	rc.adjLat = make([]float64, 0, total)
	rc.adjBW = make([]float64, 0, total)
	rc.adjProps = make([]property.Set, 0, total)
	for i, id := range rc.ids {
		if rc.down[i] {
			continue
		}
		for _, nb := range n.adj[id] {
			if n.nodes[nb].Down {
				continue
			}
			l, _ := n.Link(id, nb)
			rc.adjNode = append(rc.adjNode, rc.idx[nb])
			rc.adjLat = append(rc.adjLat, l.LatencyMS)
			rc.adjBW = append(rc.adjBW, l.BandwidthMbps)
			rc.adjProps = append(rc.adjProps, l.Props)
		}
	}
	return rc
}

// Epoch returns the network epoch this cache was built against.
func (rc *RouteCache) Epoch() uint64 { return rc.epoch }

// NumNodes returns the number of interned nodes.
func (rc *RouteCache) NumNodes() int { return len(rc.ids) }

// NodeIDs returns the interned node identifiers in ascending order. The
// slice is owned by the cache and must be treated as read-only.
func (rc *RouteCache) NodeIDs() []NodeID { return rc.ids }

// Index returns the node's dense index in this cache (the position of
// its ID in NodeIDs), for PathAt.
func (rc *RouteCache) Index(id NodeID) (int32, bool) {
	i, ok := rc.idx[id]
	return i, ok
}

// Counters returns the cumulative hit and miss counts. A miss is a
// lookup that had to build the source's shortest-path tree; every other
// served lookup is a hit. PathAt lookups appear once their caller has
// reported them through AddLookups.
func (rc *RouteCache) Counters() (hits, misses uint64) {
	misses = rc.misses.Load()
	lookups := rc.lookups.Load()
	if lookups < misses { // a PathAt miss whose batch is still unreported
		return 0, misses
	}
	return lookups - misses, misses
}

// AddLookups reports n PathAt calls.
func (rc *RouteCache) AddLookups(n uint64) { rc.lookups.Add(n) }

// deltaLink builds the next-epoch cache after the single link (a, b)
// changed latency or bandwidth, reusing everything the change cannot
// have touched: the node interning, the CSR adjacency structure, and —
// when the change is non-improving — every shortest-path tree that does
// not route through the edge.
//
// Correctness of tree reuse: if no latency decreased, no new shorter
// path can appear anywhere, so every source whose tree avoids (a, b)
// keeps identical distances; and because the relaxation discipline is
// strict-improvement with deterministic tie-breaks, the fresh build
// would reproduce the identical parent choices (the changed edge's
// offers only got worse, so it loses every comparison it already lost).
// Bandwidth and link-property values only affect paths that traverse
// the edge, which reuse already excludes. A latency *decrease* can
// reroute any source, so it drops all trees (the interning is still
// reused). Returns nil when the delta cannot be applied (unknown link
// or property-set changes, which alias shared maps); the caller falls
// back to a full rebuild.
func (rc *RouteCache) deltaLink(n *Network, epoch uint64, a, b NodeID) *RouteCache {
	ai, aok := rc.idx[a]
	bi, bok := rc.idx[b]
	if !aok || !bok {
		return nil
	}
	link, ok := n.Link(a, b)
	if !ok {
		return nil
	}
	nc := &RouteCache{
		epoch:    epoch,
		ids:      rc.ids,
		idx:      rc.idx,
		down:     rc.down,
		loopback: rc.loopback,
		adjStart: rc.adjStart,
		adjNode:  rc.adjNode,
		trees:    make([]atomic.Pointer[spTree], len(rc.ids)),
	}
	eab := rc.edgeIndex(ai, bi)
	eba := rc.edgeIndex(bi, ai)
	if eab < 0 || eba < 0 {
		// The edge was filtered out at interning time (an endpoint was
		// down): the routable topology is unchanged, keep everything.
		nc.adjLat, nc.adjBW, nc.adjProps = rc.adjLat, rc.adjBW, rc.adjProps
		for src := range rc.trees {
			if t := rc.trees[src].Load(); t != nil {
				nc.trees[src].Store(t)
			}
		}
		return nc
	}
	improved := link.LatencyMS < rc.adjLat[eab]
	nc.adjLat = append([]float64(nil), rc.adjLat...)
	nc.adjBW = append([]float64(nil), rc.adjBW...)
	nc.adjProps = rc.adjProps
	for _, ei := range []int32{eab, eba} {
		nc.adjLat[ei] = link.LatencyMS
		nc.adjBW[ei] = link.BandwidthMbps
	}
	if !improved {
		for src := range rc.trees {
			if t := rc.trees[src].Load(); t != nil && !t.usesEdge(ai, bi) {
				nc.trees[src].Store(t)
			}
		}
	}
	return nc
}

// Path returns the cached minimum-latency path between two nodes; ok is
// false if either node is unknown or no path exists. The returned Path
// shares cache-owned slices and must not be mutated.
func (rc *RouteCache) Path(from, to NodeID) (Path, bool) {
	p, _, ok := rc.PathEnv(from, to)
	return p, ok
}

// PathEnv returns the cached path together with its aggregate
// link-property environment (the property-wise minimum across the
// path's links). env is nil for loopback paths —
// the caller supplies the intra-node environment — and must be treated
// as read-only otherwise.
func (rc *RouteCache) PathEnv(from, to NodeID) (Path, property.Set, bool) {
	fi, ok := rc.idx[from]
	if !ok {
		return Path{}, nil, false
	}
	ti, ok := rc.idx[to]
	if !ok {
		return Path{}, nil, false
	}
	if !rc.down[fi] && !rc.down[ti] {
		rc.lookups.Add(1)
	}
	return rc.PathAt(fi, ti)
}

// PathAt is PathEnv by dense index (see Index). It does not count
// itself: the caller reports its lookups through AddLookups.
func (rc *RouteCache) PathAt(from, to int32) (Path, property.Set, bool) {
	if rc.down[from] || rc.down[to] {
		return Path{}, nil, false
	}
	if from == to {
		return rc.loopback[from], nil, true
	}
	t := rc.trees[from].Load()
	if t == nil {
		t = rc.buildOnce(from)
	}
	if !t.reach[to] {
		return Path{}, nil, false
	}
	return t.paths[to], t.envs[to], true
}

// buildOnce builds the single-source tree of src unless another caller
// got there first, and counts the miss.
func (rc *RouteCache) buildOnce(src int32) *spTree {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if t := rc.trees[src].Load(); t != nil {
		return t
	}
	rc.misses.Add(1)
	t := rc.buildTree(src)
	rc.trees[src].Store(t)
	return t
}

// buildTree runs heap Dijkstra from src over the dense adjacency and
// materializes every target's Path, bottleneck, and environment. The
// extraction order (ties broken by node index, i.e. by node ID) and the
// strict-improvement relaxation match the uncached reference Dijkstra
// in the tests exactly, so cached paths are identical to its paths.
func (rc *RouteCache) buildTree(src int32) *spTree {
	n := len(rc.ids)
	dist := make([]float64, n)
	prev := make([]int32, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0

	// order records the extraction sequence (src first): a node's
	// predecessor is always extracted before it, which is exactly the
	// ordering the materialization pass below needs.
	order := make([]int32, 0, n)
	h := &spHeap{items: make([]spItem, 0, n)}
	h.push(spItem{0, src})
	for h.len() > 0 {
		it := h.pop()
		if done[it.node] {
			continue // stale entry superseded by a shorter one
		}
		done[it.node] = true
		order = append(order, it.node)
		for ei := rc.adjStart[it.node]; ei < rc.adjStart[it.node+1]; ei++ {
			nb := rc.adjNode[ei]
			if done[nb] {
				continue
			}
			// Strict improvement only, mirroring the reference: with
			// zero-latency links an equal-distance rewrite could make
			// prev cyclic.
			if nd := it.dist + rc.adjLat[ei]; nd < dist[nb] {
				dist[nb] = nd
				prev[nb] = it.node
				h.push(spItem{nd, nb})
			}
		}
	}

	t := &spTree{
		paths:  make([]Path, n),
		envs:   make([]property.Set, n),
		reach:  make([]bool, n),
		parent: prev,
	}
	t.reach[src] = true
	t.paths[src] = rc.loopback[src]
	// Materialize targets in extraction order so each node's parent is
	// already materialized: path slices are built by appending one hop
	// to the parent's (copied) node list, and the environment and
	// bottleneck fold incrementally (min/intersection is associative
	// and commutative, so folding source-out equals the
	// reference Path.Env's head-to-tail fold).
	bneck := make([]float64, n)
	bneck[src] = math.Inf(1)
	for _, ti := range order {
		if ti == src {
			continue
		}
		pi := prev[ti]
		ei := rc.edgeIndex(pi, ti)
		parent := t.paths[pi].Nodes
		nodes := make([]NodeID, len(parent)+1)
		copy(nodes, parent)
		nodes[len(parent)] = rc.ids[ti]
		bneck[ti] = math.Min(bneck[pi], rc.adjBW[ei])
		t.paths[ti] = Path{Nodes: nodes, LatencyMS: dist[ti], BottleneckMbps: bneck[ti]}
		t.envs[ti] = foldEnv(t.envs[pi], pi == src, rc.adjProps[ei])
		t.reach[ti] = true
	}
	return t
}

// edgeIndex finds the CSR edge from a to b (always present for tree
// edges).
func (rc *RouteCache) edgeIndex(a, b int32) int32 {
	for ei := rc.adjStart[a]; ei < rc.adjStart[a+1]; ei++ {
		if rc.adjNode[ei] == b {
			return ei
		}
	}
	return -1
}

// foldEnv extends a parent path environment across one more link:
// property-wise minimum over the intersection of property names, the
// same aggregation as the reference Path.Env in the tests.
func foldEnv(parent property.Set, parentIsSource bool, link property.Set) property.Set {
	if parentIsSource {
		return link.Clone()
	}
	env := property.Set{}
	for name, v := range parent {
		lv, ok := link[name]
		if !ok {
			continue
		}
		if m := property.Min(v, lv); m.IsValid() {
			env[name] = m
		}
	}
	return env
}

// spItem is one heap entry: a tentative distance to a node.
type spItem struct {
	dist float64
	node int32
}

// spHeap is a binary min-heap over (dist, node), ties broken by node
// index so extraction order is deterministic.
type spHeap struct{ items []spItem }

func (h *spHeap) len() int { return len(h.items) }

func (h *spHeap) less(a, b spItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.node < b.node
}

func (h *spHeap) push(it spItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.items[i], h.items[p]) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *spHeap) pop() spItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.items) && h.less(h.items[l], h.items[small]) {
			small = l
		}
		if r < len(h.items) && h.less(h.items[r], h.items[small]) {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}
