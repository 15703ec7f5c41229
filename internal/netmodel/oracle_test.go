package netmodel

// The references the route cache is checked against. They live here,
// beside the tests, because production code asks the cache.

import (
	"math"

	"partsvc/internal/property"
)

// Env returns the aggregate service-property environment of the path:
// the property-wise minimum across all links (a path is only as secure
// or as trusted as its weakest link). Loopback paths return secureEnv,
// the environment of intra-node communication supplied by the caller.
func (p Path) Env(n *Network, secureEnv property.Set) property.Set {
	if p.IsLoopback() {
		return secureEnv.Clone()
	}
	var env property.Set
	for i := 0; i+1 < len(p.Nodes); i++ {
		l, ok := n.Link(p.Nodes[i], p.Nodes[i+1])
		if !ok {
			return property.Set{}
		}
		if env == nil {
			env = l.Props.Clone()
			continue
		}
		for name, v := range env {
			lv, ok := l.Props[name]
			if !ok {
				delete(env, name)
				continue
			}
			m := property.Min(v, lv)
			if !m.IsValid() {
				delete(env, name)
				continue
			}
			env[name] = m
		}
		for name := range l.Props {
			if _, ok := env[name]; !ok {
				delete(env, name)
			}
		}
	}
	if env == nil {
		env = property.Set{}
	}
	return env
}

// ShortestPath returns the minimum-latency path between two nodes; ok
// is false if no path exists. It answers from the epoch-current route
// cache (see Routes); the returned Path shares cache-owned slices and
// must be treated as read-only. Hot loops should hold a Routes()
// handle instead, which skips the per-call epoch check.
func (n *Network) ShortestPath(from, to NodeID) (Path, bool) {
	return n.Routes().Path(from, to)
}

// shortestPathUncached is the reference Dijkstra implementation
// (linear extraction over maps). The route cache must agree with it
// path-for-path; tests assert that equivalence.
func (n *Network) shortestPathUncached(from, to NodeID) (Path, bool) {
	if src, exists := n.nodes[from]; !exists || src.Down {
		return Path{}, false
	}
	if dst, exists := n.nodes[to]; !exists || dst.Down {
		return Path{}, false
	}
	if from == to {
		return Path{Nodes: []NodeID{from}, BottleneckMbps: math.Inf(1)}, true
	}
	dist := map[NodeID]float64{from: 0}
	prev := map[NodeID]NodeID{}
	visited := map[NodeID]bool{}
	for len(visited) < len(n.nodes) {
		// Linear extraction keeps the implementation simple; planner
		// networks are small (tens of nodes). Ties broken by ID for
		// determinism.
		var cur NodeID
		best := math.Inf(1)
		found := false
		for id, d := range dist {
			if visited[id] {
				continue
			}
			if d < best || (d == best && (!found || id < cur)) {
				best, cur, found = d, id, true
			}
		}
		if !found {
			break
		}
		if cur == to {
			break
		}
		visited[cur] = true
		for _, nb := range n.adj[cur] {
			// A down node cannot forward or terminate traffic: its links
			// are absent from routing.
			if visited[nb] || n.nodes[nb].Down {
				continue
			}
			l, _ := n.Link(cur, nb)
			nd := dist[cur] + l.LatencyMS
			// Strict improvement only: with zero-latency links an
			// equal-distance rewrite could make prev cyclic. Extraction
			// order is already deterministic (ties broken by node ID).
			if d, seen := dist[nb]; !seen || nd < d {
				dist[nb] = nd
				prev[nb] = cur
			}
		}
	}
	if _, reached := dist[to]; !reached {
		return Path{}, false
	}
	var nodes []NodeID
	for at := to; ; {
		nodes = append(nodes, at)
		if at == from {
			break
		}
		at = prev[at]
	}
	for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	p := Path{Nodes: nodes, LatencyMS: dist[to], BottleneckMbps: math.Inf(1)}
	for i := 0; i+1 < len(nodes); i++ {
		l, _ := n.Link(nodes[i], nodes[i+1])
		if l.BandwidthMbps < p.BottleneckMbps {
			p.BottleneckMbps = l.BandwidthMbps
		}
	}
	return p, true
}
