// Package topology builds networks for planning and emulation: the
// Figure-5 case-study topology, and BRITE-like synthetic Internet
// topologies (Waxman and Barabási–Albert models) used for planner
// scaling studies. The paper generated its emulated network with Boston
// University's BRITE tool; these generators play the same role and are
// fully deterministic given a seed.
package topology

import (
	"fmt"
	"math"
	"math/rand"

	"partsvc/internal/netmodel"
	"partsvc/internal/property"
)

// Site names of the Figure-5 case study.
const (
	SiteNewYork  = "NewYork"
	SiteSanDiego = "SanDiego"
	SiteSeattle  = "Seattle"
)

// Well-known node IDs in the case-study topology.
const (
	NYServer  netmodel.NodeID = "ny-1" // hosts the primary MailServer
	NYClient  netmodel.NodeID = "ny-2"
	NYExtra   netmodel.NodeID = "ny-3"
	SDGateway netmodel.NodeID = "sd-1"
	SDClient  netmodel.NodeID = "sd-2"
	SeaGW     netmodel.NodeID = "sea-1"
	SeaClient netmodel.NodeID = "sea-2"
)

// Case-study site trust levels: the partner organization (Seattle) is
// trusted less than the main and branch offices.
var siteTrust = map[string]int64{
	SiteNewYork:  5,
	SiteSanDiego: 4,
	SiteSeattle:  2,
}

// CaseStudy builds the Figure-5 network: three sites with fast secure
// internal links (0 ms / 100 Mb/s) and slow insecure inter-site links
// (NY–SD 200 ms / 20 Mb/s; SD–Seattle 100 ms / 50 Mb/s; NY–Seattle
// 400 ms / 8 Mb/s). Nodes carry site and trust credentials, links
// whether they are secure; the mail translation turns those into the
// TrustLevel and Confidentiality properties the planner reads.
func CaseStudy() *netmodel.Network {
	n := netmodel.New()
	add := func(id netmodel.NodeID, site string) {
		err := n.AddNode(netmodel.Node{
			ID:             id,
			Site:           site,
			CPUCapacityRPS: 2000,
			Credentials:    map[string]string{"site": site, "trust": fmt.Sprint(siteTrust[site])},
		})
		if err != nil {
			panic(err) // static construction; an error is a programming bug
		}
	}
	add(NYServer, SiteNewYork)
	add(NYClient, SiteNewYork)
	add(NYExtra, SiteNewYork)
	add(SDGateway, SiteSanDiego)
	add(SDClient, SiteSanDiego)
	add(SeaGW, SiteSeattle)
	add(SeaClient, SiteSeattle)

	link := func(a, b netmodel.NodeID, latencyMS, mbps float64, secure bool) {
		err := n.AddLink(netmodel.Link{
			A: a, B: b, LatencyMS: latencyMS, BandwidthMbps: mbps, Secure: secure,
		})
		if err != nil {
			panic(err)
		}
	}
	// Intra-site: secure, 0 ms, 100 Mb/s.
	link(NYServer, NYClient, 0, 100, true)
	link(NYServer, NYExtra, 0, 100, true)
	link(NYClient, NYExtra, 0, 100, true)
	link(SDGateway, SDClient, 0, 100, true)
	link(SeaGW, SeaClient, 0, 100, true)
	// Inter-site: insecure, slow, limited bandwidth (Figure 5).
	link(NYServer, SDGateway, 200, 20, false)
	link(SDGateway, SeaGW, 100, 50, false)
	link(NYServer, SeaGW, 400, 8, false)
	n.Translate(MailTranslation())
	return n
}

// MailTranslation returns the service-specific translation functions for
// the mail service: node "trust" credentials become TrustLevel, link
// "secure" credentials become Confidentiality. This is Section 3.3's
// credential-to-property translation step; every generator in this
// package ends with it.
func MailTranslation() (nodeFn, linkFn netmodel.TranslationFunc) {
	nodeFn = func(creds map[string]string) property.Set {
		out := property.Set{}
		if t := creds["trust"]; t != "" {
			if v := property.Parse(t); v.Kind() == property.KindInt {
				out["TrustLevel"] = v
			}
		}
		if u := creds["user"]; u != "" {
			out["User"] = property.Str(u)
		}
		return out
	}
	linkFn = func(creds map[string]string) property.Set {
		return property.Set{"Confidentiality": property.Bool(creds["secure"] == "T")}
	}
	return nodeFn, linkFn
}

// WaxmanConfig parameterizes the Waxman random-graph model used by
// BRITE's router-level generation.
type WaxmanConfig struct {
	// Nodes is the number of nodes to place.
	Nodes int
	// Alpha scales overall edge probability (0,1].
	Alpha float64
	// Beta controls the relative probability of long edges (0,1].
	Beta float64
	// PlaneSize is the side of the square placement plane.
	PlaneSize float64
	// Seed makes generation deterministic.
	Seed int64
	// MinDegree, when positive, adds edges from isolated or underfull
	// nodes to their nearest neighbors to guarantee connectivity.
	MinDegree int
}

// DefaultWaxman returns BRITE's customary parameters (alpha 0.15,
// beta 0.2) for n nodes.
func DefaultWaxman(n int, seed int64) WaxmanConfig {
	return WaxmanConfig{Nodes: n, Alpha: 0.15, Beta: 0.2, PlaneSize: 1000, Seed: seed, MinDegree: 1}
}

// Waxman generates a Waxman random topology: nodes are placed uniformly
// in the plane and each pair is linked with probability
// alpha * exp(-d / (beta * L)), where d is Euclidean distance and L the
// plane diagonal. Link latency is proportional to distance (1 ms per
// 100 units), bandwidth is drawn from {8, 20, 50, 100} Mb/s, and links
// are secure with probability 1/2. Node trust credentials are drawn
// from 1..5. The result is deterministic for a given config.
func Waxman(cfg WaxmanConfig) (*netmodel.Network, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("topology: Waxman needs at least 1 node, got %d", cfg.Nodes)
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 || cfg.Beta <= 0 || cfg.Beta > 1 {
		return nil, fmt.Errorf("topology: Waxman alpha/beta must be in (0,1], got %v/%v", cfg.Alpha, cfg.Beta)
	}
	if cfg.PlaneSize <= 0 {
		cfg.PlaneSize = 1000
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := netmodel.New()
	type pt struct{ x, y float64 }
	pts := make([]pt, cfg.Nodes)
	ids := make([]netmodel.NodeID, cfg.Nodes)
	for i := range pts {
		pts[i] = pt{rng.Float64() * cfg.PlaneSize, rng.Float64() * cfg.PlaneSize}
		ids[i] = netmodel.NodeID(fmt.Sprintf("w%03d", i))
		if err := n.AddNode(netmodel.Node{
			ID: ids[i], Site: "waxman", CPUCapacityRPS: 2000,
			Credentials: map[string]string{"trust": fmt.Sprint(rng.Intn(5) + 1)},
		}); err != nil {
			return nil, err
		}
	}
	diag := math.Hypot(cfg.PlaneSize, cfg.PlaneSize)
	addLink := func(i, j int) error {
		if _, dup := n.Link(ids[i], ids[j]); dup {
			return nil
		}
		d := math.Hypot(pts[i].x-pts[j].x, pts[i].y-pts[j].y)
		secure := rng.Intn(2) == 0
		bws := []float64{8, 20, 50, 100}
		return n.AddLink(netmodel.Link{
			A: ids[i], B: ids[j],
			LatencyMS:     d / 100,
			BandwidthMbps: bws[rng.Intn(len(bws))],
			Secure:        secure,
		})
	}
	for i := 0; i < cfg.Nodes; i++ {
		for j := i + 1; j < cfg.Nodes; j++ {
			d := math.Hypot(pts[i].x-pts[j].x, pts[i].y-pts[j].y)
			p := cfg.Alpha * math.Exp(-d/(cfg.Beta*diag))
			if rng.Float64() < p {
				if err := addLink(i, j); err != nil {
					return nil, err
				}
			}
		}
	}
	if cfg.MinDegree > 0 {
		// Guarantee global connectivity, not just minimum degree: merge
		// connected components by linking their geometrically closest
		// node pairs (BRITE post-processing does the same).
		comp := make([]int, cfg.Nodes)
		var mark func(i, c int)
		mark = func(i, c int) {
			comp[i] = c
			for _, nb := range n.Neighbors(ids[i]) {
				for j, id := range ids {
					if id == nb && comp[j] == -1 {
						mark(j, c)
					}
				}
			}
		}
		for {
			for i := range comp {
				comp[i] = -1
			}
			nc := 0
			for i := 0; i < cfg.Nodes; i++ {
				if comp[i] == -1 {
					mark(i, nc)
					nc++
				}
			}
			if nc <= 1 {
				break
			}
			// Join component 0 to the nearest node outside it.
			bi, bj, bd := -1, -1, math.Inf(1)
			for i := 0; i < cfg.Nodes; i++ {
				if comp[i] != 0 {
					continue
				}
				for j := 0; j < cfg.Nodes; j++ {
					if comp[j] == 0 {
						continue
					}
					d := math.Hypot(pts[i].x-pts[j].x, pts[i].y-pts[j].y)
					if d < bd {
						bi, bj, bd = i, j, d
					}
				}
			}
			if err := addLink(bi, bj); err != nil {
				return nil, err
			}
		}
		for i := 0; i < cfg.Nodes; i++ {
			for len(n.Neighbors(ids[i])) < cfg.MinDegree {
				// Connect to the nearest unconnected node.
				best, bestD := -1, math.Inf(1)
				for j := 0; j < cfg.Nodes; j++ {
					if j == i {
						continue
					}
					if _, dup := n.Link(ids[i], ids[j]); dup {
						continue
					}
					d := math.Hypot(pts[i].x-pts[j].x, pts[i].y-pts[j].y)
					if d < bestD {
						best, bestD = j, d
					}
				}
				if best < 0 {
					break
				}
				if err := addLink(i, best); err != nil {
					return nil, err
				}
			}
		}
	}
	n.Translate(MailTranslation())
	return n, nil
}

// BarabasiAlbert generates a preferential-attachment topology with n
// nodes where each new node attaches to m existing nodes with
// probability proportional to their degree (BRITE's AS-level model).
// Latency/bandwidth/security assignment matches Waxman's scheme.
func BarabasiAlbert(n, m int, seed int64) (*netmodel.Network, error) {
	if n < 2 || m < 1 || m >= n {
		return nil, fmt.Errorf("topology: BarabasiAlbert needs n >= 2 and 1 <= m < n, got n=%d m=%d", n, m)
	}
	rng := rand.New(rand.NewSource(seed))
	net := netmodel.New()
	ids := make([]netmodel.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = netmodel.NodeID(fmt.Sprintf("b%03d", i))
		if err := net.AddNode(netmodel.Node{
			ID: ids[i], Site: "ba", CPUCapacityRPS: 2000,
			Credentials: map[string]string{"trust": fmt.Sprint(rng.Intn(5) + 1)},
		}); err != nil {
			return nil, err
		}
	}
	addLink := func(i, j int) error {
		if _, dup := net.Link(ids[i], ids[j]); dup || i == j {
			return nil
		}
		secure := rng.Intn(2) == 0
		bws := []float64{8, 20, 50, 100}
		return net.AddLink(netmodel.Link{
			A: ids[i], B: ids[j],
			LatencyMS:     float64(rng.Intn(40) + 1),
			BandwidthMbps: bws[rng.Intn(len(bws))],
			Secure:        secure,
		})
	}
	// Degree-weighted target list (each edge endpoint appears once).
	var targets []int
	// Seed clique over the first m+1 nodes.
	for i := 0; i <= m && i < n; i++ {
		for j := 0; j < i; j++ {
			if err := addLink(i, j); err != nil {
				return nil, err
			}
			targets = append(targets, i, j)
		}
	}
	for i := m + 1; i < n; i++ {
		chosen := map[int]bool{}
		for len(chosen) < m {
			var t int
			if len(targets) == 0 {
				t = rng.Intn(i)
			} else {
				t = targets[rng.Intn(len(targets))]
			}
			if t != i {
				chosen[t] = true
			}
		}
		for t := range chosen {
			if err := addLink(i, t); err != nil {
				return nil, err
			}
		}
		// Update target list deterministically (sorted insertion order).
		for t := 0; t < i; t++ {
			if chosen[t] {
				targets = append(targets, i, t)
			}
		}
	}
	net.Translate(MailTranslation())
	return net, nil
}
