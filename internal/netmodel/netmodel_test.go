package netmodel

import (
	"math"
	"testing"

	"partsvc/internal/property"
)

// diamond builds a 4-node test network:
//
//	a --1ms/100-- b --1ms/100-- d
//	a --5ms/10--- c --5ms/10--- d   (insecure)
func diamond(t *testing.T) *Network {
	t.Helper()
	n := New()
	for _, id := range []NodeID{"a", "b", "c", "d"} {
		if err := n.AddNode(Node{ID: id, Props: property.Set{"TrustLevel": property.Int(3)}}); err != nil {
			t.Fatal(err)
		}
	}
	secure := property.Set{"Confidentiality": property.Bool(true)}
	insecure := property.Set{"Confidentiality": property.Bool(false)}
	links := []Link{
		{A: "a", B: "b", LatencyMS: 1, BandwidthMbps: 100, Secure: true, Props: secure.Clone()},
		{A: "b", B: "d", LatencyMS: 1, BandwidthMbps: 100, Secure: true, Props: secure.Clone()},
		{A: "a", B: "c", LatencyMS: 5, BandwidthMbps: 10, Secure: false, Props: insecure.Clone()},
		{A: "c", B: "d", LatencyMS: 5, BandwidthMbps: 10, Secure: false, Props: insecure.Clone()},
	}
	for _, l := range links {
		if err := n.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func TestAddNodeErrors(t *testing.T) {
	n := New()
	if err := n.AddNode(Node{}); err == nil {
		t.Error("empty ID must be rejected")
	}
	if err := n.AddNode(Node{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode(Node{ID: "a"}); err == nil {
		t.Error("duplicate ID must be rejected")
	}
}

func TestAddLinkErrors(t *testing.T) {
	n := New()
	if err := n.AddNode(Node{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode(Node{ID: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink(Link{A: "a", B: "zz"}); err == nil {
		t.Error("unknown endpoint must be rejected")
	}
	if err := n.AddLink(Link{A: "zz", B: "a"}); err == nil {
		t.Error("unknown endpoint must be rejected")
	}
	if err := n.AddLink(Link{A: "a", B: "a"}); err == nil {
		t.Error("self-link must be rejected")
	}
	if err := n.AddLink(Link{A: "a", B: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink(Link{A: "b", B: "a"}); err == nil {
		t.Error("duplicate link (either direction) must be rejected")
	}
}

func TestLinkLookupBidirectional(t *testing.T) {
	n := diamond(t)
	ab, ok := n.Link("a", "b")
	if !ok {
		t.Fatal("a-b link missing")
	}
	ba, ok := n.Link("b", "a")
	if !ok || ab != ba {
		t.Error("link lookup must be direction-independent")
	}
	if _, ok := n.Link("a", "d"); ok {
		t.Error("nonexistent link must not resolve")
	}
}

func TestNodesLinksSorted(t *testing.T) {
	n := diamond(t)
	nodes := n.Nodes()
	if len(nodes) != 4 || nodes[0].ID != "a" || nodes[3].ID != "d" {
		t.Errorf("Nodes() not sorted: %v", nodes)
	}
	links := n.Links()
	if len(links) != 4 {
		t.Fatalf("Links() = %d, want 4", len(links))
	}
	if n.NumNodes() != 4 || n.NumLinks() != 4 {
		t.Error("counts wrong")
	}
	nb := n.Neighbors("a")
	if len(nb) != 2 || nb[0] != "b" || nb[1] != "c" {
		t.Errorf("Neighbors(a) = %v", nb)
	}
}

func TestShortestPathPrefersLowLatency(t *testing.T) {
	n := diamond(t)
	p, ok := n.ShortestPath("a", "d")
	if !ok {
		t.Fatal("path a->d must exist")
	}
	if len(p.Nodes) != 3 || p.Nodes[1] != "b" {
		t.Errorf("path must go via b: %v", p.Nodes)
	}
	if p.LatencyMS != 2 {
		t.Errorf("latency = %v, want 2", p.LatencyMS)
	}
	if p.BottleneckMbps != 100 {
		t.Errorf("bottleneck = %v, want 100", p.BottleneckMbps)
	}
}

func TestShortestPathLoopback(t *testing.T) {
	n := diamond(t)
	p, ok := n.ShortestPath("a", "a")
	if !ok || !p.IsLoopback() || p.LatencyMS != 0 {
		t.Errorf("loopback path wrong: %v %v", p, ok)
	}
	if !math.IsInf(p.BottleneckMbps, 1) {
		t.Error("loopback bottleneck must be +Inf")
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	n := diamond(t)
	if err := n.AddNode(Node{ID: "island"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.ShortestPath("a", "island"); ok {
		t.Error("unreachable node must report no path")
	}
	if _, ok := n.ShortestPath("a", "ghost"); ok {
		t.Error("unknown node must report no path")
	}
	if _, ok := n.ShortestPath("ghost", "a"); ok {
		t.Error("unknown source must report no path")
	}
}

func TestPathEnvSecureAndMixed(t *testing.T) {
	n := diamond(t)
	secure, _ := n.ShortestPath("a", "d") // via b, all secure
	env := secure.Env(n, nil)
	if !env["Confidentiality"].Equal(property.Bool(true)) {
		t.Errorf("all-secure path env = %v", env)
	}
	mixed := Path{Nodes: []NodeID{"a", "c", "d"}}
	env = mixed.Env(n, nil)
	if !env["Confidentiality"].Equal(property.Bool(false)) {
		t.Errorf("insecure path env = %v", env)
	}
	// One secure + one insecure link: min wins.
	two := Path{Nodes: []NodeID{"b", "a", "c"}}
	env = two.Env(n, nil)
	if !env["Confidentiality"].Equal(property.Bool(false)) {
		t.Errorf("mixed path env = %v, want F", env)
	}
}

func TestPathEnvLoopbackUsesSecureEnv(t *testing.T) {
	n := diamond(t)
	lo := Path{Nodes: []NodeID{"a"}}
	env := lo.Env(n, property.Set{"Confidentiality": property.Bool(true)})
	if !env["Confidentiality"].Equal(property.Bool(true)) {
		t.Errorf("loopback env = %v", env)
	}
	if env2 := lo.Env(n, nil); len(env2) != 0 {
		t.Errorf("nil secure env yields empty env, got %v", env2)
	}
}

func TestPathEnvDropsNonCommonProps(t *testing.T) {
	n := New()
	for _, id := range []NodeID{"x", "y", "z"} {
		if err := n.AddNode(Node{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.AddLink(Link{A: "x", B: "y", Props: property.Set{"Confidentiality": property.Bool(true), "QoS": property.Int(5)}}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink(Link{A: "y", B: "z", Props: property.Set{"Confidentiality": property.Bool(true)}}); err != nil {
		t.Fatal(err)
	}
	env := Path{Nodes: []NodeID{"x", "y", "z"}}.Env(n, nil)
	if _, present := env["QoS"]; present {
		t.Error("property absent from one link must be dropped from the path env")
	}
	if !env["Confidentiality"].Equal(property.Bool(true)) {
		t.Error("common property must survive")
	}
}

func TestTranslate(t *testing.T) {
	n := New()
	if err := n.AddNode(Node{ID: "a", Credentials: map[string]string{"trust": "4"}}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode(Node{ID: "b", Credentials: map[string]string{"trust": "2"}, Props: property.Set{"TrustLevel": property.Int(5), "Legacy": property.Bool(true)}}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink(Link{A: "a", B: "b", Secure: true}); err != nil {
		t.Fatal(err)
	}
	nodeFn := func(creds map[string]string) property.Set {
		out := property.Set{}
		if tr := creds["trust"]; tr != "" {
			out["TrustLevel"] = property.Parse(tr)
		}
		return out
	}
	linkFn := func(creds map[string]string) property.Set {
		return property.Set{"Confidentiality": property.Bool(creds["secure"] == "T")}
	}
	n.Translate(nodeFn, linkFn)
	a, _ := n.Node("a")
	if !a.Props["TrustLevel"].Equal(property.Int(4)) {
		t.Errorf("translated trust = %v", a.Props)
	}
	b, _ := n.Node("b")
	if !b.Props["TrustLevel"].Equal(property.Int(2)) {
		t.Errorf("translation must replace hand-set properties: %v", b.Props)
	}
	if _, still := b.Props["Legacy"]; still {
		t.Error("a property no credential produces must be withdrawn")
	}
	l, _ := n.Link("a", "b")
	if !l.Props["Confidentiality"].Equal(property.Bool(true)) {
		t.Errorf("translated link props = %v", l.Props)
	}
	// A downgraded credential lowers the level; a revoked one withdraws it.
	b.Credentials["trust"] = "1"
	delete(a.Credentials, "trust")
	before := n.Routes()
	n.Translate(nodeFn, nil)
	if !b.Props["TrustLevel"].Equal(property.Int(1)) {
		t.Errorf("downgraded trust = %v", b.Props)
	}
	if _, still := a.Props["TrustLevel"]; still {
		t.Errorf("revoked trust must be withdrawn: %v", a.Props)
	}
	if n.Routes() == before {
		t.Error("translation must invalidate the route cache")
	}
	// nil translation funcs leave props alone.
	n.Translate(nil, nil)
	if !b.Props["TrustLevel"].Equal(property.Int(1)) || !l.Props["Confidentiality"].Equal(property.Bool(true)) {
		t.Errorf("nil translation changed props: %v %v", b.Props, l.Props)
	}
}
