package topology

import (
	"testing"

	"partsvc/internal/netmodel"
	"partsvc/internal/property"
)

// TestCaseStudyMatchesFigure5 checks the emulated topology against the
// paper's Figure 5: three sites, secure fast intra-site links, and the
// three inter-site links with the published latency/bandwidth figures.
func TestCaseStudyMatchesFigure5(t *testing.T) {
	n := CaseStudy()
	if n.NumNodes() != 7 {
		t.Errorf("nodes = %d, want 7", n.NumNodes())
	}
	cases := []struct {
		a, b    netmodel.NodeID
		lat, bw float64
		secure  bool
	}{
		{NYServer, SDGateway, 200, 20, false},
		{SDGateway, SeaGW, 100, 50, false},
		{NYServer, SeaGW, 400, 8, false},
		{NYServer, NYClient, 0, 100, true},
		{SDGateway, SDClient, 0, 100, true},
		{SeaGW, SeaClient, 0, 100, true},
	}
	for _, c := range cases {
		l, ok := n.Link(c.a, c.b)
		if !ok {
			t.Errorf("link %s-%s missing", c.a, c.b)
			continue
		}
		if l.LatencyMS != c.lat || l.BandwidthMbps != c.bw || l.Secure != c.secure {
			t.Errorf("link %s-%s = %vms/%vMbps secure=%v; want %v/%v/%v",
				c.a, c.b, l.LatencyMS, l.BandwidthMbps, l.Secure, c.lat, c.bw, c.secure)
		}
		if !l.Props["Confidentiality"].Equal(property.Bool(c.secure)) {
			t.Errorf("link %s-%s confidentiality property not translated", c.a, c.b)
		}
	}
}

// TestCaseStudyTrustLevels: every generator's node and link properties
// are exactly the mail translation of its credentials, so no hand-set
// property can creep back beside them; and the case study's
// credentials carry the per-site trust levels of Figure 5.
func TestCaseStudyTrustLevels(t *testing.T) {
	waxman, err := Waxman(DefaultWaxman(32, 5))
	if err != nil {
		t.Fatal(err)
	}
	ba, err := BarabasiAlbert(40, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	nodeFn, linkFn := MailTranslation()
	for name, n := range map[string]*netmodel.Network{"case study": CaseStudy(), "waxman": waxman, "barabasi-albert": ba} {
		for _, node := range n.Nodes() {
			if want := nodeFn(node.Credentials); !sameProps(node.Props, want) {
				t.Errorf("%s: node %s props %v, want the translation %v of %v", name, node.ID, node.Props, want, node.Credentials)
			}
		}
		for _, l := range n.Links() {
			creds := map[string]string{"secure": "F"}
			if l.Secure {
				creds["secure"] = "T"
			}
			if want := linkFn(creds); !sameProps(l.Props, want) {
				t.Errorf("%s: link %s~%s props %v, want %v", name, l.A, l.B, l.Props, want)
			}
		}
	}
	n := CaseStudy()
	for _, c := range []struct {
		id    netmodel.NodeID
		trust int64
	}{{NYServer, 5}, {NYClient, 5}, {SDClient, 4}, {SeaClient, 2}} {
		node, ok := n.Node(c.id)
		if !ok {
			t.Fatalf("node %s missing", c.id)
		}
		if !node.Props["TrustLevel"].Equal(property.Int(c.trust)) {
			t.Errorf("node %s trust = %v, want %d", c.id, node.Props["TrustLevel"], c.trust)
		}
	}
}

// sameProps reports whether two sets hold the same names with equal
// values (kinds included).
func sameProps(a, b property.Set) bool {
	if len(a) != len(b) {
		return false
	}
	for name, v := range a {
		if w, ok := b[name]; !ok || !v.Equal(w) {
			return false
		}
	}
	return true
}

func TestCaseStudySites(t *testing.T) {
	sites := map[string]int{}
	for _, node := range CaseStudy().Nodes() {
		sites[node.Site]++
	}
	for site, want := range map[string]int{SiteNewYork: 3, SiteSanDiego: 2, SiteSeattle: 2} {
		if sites[site] != want {
			t.Errorf("%s nodes = %d, want %d", site, sites[site], want)
		}
	}
}

// TestCaseStudyInterSitePathsInsecure: any path that leaves a site loses
// confidentiality; intra-site paths keep it.
func TestCaseStudyPathEnvironments(t *testing.T) {
	n := CaseStudy()
	_, env, ok := n.Routes().PathEnv(SDClient, NYServer)
	if !ok {
		t.Fatal("SD->NY path must exist")
	}
	if !env["Confidentiality"].Equal(property.Bool(false)) {
		t.Errorf("inter-site path must be insecure: %v", env)
	}
	_, env, ok = n.Routes().PathEnv(NYClient, NYServer)
	if !ok {
		t.Fatal("NY intra path must exist")
	}
	if !env["Confidentiality"].Equal(property.Bool(true)) {
		t.Errorf("intra-site path must be secure: %v", env)
	}
}

// TestCaseStudySeattleRouting: the minimum-latency path Seattle->NY goes
// through San Diego (100+200=300ms) rather than the direct 400ms link.
func TestCaseStudySeattleRouting(t *testing.T) {
	n := CaseStudy()
	p, ok := n.Routes().Path(SeaClient, NYServer)
	if !ok {
		t.Fatal("path must exist")
	}
	if p.LatencyMS != 300 {
		t.Errorf("Seattle->NY latency = %v, want 300 (via San Diego)", p.LatencyMS)
	}
}

func TestMailTranslation(t *testing.T) {
	nodeFn, linkFn := MailTranslation()
	props := nodeFn(map[string]string{"trust": "3", "user": "Alice"})
	if !props["TrustLevel"].Equal(property.Int(3)) || !props["User"].Equal(property.Str("Alice")) {
		t.Errorf("node translation = %v", props)
	}
	if got := nodeFn(map[string]string{"trust": "notanint"}); got["TrustLevel"].IsValid() {
		t.Errorf("bad trust credential must not translate: %v", got)
	}
	if got := nodeFn(nil); len(got) != 0 {
		t.Errorf("empty credentials translate to empty set: %v", got)
	}
	if !linkFn(map[string]string{"secure": "T"})["Confidentiality"].Equal(property.Bool(true)) {
		t.Error("secure link must translate to Confidentiality=T")
	}
	if !linkFn(nil)["Confidentiality"].Equal(property.Bool(false)) {
		t.Error("unknown security must translate to Confidentiality=F")
	}
}

func TestWaxmanDeterministicAndConnected(t *testing.T) {
	cfg := DefaultWaxman(30, 42)
	a, err := Waxman(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Waxman(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNodes() != 30 || a.NumNodes() != b.NumNodes() || a.NumLinks() != b.NumLinks() {
		t.Errorf("same seed must reproduce the same topology: %d/%d vs %d/%d",
			a.NumNodes(), a.NumLinks(), b.NumNodes(), b.NumLinks())
	}
	// MinDegree 1 guarantees no isolated nodes.
	for _, node := range a.Nodes() {
		if len(a.Neighbors(node.ID)) == 0 {
			t.Errorf("node %s is isolated despite MinDegree", node.ID)
		}
		tl, ok := node.Props["TrustLevel"].AsInt()
		if !ok || tl < 1 || tl > 5 {
			t.Errorf("node %s trust %v outside 1..5", node.ID, node.Props["TrustLevel"])
		}
	}
}

func TestWaxmanSeedVariation(t *testing.T) {
	a, err := Waxman(DefaultWaxman(30, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Waxman(DefaultWaxman(30, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumLinks() == b.NumLinks() {
		// Equal link counts can coincide; compare a structural detail too.
		al, bl := a.Links(), b.Links()
		same := len(al) == len(bl)
		for i := range al {
			if !same {
				break
			}
			if al[i].A != bl[i].A || al[i].B != bl[i].B {
				same = false
			}
		}
		if same {
			t.Error("different seeds should produce different topologies")
		}
	}
}

func TestWaxmanConfigValidation(t *testing.T) {
	if _, err := Waxman(WaxmanConfig{Nodes: 0, Alpha: 0.5, Beta: 0.5}); err == nil {
		t.Error("zero nodes must be rejected")
	}
	if _, err := Waxman(WaxmanConfig{Nodes: 5, Alpha: 0, Beta: 0.5}); err == nil {
		t.Error("alpha 0 must be rejected")
	}
	if _, err := Waxman(WaxmanConfig{Nodes: 5, Alpha: 0.5, Beta: 1.5}); err == nil {
		t.Error("beta > 1 must be rejected")
	}
}

func TestBarabasiAlbert(t *testing.T) {
	n, err := BarabasiAlbert(40, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n.NumNodes() != 40 {
		t.Errorf("nodes = %d, want 40", n.NumNodes())
	}
	// Every non-seed node attaches to >= 1 target; graph must be connected
	// from node 0's perspective.
	visited := map[netmodel.NodeID]bool{}
	stack := []netmodel.NodeID{"b000"}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[cur] {
			continue
		}
		visited[cur] = true
		stack = append(stack, n.Neighbors(cur)...)
	}
	if len(visited) != 40 {
		t.Errorf("BA graph must be connected, reached %d/40", len(visited))
	}
	// Determinism.
	m, err := BarabasiAlbert(40, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumLinks() != n.NumLinks() {
		t.Error("same seed must reproduce the same BA topology")
	}
}

func TestBarabasiAlbertValidation(t *testing.T) {
	for _, c := range []struct{ n, m int }{{1, 1}, {5, 0}, {5, 5}} {
		if _, err := BarabasiAlbert(c.n, c.m, 1); err == nil {
			t.Errorf("BarabasiAlbert(%d,%d) must be rejected", c.n, c.m)
		}
	}
}

// TestBarabasiAlbertHubBias: preferential attachment produces at least
// one node with degree well above the minimum.
func TestBarabasiAlbertHubBias(t *testing.T) {
	n, err := BarabasiAlbert(60, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	maxDeg := 0
	for _, node := range n.Nodes() {
		if d := len(n.Neighbors(node.ID)); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 6 {
		t.Errorf("expected a hub with degree >= 6, max degree = %d", maxDeg)
	}
}

// TestWaxmanAlwaysConnected: across many seeds the generator produces a
// single connected component (the BRITE-style merge pass).
func TestWaxmanAlwaysConnected(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		n, err := Waxman(DefaultWaxman(20, seed))
		if err != nil {
			t.Fatal(err)
		}
		nodes := n.Nodes()
		visited := map[netmodel.NodeID]bool{}
		stack := []netmodel.NodeID{nodes[0].ID}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if visited[cur] {
				continue
			}
			visited[cur] = true
			stack = append(stack, n.Neighbors(cur)...)
		}
		if len(visited) != len(nodes) {
			t.Errorf("seed %d: reached %d/%d nodes", seed, len(visited), len(nodes))
		}
	}
}

// TestWaxmanPlaneSizeDefault: a zero plane size falls back to the
// default rather than collapsing all nodes onto a point.
func TestWaxmanPlaneSizeDefault(t *testing.T) {
	n, err := Waxman(WaxmanConfig{Nodes: 5, Alpha: 0.5, Beta: 0.5, Seed: 3, MinDegree: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n.NumNodes() != 5 {
		t.Errorf("nodes = %d", n.NumNodes())
	}
}
