package planner

import (
	"reflect"
	"strings"
	"testing"

	"partsvc/internal/netmodel"
	"partsvc/internal/property"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

// caseStudyPlanner returns a planner primed like the paper's case study:
// the primary MailServer is already deployed in New York.
func caseStudyPlanner(t *testing.T) *Planner {
	t.Helper()
	pl := mailPlanner(t)
	ms, err := pl.PrimaryPlacement(spec.CompMailServer, topology.NYServer)
	if err != nil {
		t.Fatal(err)
	}
	pl.AddExisting(ms)
	return pl
}

func planOrFail(t *testing.T, pl *Planner, req Request) *Deployment {
	t.Helper()
	dep, err := pl.Plan(req)
	if err != nil {
		t.Fatalf("Plan(%+v): %v\nstats: %+v", req, err, pl.Stats())
	}
	return dep
}

// TestFig6NewYorkDeployment: client requests in New York deploy a
// MailClient connecting directly to the MailServer.
func TestFig6NewYorkDeployment(t *testing.T) {
	pl := caseStudyPlanner(t)
	dep := planOrFail(t, pl, Request{
		Interface: spec.IfaceClient, ClientNode: topology.NYClient,
		User: "Alice", RateRPS: 50,
	})
	want := []string{spec.CompMailClient, spec.CompMailServer}
	if !reflect.DeepEqual(componentsOf(dep), want) {
		t.Fatalf("NY chain = %v, want %v\ndeployment: %s", componentsOf(dep), want, dep)
	}
	if dep.Placements[0].Node != topology.NYClient {
		t.Errorf("MailClient must be at the client node, got %s", dep.Placements[0].Node)
	}
	if dep.Placements[1].Node != topology.NYServer || !dep.Placements[1].Reused {
		t.Errorf("MailServer must be the reused NY primary: %s", dep.Placements[1])
	}
	if dep.NewComponents != 1 {
		t.Errorf("NY deployment installs only the MailClient, got %d new", dep.NewComponents)
	}
}

// TestFig6SanDiegoDeployment: client requests in San Diego deploy a
// MailClient, a ViewMailServer and an Encryptor locally, plus a
// Decryptor in New York, chained to the MailServer.
func TestFig6SanDiegoDeployment(t *testing.T) {
	pl := caseStudyPlanner(t)
	dep := planOrFail(t, pl, Request{
		Interface: spec.IfaceClient, ClientNode: topology.SDClient,
		User: "Alice", RateRPS: 50,
	})
	want := []string{spec.CompMailClient, spec.CompViewMailServer, spec.CompEncryptor, spec.CompDecryptor, spec.CompMailServer}
	if !reflect.DeepEqual(componentsOf(dep), want) {
		t.Fatalf("SD chain = %v, want %v\ndeployment: %s", componentsOf(dep), want, dep)
	}
	sites := map[string]string{}
	for _, p := range dep.Placements {
		node, _ := pl.Net.Node(p.Node)
		sites[p.Component] = node.Site
	}
	if sites[spec.CompMailClient] != topology.SiteSanDiego ||
		sites[spec.CompViewMailServer] != topology.SiteSanDiego ||
		sites[spec.CompEncryptor] != topology.SiteSanDiego {
		t.Errorf("MailClient/ViewMailServer/Encryptor must be in San Diego: %v", sites)
	}
	if sites[spec.CompDecryptor] != topology.SiteNewYork {
		t.Errorf("Decryptor must be in New York: %v", sites)
	}
	// The San Diego view is factored at the site's trust level.
	vms := dep.Placements[1]
	if !vms.Config["TrustLevel"].Equal(property.Int(4)) {
		t.Errorf("ViewMailServer config = %v, want TrustLevel=4", vms.Config)
	}
	// Its effective offer retains confidentiality thanks to the E-D pair.
	if !vms.Offers["Confidentiality"].Equal(property.Bool(true)) {
		t.Errorf("ViewMailServer offers = %v, want Confidentiality=T", vms.Offers)
	}
}

// TestFig6SeattleDeployment: partner-site requests deploy a
// ViewMailClient and a lower-trust ViewMailServer in Seattle, linked
// through an Encryptor-Decryptor pair to the existing San Diego
// ViewMailServer (not to distant New York).
func TestFig6SeattleDeployment(t *testing.T) {
	pl := caseStudyPlanner(t)
	sd := planOrFail(t, pl, Request{
		Interface: spec.IfaceClient, ClientNode: topology.SDClient,
		User: "Alice", RateRPS: 50,
	})
	pl.AddExisting(sd.Placements...)

	dep := planOrFail(t, pl, Request{
		Interface: spec.IfaceClient, ClientNode: topology.SeaClient,
		User: "Carol", RateRPS: 50,
	})
	want := []string{spec.CompViewMailClient, spec.CompViewMailServer, spec.CompEncryptor, spec.CompDecryptor, spec.CompViewMailServer}
	if !reflect.DeepEqual(componentsOf(dep), want) {
		t.Fatalf("Seattle chain = %v, want %v\ndeployment: %s", componentsOf(dep), want, dep)
	}
	nodeSite := func(i int) string {
		n, _ := pl.Net.Node(dep.Placements[i].Node)
		return n.Site
	}
	if nodeSite(0) != topology.SiteSeattle || nodeSite(1) != topology.SiteSeattle || nodeSite(2) != topology.SiteSeattle {
		t.Errorf("ViewMailClient/ViewMailServer/Encryptor must be in Seattle: %s", dep)
	}
	if nodeSite(3) != topology.SiteSanDiego {
		t.Errorf("Decryptor must be in San Diego: %s", dep)
	}
	tail := dep.Placements[4]
	if !tail.Reused || tail.Node != topology.SDClient {
		t.Errorf("chain must terminate at the existing San Diego ViewMailServer: %s", tail)
	}
	// The Seattle view is factored at the partner trust level.
	if !dep.Placements[1].Config["TrustLevel"].Equal(property.Int(2)) {
		t.Errorf("Seattle ViewMailServer config = %v, want TrustLevel=2", dep.Placements[1].Config)
	}
	if dep.NewComponents != 4 {
		t.Errorf("Seattle deployment installs 4 components, got %d", dep.NewComponents)
	}
}

// TestDirectInsecureConnectionRejected: without the Encryptor-Decryptor
// pair the planner never links a confidentiality-requiring client across
// an insecure inter-site link (the Figure 4 rule in action).
func TestDirectInsecureConnectionRejected(t *testing.T) {
	pl := caseStudyPlanner(t)
	dep := planOrFail(t, pl, Request{
		Interface: spec.IfaceClient, ClientNode: topology.SDClient,
		User: "Alice", RateRPS: 50,
	})
	chain := componentsOf(dep)
	// Every edge that crosses an insecure link must have an Encryptor on
	// its client side (ciphertext is the only traffic allowed there).
	for _, e := range dep.Edges {
		_, env, _ := pl.Net.Routes().PathEnv(e.Path.Nodes[0], e.Path.Nodes[len(e.Path.Nodes)-1])
		if conf, ok := env["Confidentiality"].AsBool(); ok && !conf {
			if chain[e.From] != spec.CompEncryptor {
				t.Errorf("insecure edge %v not fronted by an Encryptor (from %s)", e.Path.Nodes, chain[e.From])
			}
		}
	}
	if pl.Stats().RejectedProps == 0 {
		t.Error("planner should have rejected at least one insecure direct mapping")
	}
}

// TestAccessControlCondition: Carol cannot obtain a full MailClient
// anywhere (the User=Alice condition), while Alice can.
func TestAccessControlCondition(t *testing.T) {
	pl := caseStudyPlanner(t)
	dep := planOrFail(t, pl, Request{
		Interface: spec.IfaceClient, ClientNode: topology.NYClient,
		User: "Carol", RateRPS: 10,
	})
	if componentsOf(dep)[0] != spec.CompViewMailClient {
		t.Errorf("Carol must get the restricted ViewMailClient, got %v", componentsOf(dep))
	}
}

// TestTrustConditionBlocksViewOnUntrustedNode: lowering a node's trust
// below the ViewMailServer's condition removes it as a candidate.
func TestTrustConditionBlocksViewOnUntrustedNode(t *testing.T) {
	pl := caseStudyPlanner(t)
	// Drop Seattle below the view's trust threshold.
	for _, id := range []netmodel.NodeID{topology.SeaGW, topology.SeaClient} {
		n, _ := pl.Net.Node(id)
		n.Props["TrustLevel"] = property.Int(1)
	}
	dep := planOrFail(t, pl, Request{
		Interface: spec.IfaceClient, ClientNode: topology.SeaClient,
		User: "Carol", RateRPS: 10,
	})
	for _, p := range dep.Placements {
		if p.Component == spec.CompViewMailServer {
			n, _ := pl.Net.Node(p.Node)
			if n.Site == topology.SiteSeattle {
				t.Errorf("ViewMailServer deployed on untrusted Seattle node: %s", dep)
			}
		}
	}
}

// TestLoadConditionForcesCache: at request rates that saturate the slow
// link, chains without a traffic-reducing view are infeasible, so the
// planner deploys the cache even under the min-cost objective
// (the paper: "the planner finds its RRF necessary to traverse the low
// bandwidth connection").
func TestLoadConditionForcesCache(t *testing.T) {
	pl := caseStudyPlanner(t)
	// NY-SD is 20 Mb/s; a direct chain moves ~20 KB per request, so
	// 200 req/s needs ~33 Mb/s: infeasible without the view's RRF.
	dep := planOrFail(t, pl, Request{
		Interface: spec.IfaceClient, ClientNode: topology.SDClient,
		User: "Alice", RateRPS: 200, Objective: MinCost,
	})
	found := false
	for _, name := range componentsOf(dep) {
		if name == spec.CompViewMailServer {
			found = true
		}
	}
	if !found {
		t.Errorf("min-cost plan at 200 rps must include ViewMailServer: %v", componentsOf(dep))
	}
	// It is the load that forces it: the cheapest chain at a rate the
	// slow link carries has no view, and the exhaustive reference — which
	// validates every mapping instead of pruning saturated links during
	// propagation — counts the load rejections at 200 rps.
	low := planOrFail(t, caseStudyPlanner(t), Request{
		Interface: spec.IfaceClient, ClientNode: topology.SDClient,
		User: "Alice", RateRPS: 50, Objective: MinCost,
	})
	for _, name := range componentsOf(low) {
		if name == spec.CompViewMailServer {
			t.Errorf("min-cost plan at 50 rps needs no ViewMailServer: %v", componentsOf(low))
		}
	}
	ref := caseStudyPlanner(t)
	if _, err := ref.planExhaustive(Request{
		Interface: spec.IfaceClient, ClientNode: topology.SDClient,
		User: "Alice", RateRPS: 200, Objective: MinCost,
	}); err != nil {
		t.Fatal(err)
	}
	if ref.Stats().RejectedLoad == 0 {
		t.Error("expected load rejections at 200 rps")
	}
}

// TestInfeasibleRateFails: beyond every chain's capacity, planning fails
// with informative statistics.
func TestInfeasibleRateFails(t *testing.T) {
	pl := caseStudyPlanner(t)
	_, err := pl.Plan(Request{
		Interface: spec.IfaceClient, ClientNode: topology.SDClient,
		User: "Alice", RateRPS: 1e9,
	})
	if err == nil {
		t.Fatal("expected failure at absurd request rate")
	}
	if !strings.Contains(err.Error(), "load") {
		t.Errorf("error should carry statistics: %v", err)
	}
}

// TestObjectiveMaxCapacity prefers higher-headroom deployments.
func TestObjectiveMaxCapacity(t *testing.T) {
	pl := caseStudyPlanner(t)
	dep := planOrFail(t, pl, Request{
		Interface: spec.IfaceClient, ClientNode: topology.SDClient,
		User: "Alice", RateRPS: 50, Objective: MaxCapacity,
	})
	// The max-capacity plan must include the view (RRF multiplies
	// effective capacity across the slow link five-fold).
	hasView := false
	for _, n := range componentsOf(dep) {
		if n == spec.CompViewMailServer {
			hasView = true
		}
	}
	if !hasView {
		t.Errorf("max-capacity plan should cache: %v", componentsOf(dep))
	}
	lat := planOrFail(t, pl, Request{
		Interface: spec.IfaceClient, ClientNode: topology.SDClient,
		User: "Alice", RateRPS: 50, Objective: MinLatency,
	})
	if dep.CapacityRPS < lat.CapacityRPS {
		t.Errorf("max-capacity plan (%v rps) must not be worse than min-latency plan (%v rps)",
			dep.CapacityRPS, lat.CapacityRPS)
	}
}

// TestPlanErrors: malformed requests fail fast.
func TestPlanErrors(t *testing.T) {
	pl := caseStudyPlanner(t)
	if _, err := pl.Plan(Request{Interface: spec.IfaceClient, ClientNode: "ghost"}); err == nil {
		t.Error("unknown client node must fail")
	}
	if _, err := pl.Plan(Request{Interface: "Ghost", ClientNode: topology.NYClient}); err == nil {
		t.Error("unknown interface must fail")
	}
}

// TestRequireProps: explicit client expectations on the requested
// interface are honored.
func TestRequireProps(t *testing.T) {
	pl := caseStudyPlanner(t)
	// Demand a trust level only the full MailClient provides: Carol has
	// no access to it, so planning for Carol must fail.
	_, err := pl.Plan(Request{
		Interface: spec.IfaceClient, ClientNode: topology.SeaClient, User: "Carol",
		RequireProps: property.Set{"TrustLevel": property.Int(4)}, RateRPS: 10,
	})
	if err == nil {
		t.Fatal("Carol cannot satisfy TrustLevel=4 on the client interface")
	}
	// Alice in NY can.
	dep := planOrFail(t, pl, Request{
		Interface: spec.IfaceClient, ClientNode: topology.NYClient, User: "Alice",
		RequireProps: property.Set{"TrustLevel": property.Int(4)}, RateRPS: 10,
	})
	if componentsOf(dep)[0] != spec.CompMailClient {
		t.Errorf("Alice's plan = %v", componentsOf(dep))
	}
}

// TestSecondRequestReusesDeployment: planning the same request twice
// reuses every component the first plan installed.
func TestSecondRequestReusesDeployment(t *testing.T) {
	pl := caseStudyPlanner(t)
	req := Request{
		Interface: spec.IfaceClient, ClientNode: topology.SDClient,
		User: "Alice", RateRPS: 50,
	}
	first := planOrFail(t, pl, req)
	pl.AddExisting(first.Placements...)
	second := planOrFail(t, pl, req)
	if second.NewComponents != 0 {
		t.Errorf("second identical request must install nothing new, got %d (%s)", second.NewComponents, second)
	}
}

// TestStatsPopulated: the planner reports its search effort.
func TestStatsPopulated(t *testing.T) {
	pl := caseStudyPlanner(t)
	planOrFail(t, pl, Request{
		Interface: spec.IfaceClient, ClientNode: topology.SDClient,
		User: "Alice", RateRPS: 50,
	})
	st := pl.Stats()
	if st.ChainsEnumerated == 0 || st.MappingsTried == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
	if st.RejectedProps == 0 {
		t.Errorf("case study must reject some property-invalid mappings: %+v", st)
	}
}

// TestExpectedLatencyOrdering: the three Figure 6 deployments order as
// the topology dictates: NY (LAN) < Seattle (via SD cache) < SD's
// first-plan latency is dominated by the slow NY link share.
func TestExpectedLatencyOrdering(t *testing.T) {
	pl := caseStudyPlanner(t)
	ny := planOrFail(t, pl, Request{Interface: spec.IfaceClient, ClientNode: topology.NYClient, User: "Alice", RateRPS: 50})
	sd := planOrFail(t, pl, Request{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50})
	pl.AddExisting(sd.Placements...)
	sea := planOrFail(t, pl, Request{Interface: spec.IfaceClient, ClientNode: topology.SeaClient, User: "Carol", RateRPS: 50})
	if !(ny.ExpectedLatencyMS < sea.ExpectedLatencyMS) {
		t.Errorf("NY (%v ms) must beat Seattle (%v ms)", ny.ExpectedLatencyMS, sea.ExpectedLatencyMS)
	}
	if !(sea.ExpectedLatencyMS < sd.ExpectedLatencyMS) {
		t.Errorf("Seattle via SD cache (%v ms) must beat SD's 0.2 share of the 200 ms link (%v ms)",
			sea.ExpectedLatencyMS, sd.ExpectedLatencyMS)
	}
}

// TestDeployPenaltySuppressesLANCache: with the default penalty the NY
// plan is direct; with no penalty the planner happily adds a local cache
// (saving the LAN transfer for 80% of requests).
func TestDeployPenaltySuppressesLANCache(t *testing.T) {
	pl := caseStudyPlanner(t)
	req := Request{Interface: spec.IfaceClient, ClientNode: topology.NYClient, User: "Alice", RateRPS: 50}
	direct := planOrFail(t, pl, req)
	if len(componentsOf(direct)) != 2 {
		t.Fatalf("default penalty must give the direct NY chain: %v", componentsOf(direct))
	}
	pl.DeployPenaltyMS = 0
	free := planOrFail(t, pl, req)
	if len(componentsOf(free)) <= 2 {
		t.Errorf("zero penalty should add the LAN cache: %v", componentsOf(free))
	}
	if free.ExpectedLatencyMS >= direct.ExpectedLatencyMS {
		t.Errorf("the cached plan must have lower raw latency: %v vs %v",
			free.ExpectedLatencyMS, direct.ExpectedLatencyMS)
	}
}

// TestPlacementKeyAndString cover identity formatting.
func TestPlacementKeyAndString(t *testing.T) {
	p := Placement{Component: "X", Node: "n1", Config: property.Set{"TL": property.Int(2)}}
	if p.Key() != "X@n1{TL=2}" {
		t.Errorf("Key = %q", p.Key())
	}
	p.Reused = true
	if got := p.String(); !strings.HasSuffix(got, "*") || !strings.Contains(got, "X@n1") {
		t.Errorf("String = %q", got)
	}
}

func TestObjectiveString(t *testing.T) {
	for o, want := range map[Objective]string{
		MinLatency: "min-latency", MinCost: "min-cost", MaxCapacity: "max-capacity", Objective(99): "unknown",
	} {
		if got := o.String(); got != want {
			t.Errorf("Objective(%d) = %q, want %q", o, got, want)
		}
	}
}

// componentsOf returns the component names of a deployment in placement
// order, head first.
func componentsOf(d *Deployment) []string {
	out := make([]string, len(d.Placements))
	for i, p := range d.Placements {
		out[i] = p.Component
	}
	return out
}
