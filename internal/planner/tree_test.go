package planner

import (
	"strings"
	"testing"

	"partsvc/internal/netmodel"
	"partsvc/internal/property"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

// portalService builds a small DAG-shaped service: a Portal requires
// both a ServerInterface (mail-style) and a LogInterface, so its
// linkage graphs are trees, not chains.
func portalService() *spec.Service {
	lit := func(v property.Value) property.Expr { return property.Lit(v) }
	return &spec.Service{
		Name: "portal",
		Properties: []property.Type{
			property.BoolType("Confidentiality"),
			property.IntervalType("TrustLevel", 1, 5),
		},
		Interfaces: []spec.InterfaceDecl{
			{Name: "PortalInterface", Properties: []string{"Confidentiality"}},
			{Name: "ServerInterface", Properties: []string{"Confidentiality", "TrustLevel"}},
			{Name: "LogInterface", Properties: []string{"Confidentiality"}},
		},
		Components: []spec.Component{
			{
				Name: "Portal",
				Implements: []spec.InterfaceSpec{{
					Name:  "PortalInterface",
					Props: map[string]property.Expr{"Confidentiality": lit(property.Bool(false))},
				}},
				Requires: []spec.InterfaceSpec{
					{Name: "ServerInterface", Props: map[string]property.Expr{"Confidentiality": lit(property.Bool(true))}},
					{Name: "LogInterface"},
				},
				Behaviors: spec.Behaviors{CPUMSPerRequest: 0.5, RequestBytes: 1024, ResponseBytes: 1024},
			},
			{
				Name: "Server",
				Implements: []spec.InterfaceSpec{{
					Name: "ServerInterface",
					Props: map[string]property.Expr{
						"Confidentiality": lit(property.Bool(true)),
						"TrustLevel":      lit(property.Int(5)),
					},
				}},
				Conditions: []property.Condition{property.CondGE("Node.TrustLevel", 5)},
				Behaviors:  spec.Behaviors{CapacityRPS: 1000, CPUMSPerRequest: 1, RequestBytes: 4096, ResponseBytes: 4096},
			},
			{
				Name: "LogServer",
				Implements: []spec.InterfaceSpec{{
					Name:  "LogInterface",
					Props: map[string]property.Expr{"Confidentiality": lit(property.Bool(false))},
				}},
				Behaviors: spec.Behaviors{CapacityRPS: 5000, CPUMSPerRequest: 0.1, RequestBytes: 256, ResponseBytes: 64},
			},
			{
				Name: "Encryptor2",
				Implements: []spec.InterfaceSpec{{
					Name:  "ServerInterface",
					Props: map[string]property.Expr{"Confidentiality": lit(property.Bool(true))},
				}},
				Requires:  []spec.InterfaceSpec{{Name: "ServerInterface"}},
				Behaviors: spec.Behaviors{CPUMSPerRequest: 0.2, RequestBytes: 4160, ResponseBytes: 4160},
			},
		},
		ModRules: property.RuleTable{
			"Confidentiality": property.ConfidentialityRule("Confidentiality"),
		},
	}
}

func portalPlanner(t *testing.T) *Planner {
	t.Helper()
	svc := portalService()
	if err := svc.Validate(); err != nil {
		t.Fatal(err)
	}
	return New(svc, topology.CaseStudy())
}

func TestEnumerateTreesShape(t *testing.T) {
	pl := portalPlanner(t)
	trees := pl.EnumerateGraphs("PortalInterface")
	if len(trees) == 0 {
		t.Fatal("no trees enumerated")
	}
	seen := map[string]bool{}
	for _, tr := range trees {
		seen[tr.Names()] = true
	}
	for _, want := range []string{
		"Portal(Server, LogServer)",
		"Portal(Encryptor2(Server), LogServer)",
	} {
		if !seen[want] {
			t.Errorf("expected tree %q; got %v", want, seen)
		}
	}
}

func TestEnumerateTreesBudget(t *testing.T) {
	pl := portalPlanner(t)
	pl.MaxChainLen = 3
	for _, tr := range pl.EnumerateGraphs("PortalInterface") {
		if len(tr) > 3 {
			t.Errorf("tree %s exceeds budget", tr.Names())
		}
	}
}

// TestPlanTreeNY: from New York the portal links directly to the secure
// server and the log server.
func TestPlanTreeNY(t *testing.T) {
	pl := portalPlanner(t)
	dep, err := pl.planExhaustive(Request{Interface: "PortalInterface", ClientNode: topology.NYClient, RateRPS: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Placements) != 3 {
		t.Fatalf("NY tree = %s", dep)
	}
	if dep.Placements[0].Component != "Portal" || dep.Placements[0].Node != topology.NYClient {
		t.Errorf("root must be the Portal at the client node: %s", dep)
	}
	for _, p := range dep.Placements {
		if p.Component == "Encryptor2" {
			t.Errorf("no encryptor needed inside New York: %s", dep)
		}
	}
}

// TestPlanTreeSD: from San Diego the secure branch needs the encryptor;
// the log branch does not (it carries no confidentiality requirement).
func TestPlanTreeSD(t *testing.T) {
	pl := portalPlanner(t)
	dep, err := pl.planExhaustive(Request{Interface: "PortalInterface", ClientNode: topology.SDClient, RateRPS: 10})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, p := range dep.Placements {
		names[p.Component] = true
	}
	if !names["Encryptor2"] {
		t.Errorf("SD portal must reach the server through the encryptor: %s", dep)
	}
	if !names["LogServer"] || !names["Server"] {
		t.Errorf("both branches must be present: %s", dep)
	}
	// Wait: Encryptor2 requires ServerInterface with no property demands,
	// so a single encryptor near the client suffices only if the
	// Server->Encryptor2 hop is secure; the mapper must respect that the
	// Portal->Encryptor2 hop is where plaintext flows.
	var encNode, portalNode netmodel.NodeID
	for _, p := range dep.Placements {
		switch p.Component {
		case "Encryptor2":
			encNode = p.Node
		case "Portal":
			portalNode = p.Node
		}
	}
	_, env, _ := pl.Net.Routes().PathEnv(portalNode, encNode)
	if conf, ok := env["Confidentiality"].AsBool(); ok && !conf {
		t.Errorf("plaintext Portal->Encryptor2 hop must be secure: %s", dep)
	}
}

// TestPlanTreeLogBranchStaysLocal: min-latency places the log server
// near the client (no security constraint holds it back).
func TestPlanTreeLogBranchStaysLocal(t *testing.T) {
	pl := portalPlanner(t)
	dep, err := pl.planExhaustive(Request{Interface: "PortalInterface", ClientNode: topology.SDClient, RateRPS: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range dep.Placements {
		if p.Component == "LogServer" {
			n, _ := pl.Net.Node(p.Node)
			if n.Site != topology.SiteSanDiego {
				t.Errorf("log server should stay in San Diego: %s", dep)
			}
		}
	}
}

// TestPlanTreeRespectsRequireProps: client expectations on the portal
// interface are enforced.
func TestPlanTreeRequireProps(t *testing.T) {
	pl := portalPlanner(t)
	_, err := pl.planExhaustive(Request{
		Interface: "PortalInterface", ClientNode: topology.NYClient,
		RequireProps: property.Set{"Confidentiality": property.Bool(true)},
	})
	if err == nil {
		t.Fatal("the portal offers Confidentiality=F; the request must fail")
	}
}

// TestPlanTreeAnchorReuse: a second identical request reuses everything.
func TestPlanTreeAnchorReuse(t *testing.T) {
	pl := portalPlanner(t)
	req := Request{Interface: "PortalInterface", ClientNode: topology.SDClient, RateRPS: 10}
	first, err := pl.planExhaustive(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range first.Placements {
		pl.AddExisting(p)
	}
	second, err := pl.planExhaustive(req)
	if err != nil {
		t.Fatal(err)
	}
	if second.NewComponents != 0 {
		t.Errorf("second request must reuse all placements: %s", second)
	}
}

// TestPlanTreeErrors: bad requests fail fast.
func TestPlanTreeErrors(t *testing.T) {
	pl := portalPlanner(t)
	if _, err := pl.planExhaustive(Request{Interface: "PortalInterface", ClientNode: "ghost"}); err == nil {
		t.Error("unknown node must fail")
	}
	if _, err := pl.planExhaustive(Request{Interface: "Ghost", ClientNode: topology.NYClient}); err == nil {
		t.Error("unknown interface must fail")
	}
	if _, err := pl.planExhaustive(Request{Interface: "PortalInterface", ClientNode: topology.NYClient, RateRPS: 1e12}); err == nil {
		t.Error("infeasible rate must fail")
	}
}

// TestPlanTreeChainEquivalence: on a chain-shaped service the graph
// mapper's plan is the planner's.
func TestPlanTreeChainEquivalence(t *testing.T) {
	exh := caseStudyPlanner(t)
	tr := caseStudyPlanner(t)
	req := Request{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50}
	want := planOrFail(t, exh, req)
	got, err := tr.planExhaustive(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Placements) != len(want.Placements) {
		t.Fatalf("exhaustive plan %s differs from plan %s", got, want)
	}
	for i := range got.Placements {
		if got.Placements[i].String() != want.Placements[i].String() {
			t.Errorf("position %d: %s vs %s", i, got.Placements[i], want.Placements[i])
		}
	}
	if diff := got.ExpectedLatencyMS - want.ExpectedLatencyMS; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("latency: exhaustive %v vs plan %v", got.ExpectedLatencyMS, want.ExpectedLatencyMS)
	}
}

func TestTreeNamesAndString(t *testing.T) {
	pl := portalPlanner(t)
	trees := pl.EnumerateGraphs("PortalInterface")
	for _, tr := range trees {
		if !strings.HasPrefix(tr.Names(), "Portal") && len(tr) > 1 {
			t.Errorf("tree name %q", tr.Names())
		}
	}
	dep, err := pl.planExhaustive(Request{Interface: "PortalInterface", ClientNode: topology.NYClient, RateRPS: 10})
	if err != nil {
		t.Fatal(err)
	}
	s := dep.String()
	if !strings.HasPrefix(s, "Portal@"+string(topology.NYClient)+"(") || !strings.Contains(s, ", LogServer@") {
		t.Errorf("deployment string = %q", s)
	}
}
