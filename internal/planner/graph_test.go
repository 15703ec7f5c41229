package planner

import (
	"math"
	"strings"
	"testing"

	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/property"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

// sameValidation compares what the unified validator and the chain
// reference make of one assignment: the verdict, the three metrics, and
// every placement's recorded offer and upstream residual latency —
// exactly, not within a tolerance.
func sameValidation(t *testing.T, label string, got, want *Deployment, gotV, wantV verdict) {
	t.Helper()
	if gotV != wantV {
		t.Fatalf("%s: verdict %d, reference %d", label, gotV, wantV)
	}
	if wantV != valid {
		return
	}
	if got.String() != want.String() {
		t.Fatalf("%s: deployment %s, reference %s", label, got, want)
	}
	if got.ExpectedLatencyMS != want.ExpectedLatencyMS || got.CapacityRPS != want.CapacityRPS ||
		got.NewComponents != want.NewComponents {
		t.Fatalf("%s: latency/capacity/new = %v/%v/%d, reference %v/%v/%d", label,
			got.ExpectedLatencyMS, got.CapacityRPS, got.NewComponents,
			want.ExpectedLatencyMS, want.CapacityRPS, want.NewComponents)
	}
	for i := range want.Placements {
		g, w := got.Placements[i], want.Placements[i]
		if g.UpstreamMS != w.UpstreamMS || len(g.Offers) != len(w.Offers) || g.Offers.Fingerprint() != w.Offers.Fingerprint() {
			t.Fatalf("%s: placement %d (%s): upstream %v offers %v, reference %v %v",
				label, i, w, g.UpstreamMS, g.Offers, w.UpstreamMS, w.Offers)
		}
	}
	for i := range want.Edges {
		g, w := got.Edges[i], want.Edges[i]
		if g.From != w.From || g.To != w.To || g.Iface != w.Iface || strings.Join(pathIDs(g), ">") != strings.Join(pathIDs(w), ">") {
			t.Fatalf("%s: edge %d = %+v, reference %+v", label, i, g, w)
		}
	}
}

func pathIDs(e Edge) []string {
	out := make([]string, len(e.Path.Nodes))
	for i, n := range e.Path.Nodes {
		out[i] = string(n)
	}
	return out
}

// TestValidatorMatchesChainReference holds the one validator equal to
// the pre-unification chain validator on every assignment the exhaustive
// mapper visits: the three Figure-6 requests planned in deployment order
// (so anchors, reused candidates and upstream charges are in play), and
// the mail service on a 16-node Waxman topology under every objective.
func TestValidatorMatchesChainReference(t *testing.T) {
	check := func(t *testing.T, pl *Planner, req Request) *Deployment {
		visited := 0
		dep, _ := pl.exhaustive(req, func(g Graph, cs []*cand) {
			chain, ok := chainOfGraph(g)
			if !ok {
				t.Fatalf("the mail service has no branching graph: %s", g.Names())
			}
			visited++
			// Both sides check first what the search never has to.
			if _, missing := pl.memo.routesOf(g, cs); missing >= 0 {
				return
			}
			want, wantV := pl.validateChain(chain, cs, req)
			got, gotV := pl.validate(g, cs, req)
			sameValidation(t, g.Names(), got, want, gotV, wantV)
		})
		if visited == 0 {
			t.Fatal("the mapper visited no assignment")
		}
		return dep
	}
	t.Run("figure6", func(t *testing.T) {
		pl := caseStudyPlanner(t)
		for _, req := range figure6Requests(MinLatency) {
			dep := check(t, pl, req)
			if dep == nil {
				t.Fatalf("no plan for %+v", req)
			}
			pl.AddExisting(dep.Placements...)
		}
	})
	t.Run("waxman16", func(t *testing.T) {
		net, err := topology.Waxman(topology.DefaultWaxman(16, 1))
		if err != nil {
			t.Fatal(err)
		}
		nodes := net.Nodes()
		nodes[0].Props["TrustLevel"] = property.Int(5)
		for _, o := range allObjectives {
			pl := New(spec.MailService(), net)
			pl.MaxChainLen = 5 // as TestSolverMatchesExhaustiveOnRandomNets: keeps n^(free positions) affordable
			ms, err := pl.PrimaryPlacement(spec.CompMailServer, nodes[0].ID)
			if err != nil {
				t.Fatal(err)
			}
			pl.AddExisting(ms)
			check(t, pl, Request{Interface: spec.IfaceClient, ClientNode: nodes[2].ID, User: "Alice", RateRPS: 10, Objective: o})
		}
	})
}

func portalRequest() Request {
	return Request{Interface: "PortalInterface", ClientNode: topology.SDClient, RateRPS: 10}
}

// TestPortalPlanVerifies: what Plan returns for a branching graph passes
// Verify with the same request, and Verify reads the graph from the
// edges: without them a multi-placement deployment cannot say who links
// to whom.
func TestPortalPlanVerifies(t *testing.T) {
	pl := portalPlanner(t)
	dep := planOrFail(t, pl, portalRequest())
	if err := pl.Verify(dep, portalRequest()); err != nil {
		t.Fatalf("Verify(Plan(req)) = %v for %s", err, dep)
	}
	want := "Portal@sd-2(Encryptor2@sd-2(Server@ny-1), LogServer@sd-2)"
	if dep.String() != want {
		t.Errorf("deployment renders as %q, want %q", dep, want)
	}
	bare := *dep
	bare.Edges = nil
	if err := pl.Verify(&bare, portalRequest()); err == nil {
		t.Error("a multi-placement deployment with no edges must not verify")
	}
	swapped := *dep
	swapped.Edges = append([]Edge(nil), dep.Edges...)
	swapped.Edges[2].From = 2 // LogServer as Server's provider
	if err := pl.Verify(&swapped, portalRequest()); err == nil {
		t.Error("an edge linking a provider to a component that does not require it must not verify")
	}
}

// TestPortalCapacityIsModelled: a branching deployment's headroom is the
// minimum over component, node-CPU and link budgets like a chain's, and
// a request above it is refused.
func TestPortalCapacityIsModelled(t *testing.T) {
	dep := planOrFail(t, portalPlanner(t), portalRequest())
	if math.IsInf(dep.CapacityRPS, 1) || dep.CapacityRPS < portalRequest().RateRPS {
		t.Fatalf("capacity = %v, want finite and at least the request rate", dep.CapacityRPS)
	}
	over := portalRequest()
	over.RateRPS = dep.CapacityRPS * 1.01
	over.Objective = MaxCapacity
	if best, err := portalPlanner(t).Plan(over); err == nil && best.CapacityRPS < over.RateRPS {
		t.Errorf("Plan admitted %v rps on a deployment that sustains %v", over.RateRPS, best.CapacityRPS)
	}
	over.RateRPS = 1e9
	if best, err := portalPlanner(t).Plan(over); err == nil {
		t.Errorf("Plan admitted an over-rate branching deployment: %s", best)
	}
	if err := portalPlanner(t).Verify(dep, over); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Errorf("Verify must refuse a rate above the deployment's capacity: %v", err)
	}
}

// TestPortalInteriorAnchorCostsItsSubtree: every placement with
// providers records the residual latency of its subtree, so a second
// request that anchors on an interior instance costs what the same graph
// costs when it is mapped from scratch.
func TestPortalInteriorAnchorCostsItsSubtree(t *testing.T) {
	pl := portalPlanner(t)
	first := planOrFail(t, pl, portalRequest())
	for i, p := range first.Placements {
		interior := i < len(first.Placements)-1 && first.Edges[i].From == i
		if interior != (p.UpstreamMS > 0) {
			t.Errorf("%s: UpstreamMS = %v, interior = %v", p, p.UpstreamMS, interior)
		}
	}
	pl.AddExisting(first.Placements...)

	// A neighbour asks for the cheapest installation: a Portal of its own
	// linked to the running Encryptor2 and LogServer.
	req := Request{Interface: "PortalInterface", ClientNode: topology.SDGateway, RateRPS: 10, Objective: MinCost}
	second := planOrFail(t, pl, req)
	if second.NewComponents != 1 || len(second.Placements) != 3 || second.Placements[1].Key() != first.Placements[1].Key() {
		t.Fatalf("the neighbour should anchor on %s: %s", first.Placements[1], second)
	}

	// The same graph with the anchor's subtree spelled out, on a planner
	// that knows of no instance.
	fresh := portalPlanner(t)
	fresh.beginPlan()
	defer fresh.endPlan()
	full := &Deployment{
		Placements: []Placement{second.Placements[0], first.Placements[1], first.Placements[2], second.Placements[2]},
		Edges: []Edge{
			{From: 0, To: 1, Iface: "ServerInterface"}, {From: 1, To: 2, Iface: "ServerInterface"},
			{From: 0, To: 3, Iface: "LogInterface"},
		},
	}
	for i := range full.Placements {
		full.Placements[i].Reused = false
	}
	g, err := fresh.graphOf(full)
	if err != nil {
		t.Fatal(err)
	}
	scratch, v := fresh.validate(g, fresh.candsOf(full.Placements), req)
	if v != valid {
		t.Fatalf("from-scratch mapping of %s rejected (%d)", g.Names(), v)
	}
	if math.Abs(second.ExpectedLatencyMS-scratch.ExpectedLatencyMS) > 1e-9 {
		t.Errorf("anchored plan costs %v ms, the same graph from scratch %v ms",
			second.ExpectedLatencyMS, scratch.ExpectedLatencyMS)
	}
}

// spareHostNet is a client machine with insecure uplinks to two
// interchangeable trusted hosts: either can die without partitioning the
// network or making the portal unplaceable.
func spareHostNet(t *testing.T) *netmodel.Network {
	t.Helper()
	n := netmodel.New()
	for id, trust := range map[netmodel.NodeID]int64{"client": 4, "t1": 5, "t2": 5} {
		if err := n.AddNode(netmodel.Node{
			ID: id, Site: "site-" + string(id), CPUCapacityRPS: 2000,
			Props: property.Set{"TrustLevel": property.Int(trust)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []netmodel.Link{
		{A: "client", B: "t1", LatencyMS: 50}, {A: "client", B: "t2", LatencyMS: 60},
		{A: "t1", B: "t2", LatencyMS: 10, Secure: true},
	} {
		l.BandwidthMbps = 100
		l.Props = property.Set{"Confidentiality": property.Bool(l.Secure)}
		if err := n.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestRepairReplanTreeRepairs: a node kill under a leaf of a branching
// deployment is repaired by the constraint engine's repair path — the
// placements away from the change keep their pins — and lands on the
// placements and metrics a from-scratch plan of the surviving network
// finds.
func TestRepairReplanTreeRepairs(t *testing.T) {
	net := spareHostNet(t)
	pa := New(portalService(), net)
	req := Request{Interface: "PortalInterface", ClientNode: "client", RateRPS: 10}
	dep := planOrFail(t, pa, req)
	pa.AddExisting(dep.Placements...)
	if dep.String() != "Portal@client(Encryptor2@client(Server@t1), LogServer@client)" {
		t.Fatalf("unexpected warm deployment %s", dep)
	}
	server := dep.Placements[2]

	if err := netmon.New(net).ReportNodeDown(server.Node); err != nil {
		t.Fatal(err)
	}
	ch := NewChangedSet()
	ch.AddNode(server.Node)
	diff, err := pa.RepairReplan(dep, req, ch)
	if err != nil {
		t.Fatalf("RepairReplan: %v", err)
	}
	if got := pa.SolverStats.Repairs.Load(); got != 1 {
		t.Errorf("solver repairs = %d, want 1", got)
	}
	if got := pa.SolverStats.RepairFallbacks.Load(); got != 0 {
		t.Errorf("repair fell back to a fresh solve %d times", got)
	}
	fresh := planOrFail(t, New(portalService(), net), req)
	if !sameDeploymentKeys(diff.New, fresh) || diff.New.ExpectedLatencyMS != fresh.ExpectedLatencyMS ||
		diff.New.CapacityRPS != fresh.CapacityRPS {
		t.Errorf("repair landed on %s (%v ms, %v rps), a fresh plan on %s (%v ms, %v rps)",
			diff.New, diff.New.ExpectedLatencyMS, diff.New.CapacityRPS, fresh, fresh.ExpectedLatencyMS, fresh.CapacityRPS)
	}
	if diff.New.String() != "Portal@client*(Encryptor2@client*(Server@t2), LogServer@client*)" {
		t.Errorf("the Server alone must move, to the spare host: %s", diff.New)
	}
	if len(diff.Evicted) != 1 || diff.Evicted[0].Key() != server.Key() {
		t.Errorf("evicted = %v, want the Server on the dead node", diff.Evicted)
	}
	if err := pa.Verify(diff.New, req); err != nil {
		t.Errorf("repaired deployment does not verify: %v", err)
	}
}

// TestDuplicateCachesOnOneBranchAbsorbOnce: two identically configured
// caches in series on one branch hold the same state, so the second
// absorbs nothing — the flow behind them is scaled by the RRF once — and
// the other branch is not scaled at all.
func TestDuplicateCachesOnOneBranchAbsorbOnce(t *testing.T) {
	svc := portalService()
	svc.Components = append(svc.Components, spec.Component{
		Name: "Cache",
		Implements: []spec.InterfaceSpec{{
			Name:  "ServerInterface",
			Props: map[string]property.Expr{"Confidentiality": property.Lit(property.Bool(true))},
		}},
		Requires:  []spec.InterfaceSpec{{Name: "ServerInterface"}},
		Behaviors: spec.Behaviors{RRF: 0.2, CPUMSPerRequest: 0.1, RequestBytes: 4096, ResponseBytes: 4096},
	})
	if err := svc.Validate(); err != nil {
		t.Fatal(err)
	}
	pl := New(svc, topology.CaseStudy())
	pl.beginPlan()
	defer pl.endPlan()
	dep := &Deployment{
		Placements: []Placement{
			{Component: "Portal", Node: topology.NYClient},
			{Component: "Cache", Node: topology.NYClient},
			{Component: "Cache", Node: topology.NYServer},
			{Component: "Server", Node: topology.NYServer},
			{Component: "LogServer", Node: topology.NYClient},
		},
		Edges: []Edge{
			{From: 0, To: 1, Iface: "ServerInterface"}, {From: 1, To: 2, Iface: "ServerInterface"},
			{From: 2, To: 3, Iface: "ServerInterface"}, {From: 0, To: 4, Iface: "LogInterface"},
		},
	}
	g, err := pl.graphOf(dep)
	if err != nil {
		t.Fatal(err)
	}
	in := flowCoeff(g, pl.candsOf(dep.Placements))
	want := []float64{1, 1, 0.2, 0.2, 1}
	for i := range want {
		if in[i] != want[i] {
			t.Fatalf("in-flow per position = %v, want %v", in, want)
		}
	}
}
