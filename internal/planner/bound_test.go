package planner

import (
	"fmt"
	"math"
	"testing"

	"partsvc/internal/netmon"
	"partsvc/internal/property"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

// checkBounds holds lowerBound to every graph the request enumerates:
// the bound never exceeds the graph's unseeded optimum. It returns the
// number of graphs that had an optimum to compare against.
func checkBounds(t *testing.T, label string, pl *Planner, req Request) int {
	t.Helper()
	pl.beginPlan()
	defer pl.endPlan()
	checked := 0
	for _, g := range pl.enumerate(req.Interface) {
		m, ok := pl.newModel(g, req)
		if !ok {
			continue
		}
		lb, ok := m.lowerBound()
		if !ok {
			t.Errorf("%s: graph %s: no bound on inputs that break no assumption", label, g.Names())
			continue
		}
		s := &pl.engine
		s.Stats, s.UpperBound = pl.SolverStats, nil
		sol, _, solved := s.Solve(m)
		if !solved {
			continue
		}
		if lb > sol.Primary+boundEps {
			t.Errorf("%s: graph %s: bound %.6f exceeds its optimum %.6f (%s)",
				label, g.Names(), lb, sol.Primary, sol.Result.(*Deployment))
		}
		checked++
	}
	return checked
}

// TestGraphBoundIsAdmissible: the pair-free bound that lets Plan skip a
// graph before building its tables is a lower bound on every graph's
// unseeded optimum — for the three case-study requests against the bare
// primary and after the Figure 6 instances are registered (anchors with
// recorded upstream latency in play), and on Waxman networks over
// several seeds with and without a neighbour's deployment in the reuse
// set. The bound also has to do work: the case study skips graphs by it.
// A negative deploy penalty or link latency gets no bound.
func TestGraphBoundIsAdmissible(t *testing.T) {
	checked := 0
	bare, registered := caseStudyPlanner(t), caseStudyPlanner(t)
	for i, req := range figure6Requests(MinLatency) {
		registered.AddExisting(planOrFail(t, registered, req).Placements...)
		if registered.Stats().GraphsBounded == 0 {
			t.Errorf("request %d: Plan bounded no graph", i)
		}
	}
	for i, req := range figure6Requests(MinLatency) {
		checked += checkBounds(t, fmt.Sprintf("request %d, bare primary", i), bare, req)
		checked += checkBounds(t, fmt.Sprintf("request %d, Figure 6 registered", i), registered, req)
	}
	for seed := int64(1); seed <= 4; seed++ {
		net, err := topology.Waxman(topology.DefaultWaxman(12, seed))
		if err != nil {
			t.Fatal(err)
		}
		nodes := net.Nodes()
		nodes[0].Props["TrustLevel"] = property.Int(5)
		pl := New(spec.MailService(), net)
		ms, err := pl.PrimaryPlacement(spec.CompMailServer, nodes[0].ID)
		if err != nil {
			t.Fatal(err)
		}
		pl.AddExisting(ms)
		for _, client := range []int{3, 2} {
			req := Request{Interface: spec.IfaceClient, ClientNode: nodes[client].ID, User: "Alice", RateRPS: 10}
			checked += checkBounds(t, fmt.Sprintf("waxman seed %d, client %s", seed, req.ClientNode), pl, req)
			// The first client's deployment is the second one's reuse set.
			if dep, err := pl.Plan(req); err == nil {
				pl.AddExisting(dep.Placements...)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no graph had an optimum to hold the bound to")
	}

	// An input that breaks the argument gets no bound at all.
	for _, breakIt := range []func(pl *Planner){
		func(pl *Planner) { pl.DeployPenaltyMS = -1 },
		func(pl *Planner) {
			l, _ := pl.Net.Link(topology.NYServer, topology.SDGateway)
			l.LatencyMS = -1
		},
	} {
		pl := caseStudyPlanner(t)
		breakIt(pl)
		req := figure6Requests(MinLatency)[1]
		pl.beginPlan()
		for _, g := range pl.enumerate(req.Interface) {
			if m, ok := pl.newModel(g, req); ok {
				if _, ok := m.lowerBound(); ok {
					t.Errorf("graph %s: bounded although an input is negative", g.Names())
				}
			}
		}
		pl.endPlan()
	}
}

// TestSeededSearchKeepsStandingDeployment: Replan seeds its
// search with the cost of keeping the old deployment as it runs now.
// Here the San Diego chain's instances are registered without recorded
// offers, and the planner enumerates at most four positions: no graph
// the search enumerates holds the five-position chain or reaches its
// cost, so the seeded search finds nothing. Keeping the chain is then
// the answer — one full search, no rerun — where an unseeded replan of
// the same world moves the session onto a far slower deployment.
func TestSeededSearchKeepsStandingDeployment(t *testing.T) {
	world := func() (pa, pb *Planner, dep *Deployment, req Request) {
		net, pa, pb, dep, req := repairWorlds(t)
		for _, p := range dep.Placements {
			p.Offers = nil
			pa.AddExisting(p)
			pb.AddExisting(p)
		}
		pa.MaxChainLen, pb.MaxChainLen = 4, 4
		if err := netmon.New(net).ReportLink(topology.NYServer, topology.SDGateway, 220, 20, nil); err != nil {
			t.Fatal(err)
		}
		return pa, pb, dep, req
	}

	// The forcing: the chain still holds, and the seeded search finds
	// nothing.
	pc, _, dep, req := world()
	pc.beginPlan()
	pc.RevalidateExisting()
	stand := pc.standing(dep, req)
	if stand == nil {
		pc.endPlan()
		t.Fatal("the chain must still hold")
	}
	pc.memo.own, pc.memo.reuse = pc.ownWiring(dep, stand), nil
	_, err := pc.plan(req, pc.primaryOf(req.Objective, stand))
	pc.endPlan()
	if err == nil {
		t.Fatal("the seeded search found a deployment: the case does not force the keep")
	}

	pa, pb, dep, req := world()
	searches := pa.layers.FullSearches
	got, err := pa.Replan(dep, req)
	if err != nil {
		t.Fatalf("Replan: %v", err)
	}
	if !got.Unchanged() || !sameDeploymentKeys(got.New, dep) {
		t.Fatalf("Replan moved the chain: %s", got.New)
	}
	assertSamePlan(t, "Replan after a seeded search found nothing", got.New, stand)
	if n := pa.Stats().FullSearches - searches; n != 1 {
		t.Errorf("Replan ran %d full searches, want 1", n)
	}
	pb.RevalidateExisting()
	movedDep, err := pb.plan(req, math.Inf(1))
	if err != nil {
		t.Fatalf("unseeded replan: %v", err)
	}
	moved := buildDiff(dep, movedDep)
	if moved.Unchanged() || moved.New.ExpectedLatencyMS <= got.New.ExpectedLatencyMS {
		t.Fatalf("the unseeded replan must move to a slower deployment, else the case checks nothing: %s (%.3f ms against %.3f)",
			moved.New, moved.New.ExpectedLatencyMS, got.New.ExpectedLatencyMS)
	}
}
