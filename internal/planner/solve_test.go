package planner

import (
	"fmt"
	"math"
	"testing"

	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/property"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

// exhaustiveOrFail runs the reference planner (oracle_test.go).
func exhaustiveOrFail(t *testing.T, pl *Planner, req Request) *Deployment {
	t.Helper()
	dep, err := pl.planExhaustive(req)
	if err != nil {
		t.Fatalf("planExhaustive(%+v): %v\nstats: %+v", req, err, pl.Stats())
	}
	return dep
}

// assertSamePlan is the oracle's verdict: Plan must return exactly what
// the exhaustive reference returns — the same placements in the same
// order with the same reuse marks, and the same three metrics.
func assertSamePlan(t *testing.T, label string, got, want *Deployment) {
	t.Helper()
	near := func(a, b float64) bool {
		return a == b || math.Abs(a-b) <= 1e-6*math.Max(1, math.Abs(b))
	}
	if got.String() != want.String() {
		t.Errorf("%s:\n  exhaustive: %s\n  plan:       %s", label, want, got)
	}
	if !near(got.ExpectedLatencyMS, want.ExpectedLatencyMS) {
		t.Errorf("%s: latency %v (plan) vs %v (exhaustive)", label, got.ExpectedLatencyMS, want.ExpectedLatencyMS)
	}
	if got.NewComponents != want.NewComponents {
		t.Errorf("%s: new components %d (plan) vs %d (exhaustive)", label, got.NewComponents, want.NewComponents)
	}
	if !near(got.CapacityRPS, want.CapacityRPS) {
		t.Errorf("%s: capacity %v (plan) vs %v (exhaustive)", label, got.CapacityRPS, want.CapacityRPS)
	}
}

var allObjectives = []Objective{MinLatency, MinCost, MaxCapacity}

// figure6Requests are the case study's three requests in the paper's
// deployment order.
func figure6Requests(o Objective) []Request {
	return []Request{
		{Interface: spec.IfaceClient, ClientNode: topology.NYClient, User: "Alice", RateRPS: 50, Objective: o},
		{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50, Objective: o},
		{Interface: spec.IfaceClient, ClientNode: topology.SeaClient, User: "Carol", RateRPS: 50, Objective: o},
	}
}

// TestSolverMatchesExhaustiveCaseStudy: Plan produces exactly the
// deployments of the paper's exhaustive planner for the three Figure 6
// requests — each planned fresh against the bare primary, and planned
// incrementally in deployment order (San Diego reuses nothing of New
// York's, Seattle anchors onto San Diego's view) — under every
// objective. Every incremental request is planned twice on the one
// planner, cold and then again: a second call must find nothing the
// first left behind.
func TestSolverMatchesExhaustiveCaseStudy(t *testing.T) {
	for _, o := range allObjectives {
		t.Run(o.String(), func(t *testing.T) {
			exh, pl := caseStudyPlanner(t), caseStudyPlanner(t)
			for i, req := range figure6Requests(o) {
				// The first request meets the bare primary either way, so
				// its fresh plan is the incremental one.
				if i > 0 {
					want := exhaustiveOrFail(t, caseStudyPlanner(t), req)
					got := planOrFail(t, caseStudyPlanner(t), req)
					assertSamePlan(t, fmt.Sprintf("fresh request %d", i), got, want)
				}
				want := exhaustiveOrFail(t, exh, req)
				got := planOrFail(t, pl, req)
				assertSamePlan(t, fmt.Sprintf("incremental request %d", i), got, want)
				assertSamePlan(t, fmt.Sprintf("incremental request %d, planned again", i), planOrFail(t, pl, req), want)
				exh.AddExisting(want.Placements...)
				pl.AddExisting(got.Placements...)
			}
			if pl.SolverStats.Solves.Load() == 0 {
				t.Error("solver stats not populated")
			}
		})
	}
}

// TestSolverMatchesExhaustiveMinCost: equality under the MinCost
// objective at a rate that forces the cache (EdgeBound is exact there,
// so the search is tight).
func TestSolverMatchesExhaustiveMinCost(t *testing.T) {
	req := Request{
		Interface: spec.IfaceClient, ClientNode: topology.SDClient,
		User: "Alice", RateRPS: 200, Objective: MinCost,
	}
	want := exhaustiveOrFail(t, caseStudyPlanner(t), req)
	got := planOrFail(t, caseStudyPlanner(t), req)
	assertSamePlan(t, "min-cost", got, want)
}

// TestSolverMatchesExhaustiveMaxCapacity: MaxCapacity disables the
// bound (whole-deployment headroom is not edge-decomposable) and the
// solver degenerates to pruned enumeration — results still match.
func TestSolverMatchesExhaustiveMaxCapacity(t *testing.T) {
	req := Request{
		Interface: spec.IfaceClient, ClientNode: topology.SDClient,
		User: "Alice", RateRPS: 50, Objective: MaxCapacity,
	}
	want := exhaustiveOrFail(t, caseStudyPlanner(t), req)
	got := planOrFail(t, caseStudyPlanner(t), req)
	assertSamePlan(t, "max-capacity", got, want)
}

// TestSolverSeattleIncremental: the incremental Seattle plan anchors
// onto the San Diego view.
func TestSolverSeattleIncremental(t *testing.T) {
	pl := caseStudyPlanner(t)
	sd := planOrFail(t, pl, Request{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50})
	pl.AddExisting(sd.Placements...)
	sea := planOrFail(t, pl, Request{Interface: spec.IfaceClient, ClientNode: topology.SeaClient, User: "Carol", RateRPS: 50})
	tail := sea.Placements[len(sea.Placements)-1]
	if tail.Component != spec.CompViewMailServer || tail.Node != topology.SDClient || !tail.Reused {
		t.Errorf("Seattle plan must terminate at the SD view: %s", sea)
	}
}

// TestSolverErrors: requests no deployment can satisfy error on Plan
// and on the exhaustive reference alike — malformed requests, a client
// cut off from the primary (propagation proves it without enumerating),
// and a rate beyond every chain's capacity.
func TestSolverErrors(t *testing.T) {
	partitioned := func() *Planner {
		pl := caseStudyPlanner(t)
		if err := netmon.New(pl.Net).ReportNodeDown(topology.SDGateway); err != nil {
			t.Fatal(err)
		}
		return pl
	}
	cases := []struct {
		name  string
		build func() *Planner
		req   Request
	}{
		{"unknown client node", func() *Planner { return caseStudyPlanner(t) },
			Request{Interface: spec.IfaceClient, ClientNode: "ghost"}},
		{"unknown interface", func() *Planner { return caseStudyPlanner(t) },
			Request{Interface: "Ghost", ClientNode: topology.NYClient}},
		{"partitioned client", partitioned,
			Request{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50}},
		{"over-rate", func() *Planner { return caseStudyPlanner(t) },
			Request{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 1e9}},
	}
	for _, c := range cases {
		for _, o := range allObjectives {
			req := c.req
			req.Objective = o
			if dep, err := c.build().Plan(req); err == nil {
				t.Errorf("%s (%s): Plan admitted %s", c.name, o, dep)
			}
		}
		// Feasibility does not depend on the objective: once is enough
		// for the (slow) reference.
		if dep, err := c.build().planExhaustive(c.req); err == nil {
			t.Errorf("%s: the exhaustive reference admitted %s", c.name, dep)
		}
	}
}

// TestSolverMatchesExhaustiveOnRandomNets: differential check on seeded
// Waxman networks of 8, 16 and 32 nodes under every objective — Plan
// agrees with the exhaustive mapper on feasibility and on the chosen
// deployment, against the bare primary and against a reuse set holding
// another client's deployment (anchor graphs, reused candidates and
// upstream charges all in play), each planned cold and then again on
// the same planner. The exhaustive search is n^(free positions), so the larger
// sizes bound the chain length (identically on both sides) to keep the
// reference affordable. (The subtests stay sequential on purpose: run in
// parallel they starve timing-sensitive tests of packages `go test ./...`
// schedules beside this one.)
func TestSolverMatchesExhaustiveOnRandomNets(t *testing.T) {
	sizes := []struct {
		nodes, seeds, maxChainLen int
	}{{8, 2, 0}, {16, 2, 5}, {32, 2, 4}}
	for _, sz := range sizes {
		for seed := int64(1); seed <= int64(sz.seeds); seed++ {
			t.Run(fmt.Sprintf("n=%d/seed=%d", sz.nodes, seed), func(t *testing.T) {
				net, err := topology.Waxman(topology.DefaultWaxman(sz.nodes, seed))
				if err != nil {
					t.Fatal(err)
				}
				nodes := net.Nodes()
				nodes[0].Props["TrustLevel"] = property.Int(5)

				build := func() *Planner {
					pl := New(spec.MailService(), net)
					pl.MaxChainLen = sz.maxChainLen
					ms, err := pl.PrimaryPlacement(spec.CompMailServer, nodes[0].ID)
					if err != nil {
						t.Fatal(err)
					}
					pl.AddExisting(ms)
					return pl
				}
				// The neighbour's deployment, when it has one, is the reuse
				// set of the second round.
				neighbour, _ := build().Plan(Request{
					Interface: spec.IfaceClient, ClientNode: nodes[3].ID, User: "Alice", RateRPS: 10,
				})
				for _, reuse := range []*Deployment{nil, neighbour} {
					label := "bare primary"
					if reuse != nil {
						label = "reuse set"
					} else if neighbour == nil {
						continue
					}
					for _, o := range allObjectives {
						req := Request{
							Interface: spec.IfaceClient, ClientNode: nodes[2].ID, User: "Alice", RateRPS: 10, Objective: o,
						}
						exh, pl := build(), build()
						if reuse != nil {
							exh.AddExisting(reuse.Placements...)
							pl.AddExisting(reuse.Placements...)
						}
						want, errA := exh.planExhaustive(req)
						for _, pass := range []string{"cold", "again"} {
							got, errB := pl.Plan(req)
							if (errA == nil) != (errB == nil) {
								t.Errorf("%s, %s, %s: feasibility disagrees: exhaustive=%v plan=%v", label, o, pass, errA, errB)
								continue
							}
							if errA == nil {
								assertSamePlan(t, fmt.Sprintf("%s, %s, %s", label, o, pass), got, want)
							}
						}
					}
				}
			})
		}
	}
}

// TestSolverCoversTreesBeyondChains: the portal service's linkage graph
// branches (Portal requires both ServerInterface and LogInterface). Plan
// agrees with the exhaustive reference on it under every objective, and
// the returned deployment carries interface-labeled edges so the engine
// can wire the branches.
func TestSolverCoversTreesBeyondChains(t *testing.T) {
	for _, o := range allObjectives {
		req := Request{Interface: "PortalInterface", ClientNode: topology.SDClient, RateRPS: 10, Objective: o}
		want := exhaustiveOrFail(t, portalPlanner(t), req)
		got := planOrFail(t, portalPlanner(t), req)
		assertSamePlan(t, o.String(), got, want)
		if len(got.Edges) != len(got.Placements)-1 {
			t.Fatalf("deployment must carry one edge per linkage: %d edges for %d placements",
				len(got.Edges), len(got.Placements))
		}
		branching := false
		for _, e := range got.Edges {
			if e.Iface == "" {
				t.Errorf("edge %d->%d has no linking interface", e.From, e.To)
			}
			if e.To != e.From+1 {
				branching = true
			}
		}
		if !branching {
			t.Errorf("portal deployment should branch (non-consecutive edges): %s", got)
		}
	}
}

// TestPlanUniformRateAdmission: validity condition 3 (sustaining the
// request rate) holds for whatever Plan returns, chain or tree, so no
// caller can be handed a deployment that cannot carry the requested
// load.
func TestPlanUniformRateAdmission(t *testing.T) {
	pl := caseStudyPlanner(t)
	bad := Request{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 1e9}
	if _, err := pl.Plan(bad); err == nil {
		t.Error("Plan admitted an infeasible rate")
	}
	ok := Request{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50}
	dep, err := pl.Plan(ok)
	if err != nil {
		t.Fatalf("Plan rejected a feasible rate: %v", err)
	}
	if dep.CapacityRPS < 50 {
		t.Errorf("Plan returned capacity %.1f below the admitted rate", dep.CapacityRPS)
	}
	portal := Request{Interface: "PortalInterface", ClientNode: topology.SDClient, RateRPS: 10}
	tree := planOrFail(t, portalPlanner(t), portal)
	if tree.CapacityRPS < portal.RateRPS {
		t.Errorf("tree plan returned capacity %.1f below the admitted rate", tree.CapacityRPS)
	}
	portal.RateRPS = 1e9
	if dep, err := portalPlanner(t).Plan(portal); err == nil {
		t.Errorf("Plan admitted an over-rate tree deployment: %s", dep)
	}
}

// repairWorlds builds two planners over one shared case-study network,
// both warmed with the same San Diego deployment, so that one can serve
// as the other's reference.
func repairWorlds(t *testing.T) (net *netmodel.Network, pa, pb *Planner, dep *Deployment, req Request) {
	t.Helper()
	net = topology.CaseStudy()
	build := func() *Planner {
		pl := New(spec.MailService(), net)
		ms, err := pl.PrimaryPlacement(spec.CompMailServer, topology.NYServer)
		if err != nil {
			t.Fatal(err)
		}
		pl.AddExisting(ms)
		return pl
	}
	pa, pb = build(), build()
	req = Request{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50}
	depA := planOrFail(t, pa, req)
	depB := planOrFail(t, pb, req)
	if depA.String() != depB.String() {
		t.Fatalf("warm plans diverge:\n  a: %s\n  b: %s", depA, depB)
	}
	pa.AddExisting(depA.Placements...)
	pb.AddExisting(depB.Placements...)
	return net, pa, pb, depA, req
}

// TestRepairReplanLinkEvent: a latency change on the inter-site link
// under the deployed chain moves no placement. The one search finds
// nothing better than keeping the chain, so the caller gets the chain as
// it runs now: the old placements re-costed under the degraded link.
func TestRepairReplanLinkEvent(t *testing.T) {
	net, pa, _, dep, req := repairWorlds(t)
	mon := netmon.New(net)
	if err := mon.ReportLink(topology.NYServer, topology.SDGateway, 220, 20, nil); err != nil {
		t.Fatal(err)
	}
	searches := pa.Stats().FullSearches
	diff, err := pa.Replan(dep, req)
	if err != nil {
		t.Fatalf("Replan: %v", err)
	}
	if !diff.Unchanged() || !sameDeploymentKeys(diff.New, dep) {
		t.Errorf("a mild degradation moved placements:\n  old: %s\n  new: %s", dep, diff.New)
	}
	if diff.New.ExpectedLatencyMS <= dep.ExpectedLatencyMS {
		t.Errorf("the kept chain must be re-costed under the degraded link: %v -> %v", dep.ExpectedLatencyMS, diff.New.ExpectedLatencyMS)
	}
	if n := pa.Stats().FullSearches - searches; n != 1 {
		t.Errorf("Replan ran %d full searches, want 1", n)
	}
	if got := pa.SolverStats.Repairs.Load(); got != 0 {
		t.Errorf("Replan ran the solver's repair %d times, want 0", got)
	}
}
