package planner

import (
	"testing"

	"partsvc/internal/netmon"
	"partsvc/internal/property"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

// TestPlanMemoDoesNotOutliveChange holds one long-lived Planner against
// planners built fresh for every question. The per-call memo (placement
// evaluations, candidate lists, link-cost tables, the property walk,
// the enumerated graphs, the engine's working arrays) is only safe if
// none of it survives the call that filled it and if everything derived
// from the reuse set is rebuilt when the reuse set moves inside a call.
// A table that outlives a link report, a placement that outlives a
// trust drop, or an anchor graph that outlives the rewire check's
// DropExisting would each make the long-lived planner answer
// differently from a fresh one.
func TestPlanMemoDoesNotOutliveChange(t *testing.T) {
	net := topology.CaseStudy()
	mon := netmon.New(net)
	live := New(spec.MailService(), net)
	primary, err := live.PrimaryPlacement(spec.CompMailServer, topology.NYServer)
	if err != nil {
		t.Fatal(err)
	}
	live.AddExisting(primary)

	// fresh is a new planner over the same network state, given the
	// reuse set the long-lived one holds now.
	fresh := func(existing []Placement) *Planner {
		pl := New(spec.MailService(), net)
		pl.AddExisting(existing...)
		return pl
	}
	same := func(step string, got, want *Deployment, gotErr, wantErr error) {
		t.Helper()
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s: long-lived planner err=%v, fresh planner err=%v", step, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if got.String() != want.String() || got.ExpectedLatencyMS != want.ExpectedLatencyMS ||
			got.CapacityRPS != want.CapacityRPS || got.NewComponents != want.NewComponents {
			t.Fatalf("%s: long-lived planner diverged from a fresh one:\n  got  %s (%.6f ms, %.3f rps, %d new)\n  want %s (%.6f ms, %.3f rps, %d new)",
				step, got, got.ExpectedLatencyMS, got.CapacityRPS, got.NewComponents,
				want, want.ExpectedLatencyMS, want.CapacityRPS, want.NewComponents)
		}
	}
	sd := Request{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50}
	planBoth := func(step string, req Request) *Deployment {
		t.Helper()
		want, wantErr := fresh(live.Existing).Plan(req)
		got, gotErr := live.Plan(req)
		same(step, got, want, gotErr, wantErr)
		return got
	}

	first := planBoth("cold", sd)

	// A link report: routes, link costs and the walk's environments move.
	link, _ := net.Link(topology.NYServer, topology.SDGateway)
	if err := mon.ReportLink(topology.NYServer, topology.SDGateway, link.LatencyMS+800, link.BandwidthMbps, nil); err != nil {
		t.Fatal(err)
	}
	if moved := planBoth("after ny-1~sd-1 +800 ms", sd); moved.ExpectedLatencyMS == first.ExpectedLatencyMS {
		t.Fatal("the link report did not change the plan's cost; the step checks nothing")
	}

	// A trust drop: placements, factored configurations and property
	// evaluations at sd-2 move.
	if err := mon.ReportNodeProps(topology.SDClient, property.Set{"TrustLevel": property.Int(1)}); err != nil {
		t.Fatal(err)
	}
	dropped := planBoth("after sd-2 trust drop", sd)
	for _, p := range dropped.Placements {
		if p.Component == spec.CompViewMailServer && p.Node == topology.SDClient {
			t.Fatalf("a view is still placed on the untrusted node: %s", dropped)
		}
	}
	if err := mon.ReportNodeProps(topology.SDClient, property.Set{"TrustLevel": property.Int(4)}); err != nil {
		t.Fatal(err)
	}
	if err := mon.ReportLink(topology.NYServer, topology.SDGateway, link.LatencyMS-800, link.BandwidthMbps, nil); err != nil {
		t.Fatal(err)
	}

	// The reuse set moving inside one call: register a warm San Diego
	// chain and a Seattle session on it, degrade the link under the
	// Seattle chain's interior, and adapt. The repair keeps its pins, the
	// replan cuts at the anchor and changes nothing, and the rewire check
	// drops the session's own wiring from the reuse set, replans, and
	// puts it back — three passes and three reuse-set generations on one
	// memo. Each pass is reproduced below on its own fresh planner.
	warm := planBoth("warm chain", sd)
	live.AddExisting(warm.Placements...)
	sea := Request{Interface: spec.IfaceClient, ClientNode: topology.SeaClient, User: "Carol", RateRPS: 50}
	old := planBoth("seattle", sea)
	live.AddExisting(old.Placements...)
	if err := mon.ReportLink(topology.SDGateway, topology.SeaGW, 1500, 1, nil); err != nil {
		t.Fatal(err)
	}
	registered := append([]Placement(nil), live.Existing...)

	replanned, err := fresh(registered).Plan(sea)
	if err != nil {
		t.Fatal(err)
	}
	if !buildDiff(old, replanned).Unchanged() {
		t.Fatalf("the scenario must reach the rewire check, but a plain replan already moves: %s", replanned)
	}
	own := map[string]bool{}
	for _, p := range old.Placements[:len(old.Placements)-1] {
		own[p.Key()] = true
	}
	var without []Placement
	for _, p := range registered {
		if !own[p.Key()] {
			without = append(without, p)
		}
	}
	want, wantErr := fresh(without).Plan(sea)
	if wantErr != nil {
		t.Fatal(wantErr)
	}
	if sameDeploymentKeys(want, old) {
		t.Fatal("the rewire plan places as before; the scenario checks nothing")
	}

	ch := NewChangedSet()
	ch.AddLink(topology.SDGateway, topology.SeaGW)
	diff, err := live.RepairReplan(old, sea, ch)
	if err != nil {
		t.Fatal(err)
	}
	same("rewire pass of RepairReplan", diff.New, want, nil, nil)

	// And the call left nothing behind: the next plan is a fresh one's.
	planBoth("after RepairReplan", sea)
	if live.memo != nil || live.depth != 0 {
		t.Fatalf("the memo outlived its call (depth %d)", live.depth)
	}
}
