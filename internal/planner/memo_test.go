package planner

import (
	"testing"

	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/property"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

// TestPlanMemoDoesNotOutliveChange holds one long-lived Planner against
// planners built fresh for every question. What the planner keeps
// between calls (memo.go: the property layer and the reuse layers under
// it) is only safe if its key covers everything it was derived from,
// and the call's memo (link costs, head entries, scratch) only if it
// dies with its call. Each step changes one thing the plan depends on —
// a latency, a link's Secure flag, a node's trust through the monitor
// and by a direct write, a node's liveness, a credential, the reuse set
// — and the long-lived planner must answer as a fresh one does; the
// layer counters show what each step kept. A latency change that
// re-routes a pair onto a path with another property environment keeps
// the property layer: its walk states are keyed by the environment's
// content, not by the node pair.
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
	sea := Request{Interface: spec.IfaceClient, ClientNode: topology.SeaClient, User: "Carol", RateRPS: 50}
	planBoth := func(step string, req Request) *Deployment {
		t.Helper()
		want, wantErr := fresh(live.Existing).Plan(req)
		got, gotErr := live.Plan(req)
		same(step, got, want, gotErr, wantErr)
		return got
	}
	// kept plans both ways and requires the property layer to have been
	// kept (true) or rebuilt (false) by the long-lived planner's call.
	kept := func(step string, req Request, want bool) *Deployment {
		t.Helper()
		before := live.layers
		dep := planBoth(step, req)
		gotKept := live.layers.PropLayerKept > before.PropLayerKept
		if rebuilt := live.layers.PropLayerRebuilt > before.PropLayerRebuilt; gotKept == rebuilt || gotKept != want {
			t.Fatalf("%s: property layer kept=%v rebuilt=%v, want kept=%v", step, gotKept, rebuilt, want)
		}
		if live.Stats().PropLayerKept != live.layers.PropLayerKept {
			t.Fatalf("%s: Stats reports %d calls that kept the property layer, the planner counted %d",
				step, live.Stats().PropLayerKept, live.layers.PropLayerKept)
		}
		return dep
	}
	setTrust := func(id netmodel.NodeID, level int64) {
		n, _ := net.Node(id)
		n.Props["TrustLevel"] = property.Int(level)
	}

	first := kept("cold", sd, false)

	// A latency-only report: routes and link costs move, the property
	// layer stays.
	link, _ := net.Link(topology.NYServer, topology.SDGateway)
	if err := mon.ReportLink(topology.NYServer, topology.SDGateway, link.LatencyMS+800, link.BandwidthMbps, nil); err != nil {
		t.Fatal(err)
	}
	if moved := kept("after ny-1~sd-1 +800 ms", sd, true); moved.ExpectedLatencyMS == first.ExpectedLatencyMS {
		t.Fatal("the link report did not change the plan's cost; the step checks nothing")
	}

	// Link costs are kept per route handle: a second call on the handle
	// reuses the tables; a call after the next report starts over, and a
	// table that outlived its handle would price the old latency.
	tables := live.links
	planBoth("same route handle", sd)
	if live.links != tables {
		t.Fatal("a call on the same route handle rebuilt the link-cost tables")
	}
	if err := mon.ReportLink(topology.NYServer, topology.SDGateway, link.LatencyMS-800, link.BandwidthMbps, nil); err != nil {
		t.Fatal(err)
	}
	if back := planBoth("after ny-1~sd-1 restored", sd); back.ExpectedLatencyMS != first.ExpectedLatencyMS {
		t.Fatalf("after the restore the plan costs %.6f ms, before the report %.6f ms", back.ExpectedLatencyMS, first.ExpectedLatencyMS)
	}
	if live.links == tables || live.links.routes != net.Routes() {
		t.Fatal("the link-cost tables outlived their route handle")
	}

	// A trust drop through the monitor: placements, factored
	// configurations and property evaluations at sd-2 move.
	if err := mon.ReportNodeProps(topology.SDClient, property.Set{"TrustLevel": property.Int(1)}); err != nil {
		t.Fatal(err)
	}
	dropped := kept("after sd-2 trust drop", sd, false)
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
	kept("trust and latency restored", sd, false)

	// The same trust drop written in place, once followed by an
	// invalidation and once without one: the node snapshot catches what
	// no generation records.
	setTrust(topology.SDClient, 1)
	net.InvalidateRoutes()
	kept("after a direct trust write and InvalidateRoutes", sd, false)
	setTrust(topology.SDClient, 4)
	kept("after a direct trust write alone", sd, false)

	// A Secure flip: New York–Seattle becomes confidential, and every
	// path environment through it changes.
	secure := true
	if err := mon.ReportLink(topology.NYServer, topology.SeaGW, -1, -1, &secure); err != nil {
		t.Fatal(err)
	}
	beforeReroute := kept("after ny-1~sea-1 turns secure", sea, false)

	// A latency change that re-routes sea-1 -> ny-1 from the insecure
	// path through San Diego onto the now-secure direct link: another
	// environment, and no invalidation of the property layer.
	envOf := func() property.Set {
		_, env, ok := net.Routes().PathEnv(topology.SeaGW, topology.NYServer)
		if !ok {
			t.Fatal("no route sea-1 -> ny-1")
		}
		return env
	}
	envBefore := envOf()
	slow, _ := net.Link(topology.SDGateway, topology.SeaGW)
	if err := mon.ReportLink(topology.SDGateway, topology.SeaGW, slow.LatencyMS+800, -1, nil); err != nil {
		t.Fatal(err)
	}
	if envBefore.Equal(envOf()) {
		t.Fatalf("sea-1 -> ny-1 kept its environment %v; the step checks nothing", envBefore)
	}
	if rerouted := kept("after sea-1 -> ny-1 re-routes onto the secure link", sea, true); rerouted.String() == beforeReroute.String() {
		t.Fatalf("the re-route did not change the Seattle plan (%s); the step checks nothing", rerouted)
	}
	if err := mon.ReportLink(topology.SDGateway, topology.SeaGW, slow.LatencyMS-800, -1, nil); err != nil {
		t.Fatal(err)
	}
	secure = false
	if err := mon.ReportLink(topology.NYServer, topology.SeaGW, -1, -1, &secure); err != nil {
		t.Fatal(err)
	}
	kept("Secure and latency restored", sea, false)

	// A node death: placements there and every route through it go.
	if err := mon.ReportNodeDown(topology.SDGateway); err != nil {
		t.Fatal(err)
	}
	kept("after sd-1 dies", sea, false)
	if err := mon.ReportNodeUp(topology.SDGateway); err != nil {
		t.Fatal(err)
	}
	kept("after sd-1 returns", sea, false)

	// A credential change, translated: Seattle's trust rises to San
	// Diego's, and with it the views it may host.
	seaNode, _ := net.Node(topology.SeaClient)
	seaNode.Credentials["trust"] = "4"
	net.Translate(topology.MailTranslation())
	kept("after sea-2's trust credential rises", sea, false)
	seaNode.Credentials["trust"] = "2"
	net.Translate(topology.MailTranslation())
	kept("credential restored", sea, false)

	// A reuse-set change without a generation: Existing reassigned
	// wholesale, as the fleet and the table do before every call. The
	// reuse layer of the earlier set is found again by its content.
	warmSD := planBoth("San Diego for the reuse set", sd)
	base := append([]Placement(nil), live.Existing...)
	live.Existing = append(append([]Placement(nil), base...), warmSD.Placements...)
	for i := range live.Existing {
		live.Existing[i].Reused = false
	}
	withSD := planBoth("Seattle with San Diego's chain reassigned in", sea)
	// The same instances, San Diego's view recording a far slower
	// upstream: as many entries, other content.
	live.Existing = append([]Placement(nil), live.Existing...)
	for i := range live.Existing {
		if live.Existing[i].Component == spec.CompViewMailServer {
			live.Existing[i].UpstreamMS += 2000
		}
	}
	if slow := planBoth("Seattle with San Diego's view 2 s further from the primary", sea); slow.String() == withSD.String() {
		t.Fatalf("the view's upstream latency did not change the Seattle plan (%s); the step checks nothing", slow)
	}
	live.Existing = append([]Placement(nil), base...)
	reuse := live.layers
	if bare := planBoth("Seattle with the bare primary reassigned back", sea); bare.String() == withSD.String() {
		t.Fatalf("the reuse set did not change the Seattle plan (%s); the step checks nothing", bare)
	}
	if live.layers.ReuseLayerKept == reuse.ReuseLayerKept {
		t.Fatal("the bare primary's reuse layer was not found again by its content")
	}

	// The reuse set seen two ways inside one call: register a warm San
	// Diego chain and a Seattle session on it, degrade the link under the
	// Seattle chain's interior, and adapt. The repair keeps its pins over
	// the full reuse set; a plain plan would cut at the session's own
	// view and change nothing; the settled search sees the same set with
	// the session's own wiring installable afresh — two reuse layers on
	// one memo. Its answer is reproduced below on a fresh planner without
	// that wiring.
	warm := planBoth("warm chain", sd)
	live.AddExisting(warm.Placements...)
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

	diff, err := live.Replan(old, sea)
	if err != nil {
		t.Fatal(err)
	}
	same("rewire pass of Replan", diff.New, want, nil, nil)

	// And the call left nothing of its own behind: the next plan is a
	// fresh one's, and the call's memo is gone.
	planBoth("after Replan", sea)
	if live.memo != nil || live.depth != 0 {
		t.Fatalf("the call's memo outlived its call (depth %d)", live.depth)
	}
}

// keptEntries counts everything the planner keeps between calls: the
// property layer's tables and the reuse layers under it.
func (pl *Planner) keptEntries() int {
	pr := pl.props
	if pr == nil {
		return 0
	}
	n := len(pr.places) + len(pr.evals) + len(pr.keyIDs) + len(pr.dupIDs) + len(pr.lists) +
		len(pr.walks) + len(pr.walkID) + len(pr.joinID) + len(pr.stands)
	for _, ru := range pr.reuse {
		n += len(ru.existing) + len(ru.byKey) + len(ru.lists)
		for _, gs := range ru.graphs {
			n += len(gs)
		}
	}
	return n
}

// TestKeptStateIsBounded runs 1 200 calls on one planner while the
// reuse set changes on every call — instances come and go, and a
// recorded upstream latency takes a new value each time, so no two
// calls see the same set — and the property key changes every 25th
// (a trust report, a Secure flip, a node death). What the planner keeps
// between calls must stay bounded: at most maxReuseLayers reuse layers,
// and no more kept entries at the end than at the most the first 200
// calls held.
func TestKeptStateIsBounded(t *testing.T) {
	net := topology.CaseStudy()
	mon := netmon.New(net)
	pl := New(spec.MailService(), net)
	primary, err := pl.PrimaryPlacement(spec.CompMailServer, topology.NYServer)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Request{
		{Interface: spec.IfaceClient, ClientNode: topology.NYClient, User: "Alice", RateRPS: 50},
		{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50},
		{Interface: spec.IfaceClient, ClientNode: topology.SeaClient, User: "Carol", RateRPS: 50},
	}
	pl.Existing = []Placement{primary}
	sdDep := planOrFail(t, pl, reqs[1])

	const calls = 1200
	early, rebuilt := 0, pl.layers.PropLayerRebuilt
	for i := 0; i < calls; i++ {
		// A reuse set no earlier call saw.
		existing := []Placement{primary}
		if i%3 != 0 {
			existing = append(existing, sdDep.Placements...)
			existing[len(existing)-1].UpstreamMS = float64(i)
		}
		pl.Existing = existing
		if i%25 == 24 {
			switch i / 25 % 3 {
			case 0:
				trust := int64(3 + i/75%2)
				if err := mon.ReportNodeProps(topology.SDGateway, property.Set{"TrustLevel": property.Int(trust)}); err != nil {
					t.Fatal(err)
				}
			case 1:
				secure := i/75%2 == 0
				if err := mon.ReportLink(topology.NYServer, topology.SeaGW, -1, -1, &secure); err != nil {
					t.Fatal(err)
				}
			case 2:
				report := mon.ReportNodeDown
				if i/75%2 == 1 {
					report = mon.ReportNodeUp
				}
				if err := report(topology.NYExtra); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := pl.Plan(reqs[i%len(reqs)]); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if n := len(pl.props.reuse); n > maxReuseLayers {
			t.Fatalf("call %d: %d reuse layers kept, the bound is %d", i, n, maxReuseLayers)
		}
		if i < 200 {
			early = max(early, pl.keptEntries())
		}
	}
	if got := pl.layers.PropLayerRebuilt - rebuilt; got < calls/25 {
		t.Fatalf("the property layer was rebuilt %d times over %d key changes", got, calls/25)
	}
	if got := pl.keptEntries(); got > early {
		t.Fatalf("after %d calls the planner keeps %d entries, at most %d over the first 200", calls, got, early)
	}
	t.Logf("kept entries: %d at the end, at most %d over the first 200 calls", pl.keptEntries(), early)
}
