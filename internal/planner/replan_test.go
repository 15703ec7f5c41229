package planner

import (
	"slices"
	"strings"
	"testing"

	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/property"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

func sdRequest() Request {
	return Request{
		Interface: spec.IfaceClient, ClientNode: topology.SDClient,
		User: "Alice", RateRPS: 50,
	}
}

// TestVerifyAcceptsPlannerOutput: everything the planner produces
// passes independent verification (the verifier is the oracle for the
// property-based tests below).
func TestVerifyAcceptsPlannerOutput(t *testing.T) {
	pl := caseStudyPlanner(t)
	requests := []Request{
		{Interface: spec.IfaceClient, ClientNode: topology.NYClient, User: "Alice", RateRPS: 50},
		sdRequest(),
		{Interface: spec.IfaceClient, ClientNode: topology.SeaClient, User: "Carol", RateRPS: 50},
	}
	for _, req := range requests {
		dep := planOrFail(t, pl, req)
		if err := pl.Verify(dep, req); err != nil {
			t.Errorf("planner output failed verification: %v\n%s", err, dep)
		}
		pl.AddExisting(dep.Placements...)
	}
}

// TestVerifyRejectsTamperedDeployment: moving a component to a node
// that breaks a constraint is caught.
func TestVerifyRejectsTamperedDeployment(t *testing.T) {
	pl := caseStudyPlanner(t)
	dep := planOrFail(t, pl, sdRequest())

	// Move the ViewMailServer to Seattle: its factored TrustLevel=4 no
	// longer matches, and the plaintext client hop crosses an insecure
	// link.
	bad := *dep
	bad.Placements = append([]Placement(nil), dep.Placements...)
	bad.Placements[1].Node = topology.SeaClient
	if err := pl.Verify(&bad, sdRequest()); err == nil {
		t.Error("tampered deployment must fail verification")
	}

	// Excessive rate is caught.
	over := sdRequest()
	over.RateRPS = 1e9
	if err := pl.Verify(dep, over); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Errorf("rate violation not caught: %v", err)
	}

	// Nil and malformed chains are rejected.
	if err := pl.Verify(nil, sdRequest()); err == nil {
		t.Error("nil deployment must fail")
	}
	broken := *dep
	broken.Placements = []Placement{{Component: "Ghost", Node: topology.SDClient}}
	if err := pl.Verify(&broken, sdRequest()); err == nil {
		t.Error("unknown component must fail")
	}
}

// TestRevalidateEvictsUntrustedView: dropping a site's trust evicts the
// view factored there (its node can no longer hold the escrowed keys).
func TestRevalidateEvictsUntrustedView(t *testing.T) {
	pl := caseStudyPlanner(t)
	dep := planOrFail(t, pl, sdRequest())
	pl.AddExisting(dep.Placements...)

	n, _ := pl.Net.Node(topology.SDClient)
	n.Props["TrustLevel"] = property.Int(1)
	gw, _ := pl.Net.Node(topology.SDGateway)
	gw.Props["TrustLevel"] = property.Int(1)

	evicted := pl.RevalidateExisting()
	foundView := false
	for _, p := range evicted {
		if p.Component == spec.CompViewMailServer {
			foundView = true
		}
		if p.Component == spec.CompMailServer {
			t.Error("the NY primary must survive an SD trust change")
		}
	}
	if !foundView {
		t.Errorf("the SD view must be evicted; evicted = %v", evicted)
	}
}

// TestReplanAfterTrustDrop: after San Diego loses trust, the replanned
// SD deployment stops caching there and the diff says what to remove.
func TestReplanAfterTrustDrop(t *testing.T) {
	pl := caseStudyPlanner(t)
	old := planOrFail(t, pl, sdRequest())
	pl.AddExisting(old.Placements...)

	for _, id := range []netmodel.NodeID{topology.SDClient, topology.SDGateway} {
		n, _ := pl.Net.Node(id)
		n.Props["TrustLevel"] = property.Int(1)
	}
	diff, err := pl.Replan(old, sdRequest())
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.Evicted) == 0 {
		t.Error("trust drop must evict instances")
	}
	for _, p := range diff.New.Placements {
		if p.Component == spec.CompViewMailServer {
			n, _ := pl.Net.Node(p.Node)
			if n.Site == topology.SiteSanDiego {
				t.Errorf("replan must not cache on untrusted SD nodes: %s", diff.New)
			}
		}
		if p.Component == spec.CompMailClient {
			// Alice's full client needs TrustLevel-independent conditions
			// only (User ACL), so it survives.
			continue
		}
	}
	removed := map[string]bool{}
	for _, p := range diff.Remove {
		removed[p.Component] = true
	}
	if !removed[spec.CompViewMailServer] {
		t.Errorf("diff must remove the old SD view; removed = %v", diff.Remove)
	}
	if err := pl.Verify(diff.New, sdRequest()); err != nil {
		t.Errorf("replanned deployment invalid: %v", err)
	}
}

// TestReplanAfterLinkSecured: securing the NY-SD path makes the
// encryptor pair unnecessary, but dropping it re-wires the view and the
// client, which the engine reinstalls. Under the default deploy penalty
// those two installs cost more than the tunnel, so the chain stays as it
// runs; with no penalty the replan drops the tunnel, installs the
// re-wired view and client and removes the pair.
func TestReplanAfterLinkSecured(t *testing.T) {
	for _, free := range []bool{false, true} {
		pl := caseStudyPlanner(t)
		if free {
			pl.DeployPenaltyMS = 0
		}
		old := planOrFail(t, pl, sdRequest())
		pl.AddExisting(old.Placements...)

		// Report the change through the monitor: it owns network
		// mutations and bumps the route epoch so the planner's path
		// cache (including cached link environments) is invalidated.
		secure := true
		if err := netmon.New(pl.Net).ReportLink(topology.NYServer, topology.SDGateway, -1, -1, &secure); err != nil {
			t.Fatal(err)
		}

		diff, err := pl.Replan(old, sdRequest())
		if err != nil {
			t.Fatal(err)
		}
		if !free {
			if !diff.Unchanged() || !sameDeploymentKeys(diff.New, old) {
				t.Errorf("two reinstalls cost more than the tunnel; the chain must stay: %s", diff.New)
			}
			continue
		}
		for _, p := range diff.New.Placements {
			if p.Component == spec.CompEncryptor || p.Component == spec.CompDecryptor {
				t.Errorf("secured link must not need the tunnel: %s", diff.New)
			}
		}
		var installed []string
		for _, p := range diff.Install {
			installed = append(installed, p.Component)
		}
		if want := []string{spec.CompMailClient, spec.CompViewMailServer}; !slices.Equal(installed, want) {
			t.Errorf("install = %v, want the re-wired %v", installed, want)
		}
		removed := map[string]bool{}
		for _, p := range diff.Remove {
			removed[p.Component] = true
		}
		if !removed[spec.CompEncryptor] || !removed[spec.CompDecryptor] {
			t.Errorf("diff must remove the tunnel pair; removed = %v", diff.Remove)
		}
		if diff.New.ExpectedLatencyMS >= old.ExpectedLatencyMS {
			t.Errorf("dropping the tunnel must not raise latency: %.2f -> %.2f",
				old.ExpectedLatencyMS, diff.New.ExpectedLatencyMS)
		}
	}
}

// TestReplanAfterLatencyChange: a latency report that shifts the
// shortest NY-Seattle route is picked up by Replan — every edge of the
// new deployment follows an epoch-current shortest path, never a stale
// cached one.
func TestReplanAfterLatencyChange(t *testing.T) {
	pl := caseStudyPlanner(t)
	req := Request{
		Interface: spec.IfaceClient, ClientNode: topology.SeaClient,
		User: "Carol", RateRPS: 50,
	}
	old := planOrFail(t, pl, req)
	pl.AddExisting(old.Placements...)

	// The direct NY-Seattle link (400 ms at seed, losing to the 300 ms
	// detour through San Diego) speeds up to 50 ms.
	if err := netmon.New(pl.Net).ReportLink(topology.NYServer, topology.SeaGW, 50, -1, nil); err != nil {
		t.Fatal(err)
	}
	want, ok := pl.Net.Routes().Path(topology.NYServer, topology.SeaGW)
	if !ok || len(want.Nodes) != 2 {
		t.Fatalf("direct link must now be the shortest NY-Sea route, got %v", want.Nodes)
	}

	diff, err := pl.Replan(old, req)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range diff.New.Edges {
		from := diff.New.Placements[e.From].Node
		to := diff.New.Placements[e.To].Node
		sp, ok := pl.Net.Routes().Path(from, to)
		if !ok {
			t.Fatalf("edge %s->%s lost its route", from, to)
		}
		if e.Path.LatencyMS != sp.LatencyMS {
			t.Errorf("edge %s->%s uses a stale path: %.1f ms cached vs %.1f ms current",
				from, to, e.Path.LatencyMS, sp.LatencyMS)
		}
	}
	if diff.New.ExpectedLatencyMS >= old.ExpectedLatencyMS {
		t.Errorf("a faster backbone must lower expected latency: %.2f -> %.2f",
			old.ExpectedLatencyMS, diff.New.ExpectedLatencyMS)
	}
	if err := pl.Verify(diff.New, req); err != nil {
		t.Errorf("replanned deployment invalid: %v", err)
	}
}

// TestReplanUnchangedWhenNothingChanged: a replan on a static network
// is a no-op.
func TestReplanUnchangedWhenNothingChanged(t *testing.T) {
	pl := caseStudyPlanner(t)
	old := planOrFail(t, pl, sdRequest())
	pl.AddExisting(old.Placements...)
	diff, err := pl.Replan(old, sdRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Unchanged() {
		t.Errorf("static network replan must be a no-op: install=%v remove=%v", diff.Install, diff.Remove)
	}
	if len(diff.Evicted) != 0 {
		t.Errorf("nothing must be evicted: %v", diff.Evicted)
	}
}

// TestQuickPlansAlwaysVerify: across random Waxman networks, whenever
// the planner finds a deployment it passes independent verification —
// the three validity conditions are never violated by search shortcuts.
func TestQuickPlansAlwaysVerify(t *testing.T) {
	svc := spec.MailService()
	for seed := int64(1); seed <= 8; seed++ {
		net, err := topology.Waxman(topology.DefaultWaxman(10, seed))
		if err != nil {
			t.Fatal(err)
		}
		nodes := net.Nodes()
		nodes[0].Props["TrustLevel"] = property.Int(5)
		pl := New(svc, net)
		ms, err := pl.PrimaryPlacement(spec.CompMailServer, nodes[0].ID)
		if err != nil {
			t.Fatal(err)
		}
		pl.AddExisting(ms)
		for _, client := range []int{1, 3, 7} {
			req := Request{
				Interface: spec.IfaceClient, ClientNode: nodes[client].ID,
				User: "Alice", RateRPS: 10,
			}
			dep, err := pl.Plan(req)
			if err != nil {
				continue // some random environments are legitimately unsatisfiable
			}
			if verr := pl.Verify(dep, req); verr != nil {
				t.Errorf("seed %d client %s: plan failed verification: %v\n%s",
					seed, nodes[client].ID, verr, dep)
			}
			pl.AddExisting(dep.Placements...)
		}
	}
}
