package planner

import (
	"reflect"
	"testing"

	"partsvc/internal/netmon"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

// rewireWorld bootstraps the fig8/case-study planning state: the NY
// primary, a warm San Diego chain, and a Seattle deployment whose
// interior wiring crosses the SD–Seattle link.
func rewireWorld(t *testing.T) (*Planner, *netmon.Monitor, *Deployment, Request) {
	t.Helper()
	net := topology.CaseStudy()
	mon := netmon.New(net)
	pl := New(spec.MailService(), net)
	primary, err := pl.PrimaryPlacement(spec.CompMailServer, topology.NYServer)
	if err != nil {
		t.Fatal(err)
	}
	pl.AddExisting(primary)
	warm := Request{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50}
	warmDep, err := pl.Plan(warm)
	if err != nil {
		t.Fatal(err)
	}
	pl.AddExisting(warmDep.Placements...)
	req := Request{Interface: spec.IfaceClient, ClientNode: topology.SeaClient, User: "Carol", RateRPS: 50}
	dep, err := pl.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	pl.AddExisting(dep.Placements...)
	return pl, mon, dep, req
}

func existingKeys(pl *Planner) map[string]bool {
	keys := map[string]bool{}
	for _, p := range pl.Existing {
		keys[p.Key()] = true
	}
	return keys
}

// TestReplanRewireNoopOnStableNetwork: when nothing changed, the rewire
// check must conclude the current wiring is still optimal, return the
// plain no-op diff, and leave the reuse set exactly as it found it.
func TestReplanRewireNoopOnStableNetwork(t *testing.T) {
	pl, _, dep, req := rewireWorld(t)
	before := existingKeys(pl)
	diff, err := pl.ReplanRewire(dep, req)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Unchanged() || len(diff.Evicted) != 0 {
		t.Fatalf("stable network must be a no-op, got install=%d remove=%d evicted=%d",
			len(diff.Install), len(diff.Remove), len(diff.Evicted))
	}
	after := existingKeys(pl)
	if len(after) != len(before) {
		t.Fatalf("reuse set changed size: %d -> %d", len(before), len(after))
	}
	for k := range before {
		if !after[k] {
			t.Errorf("reuse entry %s lost by the rewire check", k)
		}
	}
}

// TestReplanRewireMovesDegradedWiring: degrading the SD–Seattle link
// evicts nothing (revalidation is validity-scoped), but the Seattle
// chain's decryptor-to-anchor hop now routes the long way around; the
// rewire check must notice and produce a diff that re-wires the chain
// off the degraded link, removing only the session's own wiring.
func TestReplanRewireMovesDegradedWiring(t *testing.T) {
	pl, mon, dep, req := rewireWorld(t)
	ownKeys := map[string]bool{}
	for _, p := range dep.Placements[:len(dep.Placements)-1] {
		ownKeys[p.Key()] = true
	}
	tail := dep.Placements[len(dep.Placements)-1]
	onSD := false
	for _, p := range dep.Placements {
		if p.Node == topology.SDClient {
			onSD = true
		}
	}
	if !onSD {
		t.Fatalf("Seattle chain should wire through sd-2: %s", dep)
	}
	if err := mon.ReportLink(topology.SDGateway, topology.SeaGW, 1500, 1, nil); err != nil {
		t.Fatal(err)
	}
	diff, err := pl.ReplanRewire(dep, req)
	if err != nil {
		t.Fatal(err)
	}
	if diff.Unchanged() {
		t.Fatal("degraded interior link must trigger a rewire")
	}
	if len(diff.Evicted) != 0 {
		t.Fatalf("a degrade evicts nothing, got %v", diff.Evicted)
	}
	for _, p := range diff.New.Placements {
		if p.Node == topology.SDClient && p.Component == spec.CompDecryptor {
			t.Fatalf("rewired chain still decrypts behind the degraded link: %s", diff.New)
		}
	}
	for _, p := range diff.Remove {
		if !ownKeys[p.Key()] {
			t.Errorf("Remove contains %s, which is not the session's own wiring", p.Key())
		}
		if p.Key() == tail.Key() {
			t.Errorf("shared tail %s must keep running", tail.Key())
		}
	}
	if len(diff.Remove) == 0 {
		t.Fatal("the abandoned decryptor should be removed")
	}
	// The shared tail (another session's view) must survive in the
	// reuse set even though the rewired chain no longer uses it.
	if !existingKeys(pl)[tail.Key()] {
		t.Fatalf("shared tail %s dropped from the reuse set", tail.Key())
	}
}

// TestRepairReplanMatchesRewireOnInteriorLink: repair must not switch
// adaptation off. Degrading an interior link of the deployed Seattle
// chain invalidates nothing, so a pinned repair alone answers
// "unchanged" and would leave the session on the degraded link; going
// through RepairReplan with the event's ChangedSet must produce the
// same install/remove sets as the full ReplanRewire — and the same
// again when the link is restored and the session moves back.
func TestRepairReplanMatchesRewireOnInteriorLink(t *testing.T) {
	net := topology.CaseStudy()
	mon := netmon.New(net)
	req := Request{Interface: spec.IfaceClient, ClientNode: topology.SeaClient, User: "Carol", RateRPS: 50}
	build := func() (*Planner, *Deployment) {
		pl := New(spec.MailService(), net)
		primary, err := pl.PrimaryPlacement(spec.CompMailServer, topology.NYServer)
		if err != nil {
			t.Fatal(err)
		}
		pl.AddExisting(primary)
		warm := planOrFail(t, pl, Request{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50})
		pl.AddExisting(warm.Placements...)
		dep := planOrFail(t, pl, req)
		pl.AddExisting(dep.Placements...)
		return pl, dep
	}
	pa, depA := build()
	pb, depB := build()
	original := depA
	link, ok := net.Link(topology.SDGateway, topology.SeaGW)
	if !ok {
		t.Fatal("no sd-1~sea-1 link")
	}
	baseLat, baseBW := link.LatencyMS, link.BandwidthMbps

	keySet := func(ps []Placement) map[string]bool {
		out := map[string]bool{}
		for _, p := range ps {
			out[p.Key()] = true
		}
		return out
	}
	// adopt applies a diff the way the executor does: abandoned wiring is
	// forgotten, the new deployment registered for reuse.
	adopt := func(pl *Planner, old *Deployment, diff *Diff) *Deployment {
		if diff.Unchanged() {
			return old
		}
		pl.DropExisting(diff.Remove...)
		pl.AddExisting(diff.New.Placements...)
		return diff.New
	}
	step := func(label string, latencyMS float64, wantMove bool) {
		t.Helper()
		if err := mon.ReportLink(topology.SDGateway, topology.SeaGW, latencyMS, baseBW, nil); err != nil {
			t.Fatal(err)
		}
		ch := NewChangedSet()
		ch.AddLink(topology.SDGateway, topology.SeaGW)
		diffA, err := pa.RepairReplan(depA, req, ch)
		if err != nil {
			t.Fatalf("%s: RepairReplan: %v", label, err)
		}
		diffB, err := pb.ReplanRewire(depB, req)
		if err != nil {
			t.Fatalf("%s: ReplanRewire: %v", label, err)
		}
		if diffA.Unchanged() == wantMove {
			t.Errorf("%s: repair unchanged=%v, want a move=%v (%s)", label, diffA.Unchanged(), wantMove, diffA.New)
		}
		if !reflect.DeepEqual(keySet(diffA.Install), keySet(diffB.Install)) {
			t.Errorf("%s: install sets differ:\n  repair: %v\n  rewire: %v", label, diffA.Install, diffB.Install)
		}
		if !reflect.DeepEqual(keySet(diffA.Remove), keySet(diffB.Remove)) {
			t.Errorf("%s: remove sets differ:\n  repair: %v\n  rewire: %v", label, diffA.Remove, diffB.Remove)
		}
		if len(diffA.Evicted) != 0 || len(diffB.Evicted) != 0 {
			t.Errorf("%s: a latency change evicts nothing: %v / %v", label, diffA.Evicted, diffB.Evicted)
		}
		if !diffA.Unchanged() && diffA.New.String() != diffB.New.String() {
			t.Errorf("%s: deployments differ:\n  repair: %s\n  rewire: %s", label, diffA.New, diffB.New)
		}
		depA, depB = adopt(pa, depA, diffA), adopt(pb, depB, diffB)
	}
	step("degrade", baseLat+800, true)
	for _, e := range depA.Edges {
		for i := 0; i+1 < len(e.Path.Nodes); i++ {
			a, b := e.Path.Nodes[i], e.Path.Nodes[i+1]
			if (a == topology.SDGateway && b == topology.SeaGW) || (a == topology.SeaGW && b == topology.SDGateway) {
				t.Errorf("rewired chain still crosses the degraded link: %s", depA)
			}
		}
	}
	if got := pa.SolverStats.Repairs.Load(); got == 0 {
		t.Error("the degrade must have gone through the repair engine first")
	}
	// The restore is an improvement no pin can see: the repair is a
	// no-op, and the replan behind it moves the session back.
	step("restore", baseLat, true)
	if !sameDeploymentKeys(depA, original) {
		t.Errorf("restoring the link must restore the wiring:\n  original: %s\n  now:      %s", original, depA)
	}
}
