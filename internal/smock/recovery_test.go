package smock_test

import (
	"fmt"
	"testing"

	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/planner"
	"partsvc/internal/smock"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

// twoStepReplan is Table.Replan as it ran before it decided the orphans
// ahead of the search, kept as its oracle: the planner's Replan first,
// and when that diff's evictions orphan live instances, a second Replan
// without them whose diff replaces it.
func twoStepReplan(tab *smock.Table, pl *planner.Planner, old *planner.Deployment, req planner.Request) (*planner.Diff, error) {
	pl.Existing = tab.AppendLive(pl.Existing[:0])
	diff, err := pl.Replan(old, req)
	if err != nil {
		return nil, err
	}
	if orphans := tab.OrphanedBy(diff.Evicted); len(orphans) > 0 {
		pl.DropExistingByKey(orphans...)
		diff2, err := pl.Replan(old, req)
		if err != nil {
			return nil, err
		}
		diff2.Evicted = append(diff.Evicted, diff2.Evicted...)
		diff = diff2
	}
	if old != nil && diff.Unchanged() {
		if err := pl.Verify(old, req); err != nil {
			return nil, fmt.Errorf("smock: nothing replaces a deployment that no longer holds: %w", err)
		}
	}
	return diff, nil
}

// diffString renders everything a diff tells the engine.
func diffString(d *planner.Diff) string {
	keys := func(ps []planner.Placement) []string {
		out := make([]string, len(ps))
		for i, p := range ps {
			out[i] = p.Key()
		}
		return out
	}
	return fmt.Sprintf("%s (%.9f ms, %.3f rps, %d new) install %v remove %v evicted %v",
		d.New, d.New.ExpectedLatencyMS, d.New.CapacityRPS, d.New.NewComponents,
		keys(d.Install), keys(d.Remove), keys(d.Evicted))
}

// TestNodeDeathRecoverySearchesOnce deploys the three Figure 6 sessions
// and adapts each of them, first to a latency change on the Seattle
// chain's tunnel and then to the death of sd-2, with Table.Replan and
// with the two-step oracle above. Every diff, and every error, is the
// oracle's. Where nothing is orphaned (the latency change) both take the
// same path and count the same solves. After sd-2 dies, the Seattle
// chain's sea-2 instances are orphans of the dead view they are wired
// into, and Table.Replan searches once: it counts the solves of one
// Replan over the reuse set without the evicted instances and the
// orphans, where the oracle ran a search first and threw its answer
// away. The New York session holds nothing evicted or orphaned, so
// keeping its deployment seeds a bound no graph beats, and its recovery
// calls the solver not at all. The death of every other node that hosts
// no primary is checked against the oracle as well.
func TestNodeDeathRecoverySearchesOnce(t *testing.T) {
	w := newWorld(t)
	reqs := []planner.Request{
		{Interface: spec.IfaceClient, ClientNode: topology.NYClient, User: "Alice", RateRPS: 50},
		{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50},
		{Interface: spec.IfaceClient, ClientNode: topology.SeaClient, User: "Carol", RateRPS: 50},
	}
	const ny, seattle = 0, 2
	var err error
	deps := make([]*planner.Deployment, len(reqs))
	for i, req := range reqs {
		if _, deps[i], err = w.gs.Access(req); err != nil {
			t.Fatal(err)
		}
	}
	pl := w.gs.Planner()
	tab := w.engine.Table()
	mon := netmon.New(pl.Net)

	// solves counts every call into the solver, repairs included.
	solves := func() uint64 { return pl.SolverStats.Solves.Load() + pl.SolverStats.Repairs.Load() }
	adapt := func(step string) (oracle, got []uint64) {
		t.Helper()
		for i, req := range reqs {
			c0 := solves()
			want, wantErr := twoStepReplan(tab, pl, deps[i], req)
			c1 := solves()
			diff, err := w.gs.Replan(deps[i], req)
			c2 := solves()
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s, session %d: err %v, oracle err %v", step, i, err, wantErr)
			}
			if err == nil && diffString(diff) != diffString(want) {
				t.Fatalf("%s, session %d:\n  got    %s\n  oracle %s", step, i, diffString(diff), diffString(want))
			}
			oracle = append(oracle, c1-c0)
			got = append(got, c2-c1)
		}
		return oracle, got
	}

	link, _ := pl.Net.Link(topology.SDGateway, topology.SeaGW)
	if err := mon.ReportLink(topology.SDGateway, topology.SeaGW, link.LatencyMS+50, -1, nil); err != nil {
		t.Fatal(err)
	}
	oracle, got := adapt("sd-1~sea-1 +50 ms")
	for i := range got {
		if got[i] != oracle[i] {
			t.Errorf("latency change, session %d: counted %d solves, the oracle %d; with no orphan the path is the oracle's", i, got[i], oracle[i])
		}
	}

	if err := mon.ReportNodeDown(topology.SDClient); err != nil {
		t.Fatal(err)
	}
	// One Replan over the reuse set the recovery plans against.
	one := planner.New(spec.MailService(), pl.Net)
	one.Existing = tab.AppendLive(nil)
	orphans := tab.OrphanedBy(one.RevalidateExisting())
	if len(orphans) == 0 {
		t.Fatal("killing sd-2 orphans nothing; the scenario checks nothing")
	}
	one.DropExistingByKey(orphans...)
	if _, err := one.Replan(deps[seattle], reqs[seattle]); err != nil {
		t.Fatal(err)
	}
	single := one.SolverStats.Solves.Load()

	oracle, got = adapt("sd-2 down")
	if got[seattle] != single {
		t.Errorf("Seattle's recovery counted %d solves, want one search: %d", got[seattle], single)
	}
	if oracle[seattle] <= single {
		t.Errorf("the oracle counted %d solves, one search is %d: the scenario does not reach the second search", oracle[seattle], single)
	}
	if got[ny] != 0 {
		t.Errorf("New York's recovery counted %d solves, want none: keeping the deployment prunes every graph", got[ny])
	}
	t.Logf("Seattle after sd-2 died: %d solves (oracle %d)", got[seattle], oracle[seattle])

	// Every other node's death, each in a world of its own, answers as
	// the oracle does too.
	for _, victim := range []netmodel.NodeID{topology.NYClient, topology.SDGateway, topology.SeaGW, topology.SeaClient} {
		w := newWorld(t)
		deps := make([]*planner.Deployment, len(reqs))
		for i, req := range reqs {
			if _, deps[i], err = w.gs.Access(req); err != nil {
				t.Fatal(err)
			}
		}
		pl := w.gs.Planner()
		if err := netmon.New(pl.Net).ReportNodeDown(victim); err != nil {
			t.Fatal(err)
		}
		for i, req := range reqs {
			want, wantErr := twoStepReplan(w.engine.Table(), pl, deps[i], req)
			diff, err := w.gs.Replan(deps[i], req)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s down, session %d: err %v, oracle err %v", victim, i, err, wantErr)
			}
			if err == nil && diffString(diff) != diffString(want) {
				t.Fatalf("%s down, session %d:\n  got    %s\n  oracle %s", victim, i, diffString(diff), diffString(want))
			}
		}
	}
}
