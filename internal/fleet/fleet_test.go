package fleet

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"partsvc/internal/adapt"
	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/planner"
	"partsvc/internal/sim"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

// world is one self-contained fleet universe on the case-study
// topology: virtual clock, shared network, manager with the primary
// pinned in New York.
type world struct {
	env *sim.Env
	net *netmodel.Network
	mon *netmon.Monitor
	mgr *Manager
}

func newWorld(t *testing.T, cfg Config, sessions int) *world {
	t.Helper()
	w := &world{env: sim.NewEnv(), net: topology.CaseStudy()}
	w.mon = netmon.New(w.net)
	w.mgr = New(cfg, spec.MailService(), w.net, w.mon, adapt.NewSimScheduler(w.env))
	if _, err := w.mgr.AddPrimary(spec.CompMailServer, topology.NYServer); err != nil {
		t.Fatal(err)
	}
	// Sessions alternate over two request shapes: Alice from San Diego
	// and Carol from Seattle — the fleet-scale analogue of the
	// case-study's warm chain plus remote client.
	shapes := []planner.Request{
		{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50},
		{Interface: spec.IfaceClient, ClientNode: topology.SeaClient, User: "Carol", RateRPS: 50},
	}
	for i := 0; i < sessions; i++ {
		w.mgr.AddSession(fmt.Sprintf("s%03d", i), shapes[i%len(shapes)])
	}
	return w
}

// transcript renders the fleet's full observable history: per-session
// event streams and final deployments, in global session order. Two
// runs are equivalent iff their transcripts are byte-identical.
func (w *world) transcript() string {
	var b strings.Builder
	for _, s := range w.mgr.Sessions() {
		fmt.Fprintf(&b, "%s dep=%s\n", s.Name, s.Deployment())
		for _, e := range s.Events() {
			fmt.Fprintf(&b, "  %s\n", e)
		}
	}
	return b.String()
}

// TestBootstrapSharesComputationsAndInstances: N sessions over two
// request shapes must bootstrap with exactly two plan computations
// (everyone else hits the wave memo) and share instances through the
// refcounted registry rather than deploying per session.
func TestBootstrapSharesComputationsAndInstances(t *testing.T) {
	const n = 12
	w := newWorld(t, Config{Shards: 4, Workers: 2}, n)
	rep := w.mgr.Bootstrap()

	if rep.Sessions != n {
		t.Fatalf("bootstrap covered %d sessions, want %d", rep.Sessions, n)
	}
	if rep.PlanComputes != 2 {
		t.Fatalf("bootstrap ran %d plan computations, want 2 (one per request shape)", rep.PlanComputes)
	}
	if rep.MemoHits != n-2 {
		t.Fatalf("memo hits = %d, want %d", rep.MemoHits, n-2)
	}
	// Per-shape batching: a shard issues one memo lookup per distinct
	// session shape, not one per session (the old per-session loop paid
	// n lookups here). With 2 shapes over 4 shards that is at most 8.
	if rep.MemoLookups >= rep.Sessions {
		t.Fatalf("memo lookups = %d for %d sessions — per-shape batching is not active", rep.MemoLookups, rep.Sessions)
	}
	if rep.MemoLookups < rep.PlanComputes || rep.MemoLookups > 2*4 {
		t.Fatalf("memo lookups = %d, want between %d and 8 (shapes x shards)", rep.MemoLookups, rep.PlanComputes)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d sessions failed to bootstrap", rep.Failed)
	}
	for _, s := range w.mgr.Sessions() {
		if s.Deployment() == nil {
			t.Fatalf("session %s has no deployment after bootstrap", s.Name)
		}
	}
	// Same-shape sessions share every instance: the table holds the
	// union of two chains (plus the pinned primary), nowhere near one
	// chain per session.
	if got := w.mgr.Instances(); got >= n {
		t.Fatalf("registry holds %d instances for %d sessions — sharing is broken", got, n)
	}
}

// TestLinkEventCoalescesIntoOneWave: a burst of reports against one
// link must debounce into a single wave covering the sessions whose
// deployments traverse it, replanned with one computation per distinct
// session shape.
func TestLinkEventCoalescesIntoOneWave(t *testing.T) {
	w := newWorld(t, Config{Shards: 4, Workers: 2, DebounceMS: 20}, 8)
	w.mgr.Bootstrap()
	var reports []WaveReport
	w.mgr.OnWave(func(r WaveReport) { reports = append(reports, r) })
	w.mgr.Start()

	w.env.At(100, func() {
		if err := w.mon.ReportLink(topology.SDGateway, topology.SeaGW, 1500, 1, nil); err != nil {
			t.Error(err)
		}
	})
	w.env.At(110, func() { // same burst: lands in the same debounce window
		if err := w.mon.ReportLink(topology.SDGateway, topology.SeaGW, 1600, 1, nil); err != nil {
			t.Error(err)
		}
	})
	w.env.RunUntil(5000)

	if len(reports) != 1 {
		t.Fatalf("got %d waves, want 1 (burst must coalesce)", len(reports))
	}
	r := reports[0]
	if r.Sessions == 0 {
		t.Fatal("wave covered no sessions; the degraded link is on deployed paths")
	}
	if r.PlanComputes > 2 {
		t.Fatalf("wave ran %d computations for %d sessions, want <= 2 (one per shape)", r.PlanComputes, r.Sessions)
	}
	if r.Cutovers+r.Unchanged+r.Suppressed+r.Deferred+r.Failed != r.Sessions {
		t.Fatalf("wave accounting does not add up: %+v", r)
	}
}

// TestOutputInvariantUnderWorkersAndShards: the same scenario must
// produce byte-identical transcripts regardless of worker or shard
// count — workers are pure execution parallelism, and shards only
// partition state.
func TestOutputInvariantUnderWorkersAndShards(t *testing.T) {
	run := func(shards, workers int) string {
		w := newWorld(t, Config{Shards: shards, Workers: workers, DebounceMS: 20}, 10)
		w.mgr.Bootstrap()
		w.mgr.Start()
		w.env.At(100, func() {
			_ = w.mon.ReportLink(topology.SDGateway, topology.SeaGW, 1500, 1, nil)
		})
		w.env.At(700, func() {
			_ = w.mon.ReportNodeDown(topology.SDClient)
		})
		w.env.RunUntil(5000)
		return w.transcript()
	}
	base := run(4, 1)
	if base == "" {
		t.Fatal("empty transcript")
	}
	for _, tc := range []struct{ shards, workers int }{{4, 8}, {1, 1}, {8, 4}} {
		if got := run(tc.shards, tc.workers); got != base {
			t.Fatalf("transcript diverged at shards=%d workers=%d:\n--- base ---\n%s--- got ---\n%s",
				tc.shards, tc.workers, base, got)
		}
	}
}

// TestGovernorPacesAndSuppresses drives the San Diego relay node
// through a down/up/down/up cycle. Its recovery is an optimization
// opportunity for the Seattle sessions (a warm trust-4 chain becomes
// reachable), so the first recovery triggers a wave of rewires that the
// 1/s token bucket paces out one commit per second. The second outage
// partitions those sessions from their new placements — a broken
// deployment is a forced cutover, so hysteresis must NOT stop the
// repair. The second recovery then invites the same optimization rewire
// again, inside the hysteresis window: that is a flap, and the governor
// must suppress it entirely.
func TestGovernorPacesAndSuppresses(t *testing.T) {
	w := newWorld(t, Config{
		Shards: 4, Workers: 2, DebounceMS: 20,
		CutoverRatePerSec: 1, CutoverBurst: 1, HysteresisMS: 60000,
	}, 8)
	w.mgr.Bootstrap()
	var reports []WaveReport
	w.mgr.OnWave(func(r WaveReport) { reports = append(reports, r) })
	w.mgr.Start()

	w.env.At(100, func() { _ = w.mon.ReportNodeDown(topology.SDGateway) })
	w.env.At(20000, func() { _ = w.mon.ReportNodeUp(topology.SDGateway) })
	w.env.At(30000, func() { _ = w.mon.ReportNodeDown(topology.SDGateway) })
	w.env.At(40000, func() { _ = w.mon.ReportNodeUp(topology.SDGateway) })
	w.env.RunUntil(120000)

	if len(reports) != 4 {
		t.Fatalf("got %d waves, want 4", len(reports))
	}
	recovery, outage, flap := reports[1], reports[2], reports[3]

	// Wave 2 (first recovery): optimization rewires, paced at 1/s.
	rewires := recovery.Cutovers + recovery.Deferred
	if rewires < 2 {
		t.Fatalf("recovery wave rewired %d sessions, want >= 2: %+v", rewires, recovery)
	}
	if recovery.Deferred == 0 {
		t.Fatalf("1/s budget with burst 1 must defer some of %d rewires: %+v", rewires, recovery)
	}
	if recovery.Suppressed != 0 {
		t.Fatalf("no session has cut over yet; nothing to suppress: %+v", recovery)
	}
	if recovery.SpanMS == 0 {
		t.Fatal("deferred commits must stretch the wave span")
	}
	// Deferred commits land at token cadence: no two cutovers share an
	// instant, and successive commits are a full token period apart.
	var commits []float64
	for _, s := range w.mgr.Sessions() {
		for _, e := range s.Events() {
			if e.Kind == "adapted" && e.Wave == recovery.Wave {
				commits = append(commits, e.AtMS)
			}
		}
	}
	if len(commits) != rewires {
		t.Fatalf("found %d adapted events, want %d", len(commits), rewires)
	}
	sort.Float64s(commits)
	for i := 1; i < len(commits); i++ {
		if gap := commits[i] - commits[i-1]; gap < 1000 {
			t.Fatalf("cutovers %.1fms apart despite 1/s budget: %v", gap, commits)
		}
	}

	// Wave 3 (second outage): sessions are partitioned from placements
	// behind the dead relay — forced repairs punch through hysteresis
	// (at minimum the sessions that just rewired onto San Diego), still
	// paced by the bucket.
	if repaired := outage.Cutovers + outage.Deferred; repaired < rewires {
		t.Fatalf("outage wave repaired %d of %d broken sessions: %+v", repaired, rewires, outage)
	}
	if outage.Suppressed != 0 {
		t.Fatalf("hysteresis suppressed a forced repair: %+v", outage)
	}

	// Wave 4 (second recovery): the same optimization rewire inside the
	// hysteresis window is a flap — suppressed outright.
	if flap.Suppressed < rewires {
		t.Fatalf("flap wave suppressed %d rewires, want >= %d: %+v", flap.Suppressed, rewires, flap)
	}
	if flap.Cutovers+flap.Deferred != 0 {
		t.Fatalf("flap wave committed %d cutovers inside the anti-flap window: %+v",
			flap.Cutovers+flap.Deferred, flap)
	}
}

// TestNodeKillForcesThroughHysteresis: a node death under a session's
// deployment is a forced cutover — hysteresis must not suppress it.
func TestNodeKillForcesThroughHysteresis(t *testing.T) {
	w := newWorld(t, Config{Shards: 2, Workers: 2, DebounceMS: 20, HysteresisMS: 1e9}, 4)
	w.mgr.Bootstrap()
	w.mgr.Start()

	// Find a non-client, non-primary node actually hosting session
	// placements, and kill it.
	var victim netmodel.NodeID
	for _, s := range w.mgr.Sessions() {
		for _, p := range s.Deployment().Placements {
			if p.Node != topology.NYServer && p.Node != s.Req.ClientNode {
				victim = p.Node
			}
		}
	}
	if victim == "" {
		t.Skip("no interior placement to kill in this plan shape")
	}
	w.env.At(100, func() { _ = w.mon.ReportNodeDown(victim) })
	w.env.RunUntil(5000)

	for _, s := range w.mgr.Sessions() {
		for _, p := range s.Deployment().Placements {
			if p.Node == victim {
				t.Fatalf("session %s still deployed on dead node %s", s.Name, victim)
			}
		}
	}
}

// TestSessionEventsAreBounded: a long-lived fleet emits events for every
// affected session on every topology event, forever. A session keeps
// its latest adapt.SessionEvents of them, oldest first, and the heap stops
// growing once the rings are full.
func TestSessionEventsAreBounded(t *testing.T) {
	const sessions, waves = 50, 1000
	w := &world{env: sim.NewEnv(), net: topology.CaseStudy()}
	defer w.env.Stop()
	w.mon = netmon.New(w.net)
	w.mgr = New(Config{Shards: 4, Workers: 2, DebounceMS: 20}, spec.MailService(), w.net, w.mon, adapt.NewSimScheduler(w.env))
	if _, err := w.mgr.AddPrimary(spec.CompMailServer, topology.NYServer); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sessions; i++ {
		w.mgr.AddSession(fmt.Sprintf("s%03d", i), planner.Request{
			Interface: spec.IfaceClient, ClientNode: topology.NYClient, User: "Alice", RateRPS: 10,
		})
	}
	var lastWave uint64
	w.mgr.OnWave(func(r WaveReport) {
		if r.Sessions != sessions || r.Failed != 0 {
			t.Errorf("wave %d: %d sessions, %d failed; want all %d replanned", r.Wave, r.Sessions, r.Failed, sessions)
		}
		lastWave = r.Wave
	})
	if boot := w.mgr.Bootstrap(); boot.Failed != 0 {
		t.Fatalf("bootstrap: %d sessions failed", boot.Failed)
	}
	w.mgr.Start()
	defer w.mgr.Stop()

	heapAfterGC := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// Every event nudges the link under every session's only linkage, so
	// every event opens a wave over all of them.
	var heapAt100 uint64
	for k := 0; k < waves; k++ {
		at := 100 * float64(k+1)
		lat := float64((k + 1) % 2)
		w.env.At(at, func() {
			if err := w.mon.ReportLink(topology.NYServer, topology.NYClient, lat, 100, nil); err != nil {
				t.Error(err)
			}
		})
		w.env.RunUntil(at + 90)
		if k+1 == 100 {
			heapAt100 = heapAfterGC()
		}
	}
	heapAt1000 := heapAfterGC()
	if lastWave != waves+1 { // the bootstrap was wave 1
		t.Fatalf("last wave %d, want %d: not every event opened a wave", lastWave, waves+1)
	}
	for _, s := range w.mgr.Sessions() {
		ev := s.Events()
		if len(ev) != adapt.SessionEvents {
			t.Fatalf("%s keeps %d events after %d waves, want the latest %d", s.Name, len(ev), waves, adapt.SessionEvents)
		}
		if got := ev[len(ev)-1].Wave; got != lastWave {
			t.Fatalf("%s: newest event is wave %d's, want wave %d's", s.Name, got, lastWave)
		}
		for i := 1; i < len(ev); i++ {
			if ev[i].Wave < ev[i-1].Wave {
				t.Fatalf("%s: events out of order at %d: wave %d after wave %d", s.Name, i, ev[i].Wave, ev[i-1].Wave)
			}
		}
	}
	// Unbounded streams grow by two events per session per wave: about
	// 4 MB over these 900 waves. The rings fill shortly after wave 100
	// and then nothing grows.
	if grown := int64(heapAt1000) - int64(heapAt100); grown > 1<<20 {
		t.Fatalf("heap grew %d KB between wave 100 and wave %d (%d -> %d KB)", grown>>10, waves, heapAt100>>10, heapAt1000>>10)
	} else {
		t.Logf("heap %d KB at wave 100, %d KB at wave %d", heapAt100>>10, heapAt1000>>10, waves)
	}
}

// depHash renders everything a planned deployment holds — placements
// with their configurations, offers and upstream charges, edges with
// their routes, and the metrics — so that any write to a value the
// fleet shares between sessions shows as a changed string.
func depHash(dep *planner.Deployment) string {
	var b strings.Builder
	fmt.Fprintf(&b, "lat=%v new=%d cap=%v", dep.ExpectedLatencyMS, dep.NewComponents, dep.CapacityRPS)
	for _, p := range dep.Placements {
		fmt.Fprintf(&b, "|%s reused=%v cfg=%s offers=%s up=%v", p.Key(), p.Reused, p.Config.Fingerprint(), p.Offers.Fingerprint(), p.UpstreamMS)
	}
	for _, e := range dep.Edges {
		fmt.Fprintf(&b, "|%d>%d %s %v lat=%v bw=%v", e.From, e.To, e.Iface, e.Path.Nodes, e.Path.LatencyMS, e.Path.BottleneckMbps)
	}
	return b.String()
}

// TestSharedDeploymentsAreImmutable: the sessions of a wave group hold
// one *Deployment between them. After a wave, two more waves must leave
// the deployment of every session that did not cut over exactly as it
// was — nothing in the planner or the manager writes to a planned value
// — and under -race no worker may touch one another is reading.
func TestSharedDeploymentsAreImmutable(t *testing.T) {
	for _, workers := range []int{1, 8} {
		w := newWorld(t, Config{Shards: 8, Workers: workers, DebounceMS: 20}, 48)
		w.mgr.Bootstrap()
		w.mgr.Start()
		report := func(at, latMS float64) {
			w.env.At(at, func() {
				if err := w.mon.ReportLink(topology.SDGateway, topology.SeaGW, latMS, 50, nil); err != nil {
					t.Error(err)
				}
			})
			w.env.RunUntil(at + 900)
		}
		report(1000, 900) // degrade under the Seattle chains: they cut over

		type held struct {
			dep  *planner.Deployment
			hash string
		}
		before := map[string]held{}
		shared := map[*planner.Deployment]int{}
		for _, s := range w.mgr.Sessions() {
			dep := s.Deployment()
			before[s.Name] = held{dep, depHash(dep)}
			shared[dep]++
		}
		if len(shared) >= len(before) {
			t.Fatalf("workers=%d: %d distinct deployments for %d sessions — wave groups do not share theirs", workers, len(shared), len(before))
		}

		report(2000, 100) // restore
		report(3000, 900) // and degrade again

		kept := 0
		for _, s := range w.mgr.Sessions() {
			h := before[s.Name]
			if s.Deployment() != h.dep {
				continue // cut over: holds a new value
			}
			kept++
			if got := depHash(h.dep); got != h.hash {
				t.Fatalf("workers=%d: %s did not cut over, yet its deployment changed:\n  was %s\n  now %s", workers, s.Name, h.hash, got)
			}
		}
		if kept == 0 {
			t.Fatalf("workers=%d: every session cut over; the scenario checks nothing", workers)
		}
		// The values left behind by the sessions that did move are still
		// referenced by the reuse set and by event details: they too must
		// be as they were.
		for name, h := range before {
			if got := depHash(h.dep); got != h.hash {
				t.Fatalf("workers=%d: the deployment %s held after the first wave changed after it moved on", workers, name)
			}
		}
		w.mgr.Stop()
		w.env.Stop()
	}
}
