package fleet

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"partsvc/internal/adapt"
	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/planner"
	"partsvc/internal/sim"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

// TestFleetWaveTranscript replays the repository benchmark's fleet-wave
// script (benchmark/fleet.go) on the simulator clock and pins what must
// repeat exactly on every run, seed and worker count: per event, the
// sessions in its wave, the planner computes, and the cutovers. 1 200
// sessions sit a third each on the three client nodes of the case-study
// network; the script degrades then restores ny-1~sd-1 (under every San
// Diego chain's tunnel, and under the Seattle chains that anchor onto
// San Diego's view), then sd-1~sea-1, twice over.
//
// The cutover column is the one a planner shortcut breaks: a repair
// that keeps its pins reports "unchanged" for a link that merely
// degraded, and the wave would read e0:800/2/0 — 800 sessions left on a
// link 800 ms slower. Event 4 opens no wave: after the first restore no
// deployment crosses ny-1~sd-1 any more (ROADMAP bug iv).
func TestFleetWaveTranscript(t *testing.T) {
	const want = "boot:1200/3 e0:800/2/800 e1:1200/3/400 e2:400/1/400 e3:1200/3/400 " +
		"e5:1200/3/0 e6:400/1/400 e7:1200/3/400"
	for _, workers := range []int{1, 8} {
		if got := fleetWaveTranscript(t, 1200, workers).counts; got != want {
			t.Errorf("workers=%d:\n  got  %s\n  want %s", workers, got, want)
		}
	}
}

// TestFleetWavePaysPerGroup replays the same script and holds the loop
// to bookkeeping per wave group: 1 200 sessions in three groups (one per
// client site), and every wave's table calls (currency and coverage
// checks, references taken or dropped) and node-index updates bounded by
// its groups, not its sessions — a loop that kept its books per session
// makes a table call per cutover at least, 400 to 1 200 a wave. What
// every session sees must not move: the per-session event stream (wave,
// session, kind, in order) hashes to the digest of the loop that kept
// them per session.
func TestFleetWavePaysPerGroup(t *testing.T) {
	const digest = "f390d9f226383ed11f13905c67db8500a52b8b91b6019a14440e2ee35a81e1de"
	run := fleetWaveTranscript(t, 1200, 2)
	if run.digest != digest {
		t.Errorf("per-session event stream digest %s, want %s", run.digest, digest)
	}
	if run.boot.Groups != 3 {
		t.Errorf("bootstrap: %d groups, want 3 (one per site)", run.boot.Groups)
	}
	for _, r := range append([]WaveReport{run.boot}, run.reports...) {
		t.Logf("wave %d: %d sessions in %d groups, %d cutovers: %d table calls, %d index updates",
			r.Wave, r.Sessions, r.Groups, r.Cutovers, r.TableCalls, r.IndexUpdates)
		if r.Groups == 0 || r.Groups > 3 {
			t.Errorf("wave %d: %d groups, want 1 to 3", r.Wave, r.Groups)
		}
		// Per group: currency and coverage checks (again after a deploy
		// moves the table's index), the first acquire, the last release
		// and the counted references of the rest; per group that moves,
		// one index entry in and one out.
		if limit := 12 * r.Groups; r.TableCalls > limit {
			t.Errorf("wave %d: %d table calls for %d sessions in %d groups, want at most %d", r.Wave, r.TableCalls, r.Sessions, r.Groups, limit)
		}
		if limit := 2 * r.Groups; r.IndexUpdates > limit {
			t.Errorf("wave %d: %d index updates for %d sessions in %d groups, want at most %d", r.Wave, r.IndexUpdates, r.Sessions, r.Groups, limit)
		}
	}
}

// TestPlannerStateIndependentOfTiming replays the script four times at
// each of two worker counts and holds what the fleet's planners keep
// between calls — reuse layers found valid or rebuilt, summed over the
// planners — to one value per worker count. Which planner plans which
// key follows from the wave alone, never from which goroutine got there
// first, so a planner's kept state does not depend on timing.
func TestPlannerStateIndependentOfTiming(t *testing.T) {
	for _, workers := range []int{2, 8} {
		var first [2]int
		for i := 0; i < 4; i++ {
			got := fleetWaveTranscript(t, 1200, workers).layers
			t.Logf("workers=%d replay %d: reuse layers kept/rebuilt %d/%d", workers, i, got[0], got[1])
			if i == 0 {
				first = got
			} else if got != first {
				t.Errorf("workers=%d replay %d: reuse layers kept/rebuilt %d/%d, replay 0 had %d/%d",
					workers, i, got[0], got[1], first[0], first[1])
			}
		}
	}
}

// TestWaveCommitsFreshReplans is the wave's equivalence oracle. A wave
// plans each key once, from its first group's deployment, and every
// session of the key commits that one diff. After bootstrap and after
// the ny-1~sd-1 degrade wave, every session's deployment must equal what
// a fresh planner makes of that session's own pre-wave deployment,
// against the table and routes the wave planned on.
func TestWaveCommitsFreshReplans(t *testing.T) {
	env, net, mon, mgr := scriptFleet(t, 60, 2)
	defer env.Stop()
	// fresh replans every session on a planner of its own, as the table
	// stands now.
	fresh := func() map[string]*planner.Deployment {
		want := map[string]*planner.Deployment{}
		for _, s := range mgr.Sessions() {
			x := NewPlanner(planner.New(spec.MailService(), net), mgr.planners[0].tab)
			old := s.Deployment()
			d, err := x.Replan(old, s.Req)
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			want[s.Name] = d.New
			if d.Unchanged() && old != nil {
				want[s.Name] = old
			}
		}
		return want
	}
	check := func(when string, want map[string]*planner.Deployment) {
		t.Helper()
		for _, s := range mgr.Sessions() {
			if got, w := depHash(s.Deployment()), depHash(want[s.Name]); got != w {
				t.Errorf("after %s, %s holds\n  %s\nbut a fresh replan of its own deployment gives\n  %s", when, s.Name, got, w)
			}
		}
	}

	want := fresh()
	if boot := mgr.Bootstrap(); boot.Failed != 0 {
		t.Fatalf("bootstrap: %d of %d sessions failed", boot.Failed, boot.Sessions)
	}
	check("bootstrap", want)

	mgr.Start()
	defer mgr.Stop()
	link, _ := net.Link(topology.NYServer, topology.SDGateway)
	var waves []WaveReport
	mgr.OnWave(func(r WaveReport) { waves = append(waves, r) })
	env.At(1000, func() {
		if err := mon.ReportLink(topology.NYServer, topology.SDGateway, link.LatencyMS+800, link.BandwidthMbps, nil); err != nil {
			t.Error(err)
		}
	})
	env.RunUntil(1001) // the change is in, its wave is still debouncing
	if len(waves) != 0 {
		t.Fatal("the degrade's wave ran before its debounce")
	}
	want = fresh()
	env.RunUntil(1900)
	if len(waves) != 1 || waves[0].Cutovers == 0 {
		t.Fatalf("the degrade ran waves %+v, want one with cutovers", waves)
	}
	check("the ny-1~sd-1 degrade", want)
}

// scriptRun is what one replay of the script produced: its counts line,
// the bootstrap and wave reports, the digest of the per-session event
// stream, and the planners' reuse layers kept and rebuilt, summed.
type scriptRun struct {
	counts  string
	boot    WaveReport
	reports []WaveReport
	digest  string
	layers  [2]int
}

// scriptFleet builds the script's fleet: one planner per worker over the case-study
// network, the primary in New York, and sessions a third each on the
// three client nodes.
func scriptFleet(t *testing.T, sessions, workers int) (*sim.Env, *netmodel.Network, *netmon.Monitor, *Manager) {
	t.Helper()
	sites := []struct {
		node netmodel.NodeID
		user string
	}{{topology.NYClient, "Alice"}, {topology.SDClient, "Alice"}, {topology.SeaClient, "Carol"}}
	env := sim.NewEnv()
	net := topology.CaseStudy()
	mon := netmon.New(net)
	mgr := New(Config{Workers: workers, DebounceMS: 20},
		spec.MailService(), net, mon, adapt.NewSimScheduler(env))
	if _, err := mgr.AddPrimary(spec.CompMailServer, topology.NYServer); err != nil {
		env.Stop()
		t.Fatal(err)
	}
	for i := 0; i < sessions; i++ {
		site := sites[i%len(sites)]
		mgr.AddSession(fmt.Sprintf("s%05d", i), planner.Request{
			Interface: spec.IfaceClient, ClientNode: site.node, User: site.user, RateRPS: 10,
		})
	}
	return env, net, mon, mgr
}

func fleetWaveTranscript(t *testing.T, sessions, workers int) scriptRun {
	t.Helper()
	const degradeMS = 800.0
	links := [2][2]netmodel.NodeID{
		{topology.NYServer, topology.SDGateway},
		{topology.SDGateway, topology.SeaGW},
	}
	env, net, mon, mgr := scriptFleet(t, sessions, workers)
	defer env.Stop()
	var reports []WaveReport
	mgr.OnWave(func(r WaveReport) { reports = append(reports, r) })
	events := sha256.New()
	mgr.OnEvent(func(e adapt.Event) {
		if e.Session != "" {
			fmt.Fprintf(events, "%d %s %s\n", e.Wave, e.Session, e.Kind)
		}
	})
	boot := mgr.Bootstrap()
	if boot.Failed != 0 {
		t.Fatalf("bootstrap: %d of %d sessions failed", boot.Failed, boot.Sessions)
	}
	mgr.Start()
	defer mgr.Stop()

	out := fmt.Sprintf("boot:%d/%d", boot.Sessions, boot.PlanComputes)
	reports = nil
	for k := 0; k < 8; k++ {
		l := links[(k/2)%2]
		link, ok := net.Link(l[0], l[1])
		if !ok {
			t.Fatalf("no link %s~%s", l[0], l[1])
		}
		lat := link.LatencyMS + degradeMS
		if k%2 == 1 {
			lat = link.LatencyMS - degradeMS
		}
		at := 1000 * float64(k+1)
		var reportErr error
		env.At(at, func() { reportErr = mon.ReportLink(l[0], l[1], lat, link.BandwidthMbps, nil) })
		before := len(reports)
		env.RunUntil(at + 900)
		if reportErr != nil {
			t.Fatalf("event %d: %v", k, reportErr)
		}
		for _, r := range reports[before:] {
			if r.Failed != 0 {
				t.Fatalf("event %d: %d of %d sessions failed to replan", k, r.Failed, r.Sessions)
			}
			out += fmt.Sprintf(" e%d:%d/%d/%d", k, r.Sessions, r.PlanComputes, r.Cutovers)
		}
	}
	run := scriptRun{counts: out, boot: boot, reports: reports, digest: fmt.Sprintf("%x", events.Sum(nil))}
	for _, x := range mgr.planners {
		st := x.pl.Stats()
		run.layers[0] += st.ReuseLayerKept
		run.layers[1] += st.ReuseLayerRebuilt
	}
	return run
}
