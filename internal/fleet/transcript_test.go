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

// scriptRun is what one replay of the script produced: its counts line,
// the bootstrap and wave reports, and the digest of the per-session
// event stream.
type scriptRun struct {
	counts  string
	boot    WaveReport
	reports []WaveReport
	digest  string
}

func fleetWaveTranscript(t *testing.T, sessions, workers int) scriptRun {
	t.Helper()
	const degradeMS = 800.0
	links := [2][2]netmodel.NodeID{
		{topology.NYServer, topology.SDGateway},
		{topology.SDGateway, topology.SeaGW},
	}
	sites := []struct {
		node netmodel.NodeID
		user string
	}{{topology.NYClient, "Alice"}, {topology.SDClient, "Alice"}, {topology.SeaClient, "Carol"}}

	env := sim.NewEnv()
	defer env.Stop()
	net := topology.CaseStudy()
	mon := netmon.New(net)
	mgr := New(Config{Shards: 8, Workers: workers, DebounceMS: 20},
		spec.MailService(), net, mon, adapt.NewSimScheduler(env))
	if _, err := mgr.AddPrimary(spec.CompMailServer, topology.NYServer); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sessions; i++ {
		site := sites[i%len(sites)]
		mgr.AddSession(fmt.Sprintf("s%05d", i), planner.Request{
			Interface: spec.IfaceClient, ClientNode: site.node, User: site.user, RateRPS: 10,
		})
	}
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
	return scriptRun{counts: out, boot: boot, reports: reports, digest: fmt.Sprintf("%x", events.Sum(nil))}
}
