package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"partsvc/internal/adapt"
	"partsvc/internal/fleet"
	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/planner"
	"partsvc/internal/sim"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

// The fleet-wave workload: the control plane at scale with no transport
// at all. 1 200 sessions spread over the three client nodes of the
// paper's 7-node network (a default-backend fleet on a 32-node Waxman
// graph does not finish in ten minutes on this host), replanned by 16
// scripted link events on the simulator clock.
const (
	fleetSessions    = 1200
	fleetCycleEvents = 4     // degrade and restore the first link, then the second
	fleetMaxCycles   = 4     // 16 events
	fleetDegrade     = 800.0 // ms of latency a degrade event adds
	fleetSetups      = 7     // build + Bootstrap repetitions behind setup_s
)

var fleetCfg = fleet.Config{Shards: 8, DebounceMS: 20}

// fleetLinks are the two inter-site links the script alternates
// between: the first carries every San Diego chain's tunnel, the second
// every Seattle chain's.
var fleetLinks = [2][2]netmodel.NodeID{
	{topology.NYServer, topology.SDGateway},
	{topology.SDGateway, topology.SeaGW},
}

// waveSample is one event's wave: the manager's own report plus the
// wall-clock the harness measured around it.
type waveSample struct {
	event  int
	report fleet.WaveReport
	wallMS float64
	cpuMS  float64 // process CPU time (user + system, every thread) spent on the event
}

// cpuSeconds is the CPU time the process has consumed so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

type fleetResult struct {
	setupS      float64
	bootstrapMS float64
	bootstrap   fleet.WaveReport
	waves       []waveSample
	mem         memDelta
	events      []span
}

// runFleet builds the fleet, bootstraps it and plays the scripted link
// events: cycles times (degrade, restore) on each link in turn.
func runFleet(seed int64, cycles int, rec *recorder) (*fleetResult, error) {
	rng := newRand(seed, "fleet-wave")
	sites := []struct {
		node netmodel.NodeID
		user string
	}{{topology.NYClient, "Alice"}, {topology.SDClient, "Alice"}, {topology.SeaClient, "Carol"}}
	siteOf := make([]int, fleetSessions) // exactly a third per site, in seeded order
	for i := range siteOf {
		siteOf[i] = i % len(sites)
	}
	rng.Shuffle(len(siteOf), func(i, j int) { siteOf[i], siteOf[j] = siteOf[j], siteOf[i] })

	// Set-up is cheap beside the waves, so it is done several times and
	// the median reported; the script then plays on the last fleet.
	res := &fleetResult{}
	var reports []fleet.WaveReport
	var env *sim.Env
	var net *netmodel.Network
	var mon *netmon.Monitor
	var setupS, bootMS []float64
	for i := 0; i < fleetSetups; i++ {
		reports = nil
		setupStart := time.Now()
		env = sim.NewEnv()
		defer env.Stop()
		net = topology.CaseStudy()
		mon = netmon.New(net)
		mgr := fleet.New(fleetCfg, spec.MailService(), net, mon, adapt.NewSimScheduler(env))
		if _, err := mgr.AddPrimary(spec.CompMailServer, topology.NYServer); err != nil {
			return nil, err
		}
		for i, s := range siteOf {
			mgr.AddSession(fmt.Sprintf("s%05d", i), planner.Request{
				Interface: spec.IfaceClient, ClientNode: sites[s].node, User: sites[s].user, RateRPS: 10,
			})
		}
		mgr.OnWave(func(r fleet.WaveReport) {
			reports = append(reports, r)
			if rec != nil {
				rec.event("fleet.wave", fmt.Sprintf("wave %d: %d sessions, %d computes", r.Wave, r.Sessions, r.PlanComputes))
			}
		})
		t0 := time.Now()
		res.bootstrap = mgr.Bootstrap()
		bootMS = append(bootMS, float64(time.Since(t0))/1e6)
		setupS = append(setupS, time.Since(setupStart).Seconds())
		if res.bootstrap.Failed != 0 || res.bootstrap.Sessions != fleetSessions {
			return res, fmt.Errorf("bootstrap planned %d sessions, %d failed", res.bootstrap.Sessions, res.bootstrap.Failed)
		}
		if i == fleetSetups-1 {
			mgr.Start()
			defer mgr.Stop()
		}
	}
	res.setupS, res.bootstrapMS = median(setupS), median(bootMS)

	runtime.GC()
	memBefore := readMem()
	for k := 0; k < cycles*fleetCycleEvents; k++ {
		l := fleetLinks[(k/2)%2]
		link, ok := net.Link(l[0], l[1])
		if !ok {
			return res, fmt.Errorf("no link %s~%s", l[0], l[1])
		}
		lat, bw := link.LatencyMS+fleetDegrade, link.BandwidthMbps
		if k%2 == 1 {
			lat = link.LatencyMS - fleetDegrade // restore
		}
		at := 1000 * float64(k+1)
		var reportErr error
		env.At(at, func() { reportErr = mon.ReportLink(l[0], l[1], lat, bw, nil) })
		before := len(reports)
		t0, cpu0 := time.Now(), cpuSeconds()
		env.RunUntil(at + 900)
		wall, cpu := float64(time.Since(t0))/1e6, (cpuSeconds()-cpu0)*1e3
		if reportErr != nil {
			return res, fmt.Errorf("event %d: %w", k, reportErr)
		}
		// An event on a link that no deployment crosses any more opens no
		// wave; its near-zero wall-clock is not a wave's.
		if got := len(reports) - before; got > 1 {
			return res, fmt.Errorf("event %d opened %d waves, want at most 1", k, got)
		}
		for _, r := range reports[before:] {
			if r.Failed != 0 {
				return res, fmt.Errorf("wave %d: %d of %d sessions failed to replan", r.Wave, r.Failed, r.Sessions)
			}
			res.waves = append(res.waves, waveSample{event: k, report: r, wallMS: wall, cpuMS: cpu})
		}
	}
	res.mem = memSince(memBefore)
	if rec != nil {
		res.events = rec.take()
	}
	return res, nil
}

// counts renders the part of a run that must repeat exactly on every
// run and every seed: per event, the sessions in its wave, the planner
// computes and the cutovers.
func (r *fleetResult) counts() string {
	s := fmt.Sprintf("boot:%d/%d", r.bootstrap.Sessions, r.bootstrap.PlanComputes)
	for _, w := range r.waves {
		s += fmt.Sprintf(" e%d:%d/%d/%d", w.event, w.report.Sessions, w.report.PlanComputes, w.report.Cutovers)
	}
	return s
}
