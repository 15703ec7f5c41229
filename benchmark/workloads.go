package main

import (
	"fmt"
	"math"
	"runtime"
)

// report is what one run of the harness prints.
type report struct {
	attempted, failed int
	values            map[string]float64 // metric name -> value; the caller picks the ones BENCHMARK.json lists
	detail            []string           // further named figures, printed but not part of the contract's JSON
	counts            string             // exact counts that must repeat on every run (fleet-wave)
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) note(format string, args ...any) {
	r.detail = append(r.detail, fmt.Sprintf(format, args...))
}

// The amount of work in a run is derived from -seconds, not from a
// clock, so every run of one length replays exactly the same rounds,
// trials and events. The factors are sized on the 2-vCPU reference host
// so that a run lasts about -seconds; a shorter run has fewer rounds,
// trials or cycles, never smaller ones.
func scaled(seconds int, perSecond float64, max int) int {
	n := int(math.Round(float64(seconds) * perSecond))
	if n < 1 {
		n = 1
	}
	if n > max {
		n = max
	}
	return n
}

func defaultCallers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// runData runs a data workload untraced and reports its end-to-end
// metrics: medians over rounds.
func runData(ds dataSpec, seed int64, seconds, callers int) (*report, error) {
	rounds := scaled(seconds, ds.roundsPerSecond, ds.maxRounds)
	rep := newReport()
	var setup, sendP50, opsPerS, sendsPerS, recvP50, verifyP50, allocKB []float64
	var allSend, allRecv []float64
	for r := 0; r < rounds; r++ {
		res, err := runDataRound(ds, seed, r, callers, nil)
		if res != nil {
			rep.attempted += res.attempted
			rep.failed += res.failed
		}
		if err != nil {
			return rep, fmt.Errorf("%s round %d: %w", ds.name, r, err)
		}
		setup = append(setup, res.setupS)
		sendP50 = append(sendP50, summarize(res.sendUS).P50)
		opsPerS = append(opsPerS, float64(res.attempted)/res.wallS)
		sendsPerS = append(sendsPerS, float64(res.sends)/res.wallS)
		verifyP50 = append(verifyP50, summarize(res.verifyUS).P50)
		allocKB = append(allocKB, float64(res.mem.allocBytes)/1024/float64(res.attempted))
		allSend = append(allSend, res.sendUS...)
		if len(res.recvUS) > 0 {
			recvP50 = append(recvP50, summarize(res.recvUS).P50)
			allRecv = append(allRecv, res.recvUS...)
		}
	}
	rep.values["setup_s"] = median(setup)
	rep.values["op_ms"] = median(sendP50) / 1e3
	rep.values["ops_per_s"] = median(opsPerS)
	rep.values["alloc_kb_per_op"] = median(allocKB)
	rep.note("%s: closed loop, %d callers, one connection each, %d rounds x %d ops", ds.name, callers, rounds, ds.opsPerRound)
	rep.note("send_p50_us %.4g us (%v over all rounds)", median(sendP50), summarize(allSend))
	rep.note("sends_per_s %.5g 1/s", median(sendsPerS))
	if len(recvP50) > 0 {
		rep.note("receive_p50_us %.4g us (%v over all rounds)", median(recvP50), summarize(allRecv))
	}
	rep.note("per round: send p50 us %.4g; ops/s %.5g", sendP50, opsPerS)
	rep.note("the output check's full-inbox receives through the chain: p50 %.4g us (%d per round)", median(verifyP50), ds.verify)
	rep.note("error_rate %g (%d failed of %d)", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	return rep, nil
}

// recoverStats folds trials into the recover workload's figures.
type recoverStats struct {
	setup, access, recoverMS, restoredMS, allocKB []float64
	detect, plan, cutover, rebind, teardown       []float64
	latency, lateness, trialLateP99               []float64
	invalid, lost                                 int
}

// fold folds trials into figures. Set-up and access times do not depend
// on the generator, so every trial counts towards them. The rest comes
// from the valid trials only, unless fewer than minValidTrials are: a
// busy host must make the figures noisy, not the run fail.
func fold(trials []*trialResult) *recoverStats {
	rs := &recoverStats{}
	for _, t := range trials {
		if t.invalid {
			rs.invalid++
		}
	}
	keepInvalid := len(trials)-rs.invalid < minValidTrials
	for _, t := range trials {
		rs.setup = append(rs.setup, t.setupS)
		rs.access = append(rs.access, t.accessMS)
		rs.lateness = append(rs.lateness, t.latenessMS...)
		rs.trialLateP99 = append(rs.trialLateP99, quantile(sortedCopy(t.latenessMS), 0.99))
		rs.lost += t.lost
		if t.invalid && !keepInvalid {
			continue
		}
		rs.recoverMS = append(rs.recoverMS, t.recoverMS)
		rs.restoredMS = append(rs.restoredMS, t.adaptedMS)
		rs.allocKB = append(rs.allocKB, float64(t.mem.allocBytes)/1024/float64(len(t.latencyMS)))
		rs.latency = append(rs.latency, t.latencyMS...)
		rs.detect = append(rs.detect, t.suspectMS)
		rs.plan = append(rs.plan, t.replanMS-t.suspectMS)
		rs.cutover = append(rs.cutover, t.adaptedMS-t.replanMS)
		rs.rebind = append(rs.rebind, t.recoverMS-t.adaptedMS)
		rs.teardown = append(rs.teardown, t.teardownMS-t.adaptedMS)
	}
	return rs
}

func runRecoverTrials(seed int64, trials, firstTrial int, rec *recorder, rep *report) (*recoverStats, []span, map[string]string, error) {
	var results []*trialResult
	var spans []span
	var names map[string]string
	for t := 0; t < trials; t++ {
		res, err := runRecoverTrial(seed, firstTrial+t, rec)
		if res != nil {
			rep.attempted += len(res.latencyMS)
			rep.failed += res.failed
		}
		if err != nil {
			return nil, nil, nil, fmt.Errorf("recover trial %d: %w", firstTrial+t, err)
		}
		if res.failureLog != "" {
			rep.note("FAILED OPERATIONS, %s", res.failureLog)
			continue
		}
		results = append(results, res)
		if rec != nil { // span IDs restart every trial; keep the last trial's for the dump
			spans, names = res.spans, res.names
		}
	}
	if len(results) == 0 {
		return nil, nil, nil, fmt.Errorf("recover: requests failed across the fault in every trial")
	}
	return fold(results), spans, names, nil
}

func runRecover(seed int64, seconds int) (*report, error) {
	trials := scaled(seconds, 0.75, 24) // a trial is ≈1.1 s here
	rep := newReport()
	rs, _, _, err := runRecoverTrials(seed, trials, 0, nil, rep)
	if err != nil {
		return rep, err
	}
	rep.values["setup_s"] = median(rs.setup)
	rep.values["op_ms"] = median(rs.recoverMS)
	// The rate at which the control plane completes a recovery: the
	// reciprocal of the time from the kill to the new chain serving (the
	// controller's "adapted" event). Unlike recover_ms it is not quantised
	// by the retry schedule, so it moves with planning and cutover time.
	rep.values["ops_per_s"] = 1e3 / median(rs.restoredMS)
	rep.values["alloc_kb_per_op"] = median(rs.allocKB)
	rep.note("recover: open loop, one request due every %v for %v after the kill, %d trials (%d invalid: generator more than %g ms late)", recoverEvery, recoverWindow, trials, rs.invalid, maxLatenessP99MS)
	rep.note("restored_ms %.5g ms (kill to the new chain serving; %v)", median(rs.restoredMS), summarize(rs.restoredMS))
	rep.note("recover_ms %.5g ms (worst completion - due time per trial; %v)", median(rs.recoverMS), summarize(rs.recoverMS))
	rep.note("access_ms %.4g ms (%v)", median(rs.access), summarize(rs.access))
	rep.note("request latency from due time: p50 %.4g ms (%v)", summarize(rs.latency).P50, summarize(rs.latency))
	rep.note("phases after the kill, median ms: detect %.4g, plan %.4g, cutover %.4g, rebind %.4g (teardown %.4g, off the blocking path)",
		median(rs.detect), median(rs.plan), median(rs.cutover), median(rs.rebind), median(rs.teardown))
	rep.note("generator lateness p99 %.3g ms; per trial %.2g", quantile(sortedCopy(rs.lateness), 0.99), rs.trialLateP99)
	if rs.lost > 0 {
		rep.note("WARNING: %d acknowledged sends never reached the primary (concurrent write-through flushes of one view arrive out of order and the primary drops the earlier batch)", rs.lost)
	}
	rep.note("error_rate %g (%d failed of %d)", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	return rep, nil
}

// fleetFigures folds one fleet run into named figures.
func fleetFigures(res *fleetResult) map[string]float64 {
	var wall, cpu, sessions, computes, memo, cutovers, lookups float64
	var scoped, full []float64
	for _, w := range res.waves {
		wall += w.wallMS
		cpu += w.cpuMS
		sessions += float64(w.report.Sessions)
		computes += float64(w.report.PlanComputes)
		memo += float64(w.report.MemoHits)
		cutovers += float64(w.report.Cutovers)
		lookups += float64(w.report.RouteLookups)
		if w.report.Sessions == fleetSessions {
			full = append(full, w.wallMS)
		} else {
			scoped = append(scoped, w.wallMS)
		}
	}
	n := float64(len(res.waves))
	return map[string]float64{
		"wave_ms":                         wall / n,
		"wave_cpu_ms":                     cpu / n,
		"sessions_per_cpu_s":              sessions / (cpu / 1e3),
		"fleet.bootstrap_ms":              res.bootstrapMS,
		"fleet.wave_ms.scoped":            median(scoped),
		"fleet.wave_ms.full":              median(full),
		"fleet.plan_computes_per_wave":    computes / n,
		"fleet.memo_hits_per_wave":        memo / n,
		"fleet.cutovers_per_wave":         cutovers / n,
		"fleet.waves":                     n,
		"netmodel.route_lookups_per_wave": lookups / n,
	}
}

func runFleetWave(seed int64, seconds int) (*report, error) {
	cycles := scaled(seconds, 0.2, fleetMaxCycles) // a cycle of 4 events is ≈3.5 s here
	rep := newReport()
	res, err := runFleet(seed, cycles, nil)
	if res != nil {
		for _, w := range res.waves {
			rep.attempted += w.report.Sessions
			rep.failed += w.report.Failed
		}
	}
	if err != nil {
		return rep, fmt.Errorf("fleet-wave: %w", err)
	}
	// After the first cycle the script is periodic: every later cycle
	// must replan the same sessions with the same computes.
	per := map[int]string{}
	for _, w := range res.waves {
		if c := w.event / fleetCycleEvents; c >= 1 {
			per[c] += fmt.Sprintf(" e%d:%d/%d/%d", w.event%fleetCycleEvents, w.report.Sessions, w.report.PlanComputes, w.report.Cutovers)
		}
	}
	for c := 2; c < cycles; c++ {
		if per[c] != per[1] {
			return rep, fmt.Errorf("fleet-wave: cycle %d replanned%s, cycle 1%s: counts must repeat", c, per[c], per[1])
		}
	}
	f := fleetFigures(res)
	rep.counts = res.counts()
	rep.values["setup_s"] = res.setupS
	// A wave keeps both cores busy for a second or more, and on a shared
	// host its wall-clock follows the hypervisor's mood (the same waves
	// take 12.6-16.7 s from run to run while their CPU time stays within
	// a few per cent). The bounded metrics are therefore CPU time; the
	// wall-clock is printed below and in the per-layer fleet.wave_ms.*.
	rep.values["op_ms"] = f["wave_cpu_ms"]
	rep.values["ops_per_s"] = f["sessions_per_cpu_s"]
	rep.values["alloc_kb_per_op"] = float64(res.mem.allocBytes) / 1024 / f["fleet.waves"]
	rep.note("fleet-wave: %d sessions, %d shards, %d link events on the simulator clock, %d waves", fleetSessions, fleetCfg.Shards, cycles*fleetCycleEvents, len(res.waves))
	rep.note("wave_ms %.5g ms (total event-wave wall-clock / waves; scoped p50 %.4g ms, full p50 %.4g ms)", f["wave_ms"], f["fleet.wave_ms.scoped"], f["fleet.wave_ms.full"])
	rep.note("wave_cpu_ms %.5g ms (process CPU time / waves; %.3g cores busy)", f["wave_cpu_ms"], f["wave_cpu_ms"]/f["wave_ms"])
	rep.note("bootstrap_ms %.4g ms", res.bootstrapMS)
	walls := make([]float64, len(res.waves))
	for i, w := range res.waves {
		walls[i] = w.wallMS
	}
	rep.note("per wave ms: %.4g", walls)
	rep.note("counts %s", rep.counts)
	rep.note("error_rate %g (%d sessions failed to replan of %d)", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	return rep, nil
}
