package main

import (
	"fmt"
	"math"
)

// The traced pass. Tracing is a separate run (choosing-metrics §4): it
// reruns every workload at one caller with the recording transport
// wrapper in place, times each layer's entry points directly, and
// reports every per-layer figure. End-to-end metrics never come from it.

// Order in which workloads supply a figure that several of them
// measure, when the selected workload is not one of them.
var workloadOrder = []string{"send-through", "mailbox-mix", "recover", "fleet-wave"}

const tracedRecoverTrials = 6

// traceData reruns a data workload at one caller: one untraced round
// for the baseline and one traced round for the spans.
func traceData(ds dataSpec, seed int64, rep *report) (map[string]float64, error) {
	base, err := runDataRound(ds, seed, 100, 1, nil)
	if err == nil {
		rep.attempted += base.attempted
		rep.failed += base.failed
	}
	if err != nil {
		return nil, fmt.Errorf("%s 1-caller round: %w", ds.name, err)
	}
	rec := newRecorder()
	tr, err := runDataRound(ds, seed, 101, 1, rec)
	if err == nil {
		rep.attempted += tr.attempted
		rep.failed += tr.failed
	}
	if err != nil {
		return nil, fmt.Errorf("%s traced round: %w", ds.name, err)
	}
	link(tr.spans)
	if err := writeSpans(ds.name, tr.spans, tr.names); err != nil {
		return nil, err
	}

	m := map[string]float64{}
	send, tsend := summarize(base.sendUS), summarize(tr.sendUS)
	m["client.send_p50_us"] = send.P50
	m["client.send_tail_us"] = send.Tail
	m["client.trace_overhead_pct"] = 100 * (tsend.P50 - send.P50) / send.P50
	sends := float64(base.sends)
	m["wire.bytes_per_send"] = float64(base.stats.bytesSent) / sends
	m["transport.frames_per_send"] = float64(base.stats.framesSent) / sends
	m["transport.write_batch_p50"] = base.stats.writeBatchP50
	m["transport.queue_wait_max_ms"] = base.stats.queueWaitMaxMS
	m["transport.shed"] = float64(base.stats.shed)
	m["runtime.allocs_per_op"] = float64(base.mem.mallocs) / float64(base.attempted)
	m["runtime.gc_pause_ms"] = float64(base.mem.gcPauseNS) / 1e6
	m["runtime.heap_peak_mb"] = float64(base.mem.heapPeak) / (1 << 20)

	bd := breakDown(tr.spans, tr.names, "send")
	hop := median(bd.hopUS)
	m["transport.hop_us"] = hop
	m["client.stub_self_us"] = median(bd.stubUS)
	m["smock.relay_self_us"] = median(bd.selfUS["MailClient"])
	m["mail.view_self_us.send"] = median(bd.selfUS["ViewMailServer"])
	m["coherence.flushes_per_1k_sends"] = 1000 * float64(len(bd.flushMS)) / float64(bd.requests)
	if len(bd.flushMS) > 0 {
		m["coherence.flush_500_ms"] = median(bd.flushMS)
	}
	// A component the median send does not visit costs that send
	// nothing: its self time comes from the requests that did visit it,
	// and stays out of the identity below.
	hops := median(bd.hops)
	predicted := m["client.stub_self_us"] + hops*hop + m["smock.relay_self_us"] + m["mail.view_self_us.send"]
	for metric, comp := range map[string]string{
		"mail.encryptor_self_us": "Encryptor", "mail.decryptor_self_us": "Decryptor", "mail.server_self_us": "MailServer",
	} {
		if v := bd.selfUS[comp]; len(v) > 0 {
			m[metric] = median(v)
			if 2*len(v) > bd.requests {
				predicted += m[metric]
			}
		}
	}
	// hops x hop time + the self times along the path should account for
	// the traced send: what is left is the error of adding medians.
	m["client.attribution_gap_pct"] = 100 * math.Abs(predicted-tsend.P50) / tsend.P50
	rep.note("%s at 1 caller: send p50 %.4g us untraced (%v), %.4g us traced; %g hops x %.4g us + self times = %.4g us",
		ds.name, send.P50, send, tsend.P50, hops, hop, predicted)

	if len(base.recvUS) > 0 {
		recv := summarize(base.recvUS)
		m["client.receive_p50_us"] = recv.P50
		m["client.receive_tail_us"] = recv.Tail
		perMsg := make([]float64, 0, len(base.recvUS))
		for i, us := range base.recvUS {
			if n := base.recvMsgs[i]; n > 0 {
				perMsg = append(perMsg, us/n)
			}
		}
		m["mail.receive_us_per_msg"] = median(perMsg)
		rbd := breakDown(tr.spans, tr.names, "receive")
		m["mail.view_self_us.receive"] = median(rbd.selfUS["ViewMailServer"])
		rep.note("%s at 1 caller: receive p50 %.4g us (%v), inbox p50 %g messages", ds.name, recv.P50, recv, median(base.recvMsgs))
	}
	return m, nil
}

func traceRecover(seed int64, rep *report) (map[string]float64, error) {
	rec := newRecorder()
	rs, spans, names, err := runRecoverTrials(seed, tracedRecoverTrials, 100, rec, rep)
	if err != nil {
		return nil, err
	}
	link(spans)
	if err := writeSpans("recover", spans, names); err != nil {
		return nil, err
	}
	m := map[string]float64{
		"adapt.detect_ms":              median(rs.detect),
		"adapt.plan_ms":                median(rs.plan),
		"adapt.cutover_ms":             median(rs.cutover),
		"adapt.rebind_ms":              median(rs.rebind),
		"adapt.teardown_ms":            median(rs.teardown),
		"client.access_ms":             median(rs.access),
		"client.recover_tail_ms":       summarize(rs.latency).Tail,
		"client.lateness_p99_ms":       quantile(sortedCopy(rs.lateness), 0.99),
		"client.recover_invalid":       float64(rs.invalid),
		"client.recover_lost_sends":    float64(rs.lost),
		"client.recover_phase_gap_pct": 0,
	}
	// The four blocking phases are consecutive intervals of one timeline,
	// so per trial they sum to recover_ms exactly; the gap is what adding
	// their medians loses.
	if rm := median(rs.recoverMS); rm > 0 {
		sum := m["adapt.detect_ms"] + m["adapt.plan_ms"] + m["adapt.cutover_ms"] + m["adapt.rebind_ms"]
		m["client.recover_phase_gap_pct"] = 100 * math.Abs(sum-rm) / rm
		rep.note("recover traced: recover_ms %.5g = detect %.4g + plan %.4g + cutover %.4g + rebind %.4g (sum %.5g); teardown %.4g ms after the flip",
			rm, m["adapt.detect_ms"], m["adapt.plan_ms"], m["adapt.cutover_ms"], m["adapt.rebind_ms"], sum, m["adapt.teardown_ms"])
	}
	return m, nil
}

func traceFleet(seed int64, rep *report) (map[string]float64, error) {
	rec := newRecorder()
	res, err := runFleet(seed, 1, rec)
	if err != nil {
		return nil, fmt.Errorf("fleet-wave traced: %w", err)
	}
	for _, w := range res.waves {
		rep.attempted += w.report.Sessions
	}
	if err := writeSpans("fleet-wave", res.events, nil); err != nil {
		return nil, err
	}
	m := fleetFigures(res)
	rep.note("fleet-wave traced (1 cycle): %s", res.counts())
	delete(m, "sessions_per_cpu_s")
	delete(m, "wave_cpu_ms")
	return m, nil
}

// tracedPass runs all four workloads traced plus the micro-timings and
// merges their figures. A figure measured by several workloads (hop
// time, self times, runtime counters) is the selected workload's when
// it has one, and otherwise the first's in workloadOrder.
func tracedPass(selected string, seed int64) (*report, error) {
	rep := newReport()
	parts := map[string]map[string]float64{}
	var err error
	if parts["send-through"], err = traceData(sendThrough, seed, rep); err != nil {
		return rep, err
	}
	if parts["mailbox-mix"], err = traceData(mailboxMix, seed, rep); err != nil {
		return rep, err
	}
	if parts["recover"], err = traceRecover(seed, rep); err != nil {
		return rep, err
	}
	if parts["fleet-wave"], err = traceFleet(seed, rep); err != nil {
		return rep, err
	}
	micro, err := microTimings(seed)
	if err != nil {
		return rep, err
	}
	plans, err := planTimings()
	if err != nil {
		return rep, err
	}
	for _, part := range []map[string]float64{micro, plans, parts[selected]} {
		for k, v := range part {
			rep.values[k] = v
		}
	}
	for _, w := range workloadOrder {
		for k, v := range parts[w] {
			if _, ok := rep.values[k]; !ok {
				rep.values[k] = v
			}
		}
	}
	v := rep.values
	// ROADMAP 2a's target: a send through the chain for at most three
	// times the cost of encrypting its body once.
	v["mail.send_over_seal_ratio"] = parts["send-through"]["client.send_p50_us"] / v["seccrypto.seal_10k_us"]
	planMS := (v["planner.plan_ms.ny"] + v["planner.plan_ms.sd"] + v["planner.plan_ms.seattle"]) / 3
	v["fleet.overhead_ms_per_wave"] = v["wave_ms"] - v["fleet.plan_computes_per_wave"]*planMS
	delete(v, "wave_ms")
	return rep, nil
}
