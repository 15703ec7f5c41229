package bench

import (
	"sort"

	"partsvc/internal/metrics"
	"partsvc/internal/trace"
)

// RunScenarioTraced is RunScenario under a virtual-clock tracer: it
// returns the latency row plus every span the run recorded, with
// timestamps in simulated milliseconds. The run is fully deterministic
// — calling it twice with the same arguments yields byte-identical
// trace.Tree renderings.
func RunScenarioTraced(cfg Config, sc Scenario, clients int) (Row, []trace.Span) {
	// Generous ring capacity: a send produces at most ~8 spans
	// (client/proxy/view/flush/tunnel/transport/mail plus slack), so
	// this never wraps for the paper's workloads.
	capacity := clients*cfg.SendsPerClient*8 + 64
	row, _, tr := runScenario(cfg, sc, clients, capacity)
	return row, tr.Spans()
}

// SpanBreakdown aggregates spans by name into latency histograms and
// renders one table row per span name (sorted), giving the per-stage
// cost breakdown used by EXPERIMENTS.md appendix A6.
func SpanBreakdown(spans []trace.Span) string {
	byName := map[string]*metrics.Histogram{}
	for i := range spans {
		h := byName[spans[i].Name]
		if h == nil {
			h = &metrics.Histogram{}
			byName[spans[i].Name] = h
		}
		h.Observe(spans[i].DurMS)
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	t := metrics.NewTable("span", "count", "mean_ms", "p50_ms", "p99_ms", "max_ms")
	for _, name := range names {
		h := byName[name]
		t.AddRow(name, h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.Max())
	}
	return t.String()
}

// RegisterSimMetrics publishes the process-wide simulator event count
// as the registry's "sim" section.
func RegisterSimMetrics(reg *metrics.Registry) {
	reg.RegisterSection("sim", func() []metrics.KV {
		return []metrics.KV{metrics.KVf("events", "%d", SimCounters())}
	})
}
