package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format 0.0.4) for the registry. The
// renderer maps registry names onto Prometheus families:
//
//   - counters:   partsvc_<name>_total        (TYPE counter)
//   - histograms: partsvc_<name>_bucket{le=…} cumulative, plus _sum and
//     _count (TYPE histogram); only occupied buckets are emitted, the
//     mandatory +Inf bucket always
//   - sections:   any snapshot KV whose value parses as a plain float
//     becomes a gauge; formatted strings (percentages, lists) are
//     registry-render-only and skipped here
//
// Dots in registry names become underscores ("adapt.cutover_ms" →
// partsvc_adapt_cutover_ms); labeled series render label sets in
// canonical key order. Values keep Go's shortest float formatting,
// which the exposition grammar accepts.

// promNamePrefix namespaces every exported family.
const promNamePrefix = "partsvc_"

// WritePrometheus renders the whole registry in Prometheus text
// exposition format. Families are emitted in sorted name order so
// scrapes are diffable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	counters := make([]*counterEntry, 0, len(r.counters))
	for _, e := range r.counters {
		counters = append(counters, e)
	}
	hists := make([]*histEntry, 0, len(r.histograms))
	for _, e := range r.histograms {
		hists = append(hists, e)
	}
	sections := make([]namedSection, len(r.sections))
	copy(sections, r.sections)
	r.mu.Unlock()

	bw := bufio.NewWriter(w)

	// Counter families: group labeled series under one TYPE line.
	famC := map[string][]*counterEntry{}
	for _, e := range counters {
		famC[e.name] = append(famC[e.name], e)
	}
	for _, fam := range sortedKeys(famC) {
		name := promName(fam, "_total")
		fmt.Fprintf(bw, "# HELP %s Registry counter %s.\n", name, fam)
		fmt.Fprintf(bw, "# TYPE %s counter\n", name)
		series := famC[fam]
		sort.Slice(series, func(i, j int) bool {
			return seriesKey("", series[i].labels) < seriesKey("", series[j].labels)
		})
		for _, e := range series {
			fmt.Fprintf(bw, "%s%s %d\n", name, promLabels(e.labels, "", 0), e.c.Load())
		}
	}

	// Histogram families.
	famH := map[string][]*histEntry{}
	for _, e := range hists {
		famH[e.name] = append(famH[e.name], e)
	}
	for _, fam := range sortedKeys(famH) {
		name := promName(fam, "")
		fmt.Fprintf(bw, "# HELP %s Registry histogram %s (log-bucketed, milliseconds).\n", name, fam)
		fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
		series := famH[fam]
		sort.Slice(series, func(i, j int) bool {
			return seriesKey("", series[i].labels) < seriesKey("", series[j].labels)
		})
		for _, e := range series {
			writePromHistogram(bw, name, e)
		}
	}

	// Section scalars: best-effort numeric exposure of the snapshot-func
	// sections (planner stats, transport stats, ...).
	// Families already emitted above: sections must not re-declare them
	// (duplicate families are a lint error, and typed metrics win).
	seen := map[string]bool{}
	for fam := range famC {
		seen[promName(fam, "_total")] = true
	}
	for fam := range famH {
		base := promName(fam, "")
		for _, sfx := range []string{"", "_bucket", "_sum", "_count"} {
			seen[base+sfx] = true
		}
	}
	for _, sec := range sections {
		for _, kv := range sec.fn() {
			v, err := strconv.ParseFloat(strings.TrimSpace(kv.Value), 64)
			if err != nil || math.IsInf(v, 0) || math.IsNaN(v) {
				continue
			}
			name := promName(sec.name+"."+kv.Name, "")
			if seen[name] {
				continue // duplicate family (re-registered section): first wins
			}
			seen[name] = true
			fmt.Fprintf(bw, "# TYPE %s gauge\n", name)
			fmt.Fprintf(bw, "%s %s\n", name, promFloat(v))
		}
	}
	return bw.Flush()
}

// writePromHistogram renders one histogram series: cumulative occupied
// buckets, the +Inf bucket, sum, and count.
func writePromHistogram(w io.Writer, name string, ph *histEntry) {
	var cum uint64
	for _, b := range ph.h.Buckets() {
		if b.Count == 0 || math.IsInf(b.UpperBound, 1) {
			continue
		}
		cum += b.Count
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabels(ph.labels, "le", b.UpperBound), cum)
	}
	count := ph.h.Count()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabels(ph.labels, "le", math.Inf(1)), count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, promLabels(ph.labels, "", 0), promFloat(ph.h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, promLabels(ph.labels, "", 0), count)
}

// promName sanitizes a registry name into a metric name:
// prefix + dots→underscores + invalid chars→underscores + suffix
// (suffix skipped when the name already ends with it).
func promName(name, suffix string) string {
	var b strings.Builder
	b.WriteString(promNamePrefix)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9' && i > 0:
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	out := b.String()
	if suffix != "" && !strings.HasSuffix(out, suffix) {
		out += suffix
	}
	return out
}

// promLabels renders a label set (already sorted), optionally with a
// trailing le label for bucket lines. Returns "" for no labels.
func promLabels(labels []Label, leKey string, le float64) string {
	if len(labels) == 0 && leKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	if leKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", leKey, promFloat(le))
	}
	b.WriteByte('}')
	return b.String()
}

// promFloat formats a float for the exposition grammar: shortest
// round-trip form, with +Inf/-Inf spelled the Prometheus way.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
