package metrics

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// promRelErr is the documented worst-case quantile error of the
// log-bucket layout: one sub-octave bucket's relative width.
const promRelErr = math.Ln2 / histSubOctave // ln(2^(1/8)) ≈ 0.0866; 2^(1/8)-1 ≈ 0.0905

// parsePromText indexes an exposition into series → value.
func parsePromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, v, err := parsePromSample(line)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		out[name+labels] = v
	}
	return out
}

// histSeries extracts one histogram family's buckets (sorted by le),
// sum, and count from a parsed exposition.
func histSeries(t *testing.T, samples map[string]float64, fam string) (les []float64, cum []float64, sum, count float64) {
	t.Helper()
	for key, v := range samples {
		switch {
		case strings.HasPrefix(key, fam+"_bucket{"):
			start := strings.Index(key, `le="`)
			if start < 0 {
				t.Fatalf("bucket without le: %s", key)
			}
			leStr := key[start+4:]
			leStr = leStr[:strings.IndexByte(leStr, '"')]
			le, err := parsePromFloat(leStr)
			if err != nil {
				t.Fatalf("bad le %q: %v", leStr, err)
			}
			les = append(les, le)
			cum = append(cum, v)
		case key == fam+"_sum":
			sum = v
		case key == fam+"_count":
			count = v
		}
	}
	sort.Sort(sortByLE{les, cum})
	return les, cum, sum, count
}

type sortByLE struct{ les, cum []float64 }

func (s sortByLE) Len() int           { return len(s.les) }
func (s sortByLE) Less(i, j int) bool { return s.les[i] < s.les[j] }
func (s sortByLE) Swap(i, j int) {
	s.les[i], s.les[j] = s.les[j], s.les[i]
	s.cum[i], s.cum[j] = s.cum[j], s.cum[i]
}

// bucketQuantile reconstructs a quantile from cumulative buckets the
// way a Prometheus consumer would: the upper bound of the first bucket
// whose cumulative count reaches the rank.
func bucketQuantile(les, cum []float64, q float64) float64 {
	total := cum[len(cum)-1]
	rank := math.Ceil(q * total)
	if rank < 1 {
		rank = 1
	}
	for i := range cum {
		if cum[i] >= rank {
			return les[i]
		}
	}
	return les[len(les)-1]
}

// TestPromHistogramOracle is the exposition-correctness satellite: the
// rendered _bucket/_sum/_count series must reconstruct quantiles that
// match a sorted-sample oracle within the documented ≤9.05% bound.
func TestPromHistogramOracle(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("oracle.latency")
	rng := rand.New(rand.NewSource(42))
	const n = 10000
	samples := make([]float64, n)
	for i := range samples {
		// Log-normal-ish spread across several octaves: 0.1ms .. ~2s.
		v := 0.1 * math.Exp(rng.NormFloat64()*1.5+2)
		samples[i] = v
		h.Observe(v)
	}
	sort.Float64s(samples)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	parsed := parsePromText(t, buf.String())
	les, cum, sum, count := histSeries(t, parsed, "partsvc_oracle_latency")

	if len(les) == 0 {
		t.Fatal("no bucket series rendered")
	}
	if count != n {
		t.Fatalf("_count = %v, want %d", count, n)
	}
	if !math.IsInf(les[len(les)-1], 1) {
		t.Fatalf("last bucket le = %v, want +Inf", les[len(les)-1])
	}
	if cum[len(cum)-1] != n {
		t.Fatalf("+Inf bucket = %v, want %d", cum[len(cum)-1], n)
	}
	var want float64
	for _, v := range samples {
		want += v
	}
	if math.Abs(sum-want) > math.Abs(want)*1e-9 {
		t.Fatalf("_sum = %v, want %v", sum, want)
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("buckets not cumulative at le=%v: %v < %v", les[i], cum[i], cum[i-1])
		}
	}

	// Bucket upper bounds are a ratio of 2^(1/8) apart, so the bound
	// returned for a rank is at most one bucket width above the true
	// sample: relative error ≤ 2^(1/8)-1 ≈ 9.05%.
	const tol = 0.0906
	for _, q := range []float64{0.50, 0.90, 0.99} {
		got := bucketQuantile(les, cum, q)
		oracle := samples[int(math.Ceil(q*float64(n)))-1]
		rel := math.Abs(got-oracle) / oracle
		if rel > tol {
			t.Errorf("q=%.2f: bucket quantile %v vs oracle %v (rel err %.4f > %.4f)",
				q, got, oracle, rel, tol)
		}
	}
}

// TestPromExpositionLints feeds a populated registry — counters,
// labeled counters, histograms, labeled histograms, sections — through
// the format linter.
func TestPromExpositionLints(t *testing.T) {
	r := NewRegistry()
	r.Counter("wire.pool_hits").Add(7)
	r.CounterL("api.requests", Label{"route", "/v1/sessions"}, Label{"code", "200"}).Add(3)
	r.CounterL("api.requests", Label{"route", "/v1/plan"}, Label{"code", "400"}).Add(1)
	h := r.Histogram("rpc.client.send")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.37)
	}
	lat := r.Histogram("api.latency_ms", Label{"route", "/metrics"})
	for i := 0; i < 50; i++ {
		lat.Observe(float64(i) * 1.1)
	}
	r.Histogram("api.latency_ms", Label{"route", "/healthz"}).Observe(0.2)
	r.RegisterSection("planner", func() []KV {
		return []KV{
			{Name: "plans", Value: "12"},
			{Name: "memo_hit_pct", Value: "93.1%"}, // non-numeric: skipped
			{Name: "inf_capacity", Value: "+Inf"},  // non-finite: skipped
		}
	})

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := buf.String()
	if err := LintPrometheusText(strings.NewReader(text)); err != nil {
		t.Fatalf("lint failed: %v\n%s", err, text)
	}

	parsed := parsePromText(t, text)
	if got := parsed[`partsvc_api_requests_total{code="200",route="/v1/sessions"}`]; got != 3 {
		t.Errorf("labeled counter = %v, want 3\n%s", got, text)
	}
	if got := parsed["partsvc_wire_pool_hits_total"]; got != 7 {
		t.Errorf("plain counter = %v, want 7", got)
	}
	if got := parsed[`partsvc_api_latency_ms_count{route="/metrics"}`]; got != 50 {
		t.Errorf("labeled histogram count = %v, want 50", got)
	}
	if got := parsed[`partsvc_api_latency_ms_count{route="/healthz"}`]; got != 1 {
		t.Errorf("second labeled series count = %v, want 1", got)
	}
	if n := strings.Count(text, "# TYPE partsvc_api_latency_ms histogram"); n != 1 {
		t.Errorf("labeled series declared %d TYPE lines, want one family", n)
	}
	if got := parsed["partsvc_planner_plans"]; got != 12 {
		t.Errorf("section gauge = %v, want 12", got)
	}
	if _, ok := parsed["partsvc_planner_memo_hit_pct"]; ok {
		t.Error("non-numeric section value leaked into exposition")
	}
	if strings.Contains(text, "+Inf\n# TYPE partsvc_planner_inf_capacity") ||
		strings.Contains(text, "partsvc_planner_inf_capacity") {
		t.Error("non-finite section value leaked into exposition")
	}
}

// TestPromLintCatchesBadInput makes sure the linter actually rejects
// the failure shapes CI relies on it to catch.
func TestPromLintCatchesBadInput(t *testing.T) {
	cases := map[string]string{
		"bad metric name":  "9foo 1\n",
		"missing value":    "foo\n",
		"bad value":        "foo abc\n",
		"unquoted label":   `foo{a=b} 1` + "\n",
		"duplicate series": "foo 1\nfoo 1\n",
		"duplicate TYPE":   "# TYPE foo counter\n# TYPE foo counter\nfoo 1\n",
		"unknown type":     "# TYPE foo widget\nfoo 1\n",
		"no +Inf bucket": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 2` + "\nh_sum 2\nh_count 2\n",
		"non-cumulative buckets": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" +
			`h_bucket{le="+Inf"} 5` + "\nh_sum 9\nh_count 5\n",
		"count mismatch": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 5` + "\nh_sum 9\nh_count 6\n",
	}
	for name, in := range cases {
		if err := LintPrometheusText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: lint accepted invalid input:\n%s", name, in)
		}
	}
	good := "# HELP ok A fine counter.\n# TYPE ok counter\nok 3\n" +
		"# TYPE h histogram\n" +
		`h_bucket{le="0.5"} 1` + "\n" + `h_bucket{le="+Inf"} 4` + "\n" +
		"h_sum 3.5\nh_count 4\n"
	if err := LintPrometheusText(strings.NewReader(good)); err != nil {
		t.Errorf("lint rejected valid input: %v", err)
	}
}

// TestCounterLFamilies verifies labeled series are distinct counters
// but share a family, and that Snapshot renders them with labels.
func TestCounterLFamilies(t *testing.T) {
	r := NewRegistry()
	a := r.CounterL("api.req", Label{"route", "a"})
	b := r.CounterL("api.req", Label{"route", "b"})
	if a == b {
		t.Fatal("different label sets returned the same counter")
	}
	if again := r.CounterL("api.req", Label{"route", "a"}); again != a {
		t.Fatal("same label set returned a different counter")
	}
	a.Add(2)
	b.Add(5)

	found := map[string]string{}
	for _, sec := range r.Snapshot() {
		if sec.Name != "api" {
			continue
		}
		for _, kv := range sec.Items {
			found[kv.Name] = kv.Value
		}
	}
	if found["req{route=a}"] != "2" || found["req{route=b}"] != "5" {
		t.Fatalf("snapshot missing labeled series: %v", found)
	}
}

// TestHistogramBuckets checks the raw bucket dump: bounds strictly
// increasing, final bound +Inf, counts summing to Count(), and each
// sample inside (prev, bound].
func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	vals := []float64{0.001, 0.5, 1, 3, 250, 4096, 1e7}
	for _, v := range vals {
		h.Observe(v)
	}
	bs := h.Buckets()
	if !math.IsInf(bs[len(bs)-1].UpperBound, 1) {
		t.Fatalf("final bound = %v, want +Inf", bs[len(bs)-1].UpperBound)
	}
	var total uint64
	prev := math.Inf(-1)
	for i, b := range bs {
		if b.UpperBound <= prev {
			t.Fatalf("bounds not increasing at %d: %v <= %v", i, b.UpperBound, prev)
		}
		prev = b.UpperBound
		total += b.Count
	}
	if total != h.Count() {
		t.Fatalf("bucket counts sum to %d, want %d", total, h.Count())
	}
	// Every observed sample must sit at or below the bound of its bucket.
	for _, v := range vals {
		idx := bucketOf(v)
		if v > bs[idx].UpperBound {
			t.Errorf("sample %v above its bucket bound %v", v, bs[idx].UpperBound)
		}
	}
}

// TestPromName pins the sanitization rules handlers rely on.
func TestPromName(t *testing.T) {
	cases := []struct{ in, suffix, want string }{
		{"wire.pool_hits", "_total", "partsvc_wire_pool_hits_total"},
		{"api.requests_total", "_total", "partsvc_api_requests_total"},
		{"rpc.client.send", "", "partsvc_rpc_client_send"},
		{"weird-name!", "", "partsvc_weird_name_"},
	}
	for _, c := range cases {
		if got := promName(c.in, c.suffix); got != c.want {
			t.Errorf("promName(%q,%q) = %q, want %q", c.in, c.suffix, got, c.want)
		}
	}
	if s := promFloat(math.Inf(1)); s != "+Inf" {
		t.Errorf("promFloat(+Inf) = %q", s)
	}
	if s := promFloat(1.5); s != strconv.FormatFloat(1.5, 'g', -1, 64) {
		t.Errorf("promFloat(1.5) = %q", s)
	}
}
