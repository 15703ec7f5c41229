package bench

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRecorderEmpty(t *testing.T) {
	var r Recorder
	if r.Count() != 0 || r.Mean() != 0 || r.Min() != 0 || r.Max() != 0 || r.Percentile(50) != 0 {
		t.Error("empty recorder must report zeros")
	}
}

func TestRecorderStats(t *testing.T) {
	var r Recorder
	for _, v := range []float64{4, 1, 3, 2, 5} {
		r.Add(v)
	}
	if r.Count() != 5 {
		t.Errorf("count = %d", r.Count())
	}
	if r.Mean() != 3 {
		t.Errorf("mean = %v", r.Mean())
	}
	if r.Min() != 1 || r.Max() != 5 {
		t.Errorf("min/max = %v/%v", r.Min(), r.Max())
	}
	if got := r.Percentile(50); got != 3 {
		t.Errorf("p50 = %v", got)
	}
	if got := r.Percentile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := r.Percentile(100); got != 5 {
		t.Errorf("p100 = %v", got)
	}
}

func TestRecorderAddAfterSort(t *testing.T) {
	var r Recorder
	r.Add(5)
	_ = r.Min() // forces a sort
	r.Add(1)
	if r.Min() != 1 {
		t.Error("samples added after a sort must be observed")
	}
}

func TestSummaryShape(t *testing.T) {
	var r Recorder
	r.Add(2)
	s := r.Summary()
	for _, want := range []string{"mean=2.00", "p50=2.00", "n=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}

// TestQuickPercentileMonotone: percentiles never decrease in p and stay
// within [min, max].
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(vals []float64, aSeed, bSeed uint8) bool {
		if len(vals) == 0 {
			return true
		}
		var r Recorder
		for _, v := range vals {
			if math.IsNaN(v) {
				return true
			}
			r.Add(v)
		}
		a := float64(aSeed) / 255 * 100
		b := float64(bSeed) / 255 * 100
		if a > b {
			a, b = b, a
		}
		pa, pb := r.Percentile(a), r.Percentile(b)
		return pa <= pb && pa >= r.Min() && pb <= r.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickMeanWithinBounds: the mean lies within [min, max].
func TestQuickMeanWithinBounds(t *testing.T) {
	f := func(vals []float64) bool {
		var r Recorder
		for _, v := range vals {
			if math.IsNaN(v) || math.Abs(v) > 1e300 {
				return true // summation may overflow; out of scope
			}
			r.Add(v)
		}
		if r.Count() == 0 {
			return true
		}
		return r.Mean() >= r.Min()-1e-9 && r.Mean() <= r.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestRecorderMergeEquivalence is the check for the grid fan-in:
// per-worker recorders merged in order must report the same quantiles
// as one recorder fed the same samples serially.
func TestRecorderMergeEquivalence(t *testing.T) {
	whole := &Recorder{}
	shards := []*Recorder{{}, {}, {}, {}}
	for i := 0; i < 4001; i++ {
		v := float64((i * 7919) % 1000) // deterministic pseudo-shuffle
		whole.Add(v)
		shards[i%4].Add(v)
	}
	merged := &Recorder{}
	for _, s := range shards {
		merged.Merge(s)
	}
	merged.Merge(nil)         // nil shard is a no-op
	merged.Merge(&Recorder{}) // empty shard is a no-op
	if merged.Count() != whole.Count() {
		t.Fatalf("count %d != %d", merged.Count(), whole.Count())
	}
	for _, p := range []float64{50, 90, 95, 99, 100} {
		if m, w := merged.Percentile(p), whole.Percentile(p); m != w {
			t.Errorf("p%g: merged %g != whole %g", p, m, w)
		}
	}
	if merged.Mean() != whole.Mean() {
		t.Errorf("mean: merged %g != whole %g", merged.Mean(), whole.Mean())
	}
}

// Merging must also work after the recorder has sorted itself for a
// percentile read (sorted flag resets).
func TestRecorderMergeAfterSort(t *testing.T) {
	r := &Recorder{}
	r.Add(3)
	r.Add(1)
	_ = r.Percentile(50) // forces sort
	o := &Recorder{}
	o.Add(2)
	r.Merge(o)
	if got := r.Percentile(50); got != 2 {
		t.Fatalf("median after merge = %g, want 2", got)
	}
}

// Min returns the smallest sample (0 for no samples).
func (r *Recorder) Min() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	r.sort()
	return r.samples[0]
}
