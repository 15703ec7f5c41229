package bench

import (
	"fmt"
	"math"
	"sort"
)

// Recorder accumulates float64 samples (milliseconds by convention):
// the exact-quantile sample set behind each Figure 7 row. The zero
// value is ready to use. Recorder is not safe for concurrent use; a
// scenario runs on one simulator, and parallel grid workers each record
// into their own Recorder and merge afterwards.
type Recorder struct {
	samples []float64
	sorted  bool
}

// Add appends a sample.
func (r *Recorder) Add(v float64) {
	r.samples = append(r.samples, v)
	r.sorted = false
}

// Count returns the number of samples.
func (r *Recorder) Count() int { return len(r.samples) }

// Merge appends all of o's samples to r (o unchanged): the fan-in step
// of a parallel grid. Quantiles of the merge equal quantiles of a
// single Recorder fed the same samples in any order.
func (r *Recorder) Merge(o *Recorder) {
	if o == nil || len(o.samples) == 0 {
		return
	}
	r.samples = append(r.samples, o.samples...)
	r.sorted = false
}

// Mean returns the arithmetic mean (0 for no samples).
func (r *Recorder) Mean() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range r.samples {
		sum += v
	}
	return sum / float64(len(r.samples))
}

// Max returns the largest sample (0 for no samples).
func (r *Recorder) Max() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	r.sort()
	return r.samples[len(r.samples)-1]
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank; 0 for no samples.
func (r *Recorder) Percentile(p float64) float64 {
	if len(r.samples) == 0 {
		return 0
	}
	r.sort()
	if p <= 0 {
		return r.samples[0]
	}
	if p >= 100 {
		return r.samples[len(r.samples)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(r.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	return r.samples[rank]
}

func (r *Recorder) sort() {
	if !r.sorted {
		sort.Float64s(r.samples)
		r.sorted = true
	}
}

// Summary renders "mean=… p50=… p95=… max=… (n=…)".
func (r *Recorder) Summary() string {
	return fmt.Sprintf("mean=%.2f p50=%.2f p95=%.2f max=%.2f (n=%d)",
		r.Mean(), r.Percentile(50), r.Percentile(95), r.Max(), r.Count())
}
