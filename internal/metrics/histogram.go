package metrics

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-memory, concurrency-safe latency histogram with
// logarithmic buckets: 8 sub-buckets per power of two over 2^-20 ..
// 2^22 milliseconds, so any quantile is exact to within one bucket's
// relative width (2^(1/8)-1 ≈ 9%). It never grows with the sample
// count, and Observe is lock-free, so concurrent paths (per-RPC-method
// latencies, transport queue waits) record into one directly. The zero
// value is ready to use. Histograms with the same bucket layout (all of
// them) merge losslessly.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomicFloat
	min    atomicFloat // valid only when count > 0
	max    atomicFloat
}

const (
	histMinExp    = -20 // values <= 2^-20 ms land in bucket 0
	histMaxExp    = 22  // values >= 2^22 ms land in the top bucket
	histSubOctave = 8   // sub-buckets per power of two
	histBuckets   = (histMaxExp-histMinExp)*histSubOctave + 2
)

// bucketOf maps a sample to its bucket index.
func bucketOf(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	idx := int(math.Floor((math.Log2(v)-histMinExp)*histSubOctave)) + 1
	if idx < 0 {
		return 0
	}
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketValue returns the representative value of a bucket: the
// geometric midpoint of its bounds (its lower bound for the underflow
// and overflow buckets).
func bucketValue(idx int) float64 {
	if idx <= 0 {
		return 0
	}
	if idx >= histBuckets-1 {
		return math.Exp2(histMaxExp)
	}
	lo := float64(idx-1)/histSubOctave + histMinExp
	hi := float64(idx)/histSubOctave + histMinExp
	return math.Exp2((lo + hi) / 2)
}

// Observe records one sample (milliseconds by convention). Safe for
// concurrent use.
func (h *Histogram) Observe(v float64) {
	h.counts[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.add(v)
	h.min.storeMin(v)
	h.max.storeMax(v)
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// Mean returns the arithmetic mean (0 for no samples).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.sum.load() / float64(n)
}

// Min and Max return the exact extreme samples (0 for no samples).
func (h *Histogram) Min() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.min.load()
}

// Max returns the largest sample (0 for no samples).
func (h *Histogram) Max() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.max.load()
}

// Quantile returns the value at quantile q (0 <= q <= 1) to within one
// bucket's relative error; 0 for no samples. Concurrent Observes may
// shift the answer by the in-flight samples, never corrupt it.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i := 0; i < histBuckets; i++ {
		seen += h.counts[i].Load()
		if seen >= rank {
			v := bucketValue(i)
			// Clamp to the observed extremes: the top and bottom
			// occupied buckets are wider than the data they hold.
			if mx := h.Max(); v > mx {
				v = mx
			}
			if mn := h.Min(); v < mn {
				v = mn
			}
			return v
		}
	}
	return h.Max()
}

// BucketCount is one histogram bucket in exposition form: the
// inclusive upper bound of the bucket and the number of samples that
// landed in it (non-cumulative).
type BucketCount struct {
	UpperBound float64 // +Inf for the overflow bucket
	Count      uint64
}

// Buckets returns every bucket's upper bound and sample count, low to
// high; the final bound is +Inf. Counts are non-cumulative — renderers
// producing Prometheus-style cumulative buckets sum as they go.
// Concurrent Observes may be torn across buckets (the per-bucket adds
// are independent atomics), never corrupted.
func (h *Histogram) Buckets() []BucketCount {
	out := make([]BucketCount, histBuckets)
	for i := 0; i < histBuckets; i++ {
		ub := math.Inf(1)
		if i < histBuckets-1 {
			ub = math.Exp2(float64(i)/histSubOctave + histMinExp)
		}
		out[i] = BucketCount{UpperBound: ub, Count: h.counts[i].Load()}
	}
	return out
}

// atomicFloat is a float64 updated with CAS loops (sum, min, max
// accumulators shared across goroutines).
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) load() float64 { return math.Float64frombits(a.bits.Load()) }

func (a *atomicFloat) add(v float64) {
	for {
		old := a.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if a.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// storeMin lowers the value to v if v is smaller. The zero bit pattern
// marks "no sample yet"; an exact +0.0 sample is nudged to the
// smallest subnormal so it cannot be mistaken for that sentinel (the
// distortion is far below bucket resolution).
func (a *atomicFloat) storeMin(v float64) {
	if v == 0 {
		v = math.SmallestNonzeroFloat64
	}
	for {
		old := a.bits.Load()
		if old != 0 && math.Float64frombits(old) <= v {
			return
		}
		if a.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// storeMax raises the value to v if v is larger (same sentinel rule as
// storeMin).
func (a *atomicFloat) storeMax(v float64) {
	if v == 0 {
		v = math.SmallestNonzeroFloat64
	}
	for {
		old := a.bits.Load()
		if old != 0 && math.Float64frombits(old) >= v {
			return
		}
		if a.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
