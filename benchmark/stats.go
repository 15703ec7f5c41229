package main

import (
	"fmt"
	"sort"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of sorted:
// the smallest sample with at least q of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.999999999) // ceil, tolerant of q*n landing a hair above an integer
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of an unsorted sample (mean of the middle two when even, so a
// median over a handful of rounds does not jump by a whole round).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLevels are the percentiles a timing may report beside its median.
var tailLevels = []float64{0.9999, 0.999, 0.99, 0.95, 0.90, 0.75}

// tailQuantile picks the highest percentile that still has at least ten
// samples beyond it (choosing-metrics §1), falling back to the median
// when even p75 has fewer.
func tailQuantile(n int) float64 {
	for _, q := range tailLevels {
		if float64(n)*(1-q) >= 10-1e-6 { // 100*(1-0.9) is 9.999999999999998
			return q
		}
	}
	return 0.5
}

// timing is one reported latency distribution.
type timing struct {
	N     int
	P50   float64
	TailQ float64
	Tail  float64
}

func summarize(samples []float64) timing {
	s := sortedCopy(samples)
	q := tailQuantile(len(s))
	return timing{N: len(s), P50: quantile(s, 0.5), TailQ: q, Tail: quantile(s, q)}
}

func (t timing) String() string {
	return fmt.Sprintf("n=%d p%g=%.4g", t.N, t.TailQ*100, t.Tail)
}
