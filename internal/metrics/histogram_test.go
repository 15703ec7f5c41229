package metrics

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// relErr is the histogram's worst-case relative quantile error: eight
// sub-buckets per octave bound values within a factor of 2^(1/8).
const relErr = 0.0905

// oracle computes the exact quantile from a sorted copy of samples.
func oracle(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := int(q * float64(len(s)-1))
	return s[idx]
}

func checkQuantiles(t *testing.T, h *Histogram, samples []float64) {
	t.Helper()
	for _, q := range []float64{0.50, 0.90, 0.99} {
		want := oracle(samples, q)
		got := h.Quantile(q)
		if want == 0 {
			if got != 0 {
				t.Errorf("q%.2f: got %g, want 0", q, got)
			}
			continue
		}
		if rel := math.Abs(got-want) / want; rel > relErr {
			t.Errorf("q%.2f: got %g, oracle %g (rel err %.3f > %.3f)", q, got, want, rel, relErr)
		}
	}
	if got, want := h.Max(), oracle(samples, 1); got != want {
		t.Errorf("Max: got %g, want exact %g", got, want)
	}
}

func TestHistogramQuantilesVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dists := map[string]func() float64{
		"uniform":   func() float64 { return rng.Float64() * 100 },
		"exp":       func() float64 { return rng.ExpFloat64() * 5 },
		"lognormal": func() float64 { return math.Exp(rng.NormFloat64()) },
		"tiny":      func() float64 { return rng.Float64() * 1e-4 },
	}
	for name, draw := range dists {
		t.Run(name, func(t *testing.T) {
			h := &Histogram{}
			samples := make([]float64, 5000)
			for i := range samples {
				samples[i] = draw()
				h.Observe(samples[i])
			}
			if h.Count() != 5000 {
				t.Fatalf("Count = %d, want 5000", h.Count())
			}
			checkQuantiles(t, h, samples)
		})
	}
}

func TestHistogramZeroAndExtremes(t *testing.T) {
	h := &Histogram{}
	h.Observe(0)
	h.Observe(-5) // clamped into the bottom bucket
	h.Observe(1e9)
	if h.Count() != 3 {
		t.Fatalf("Count = %d, want 3", h.Count())
	}
	if h.Min() > 1e-6 {
		t.Errorf("Min = %g, want ~0", h.Min())
	}
	if h.Max() != 1e9 {
		t.Errorf("Max = %g, want 1e9", h.Max())
	}
	// Quantiles stay within observed range even for out-of-range buckets.
	if q := h.Quantile(0.99); q > h.Max() || q < h.Min() {
		t.Errorf("q99 = %g outside [%g, %g]", q, h.Min(), h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := &Histogram{}
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Errorf("empty histogram must read all-zero: count=%d mean=%g q50=%g min=%g max=%g",
			h.Count(), h.Mean(), h.Quantile(0.5), h.Min(), h.Max())
	}
}

// TestHistogramConcurrent drives Observe from many goroutines; run
// under -race this checks the atomic paths, and the totals must be
// exact regardless.
func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(rng.Float64() * 50)
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("Count = %d, want %d", h.Count(), workers*per)
	}
	if h.Min() < 0 || h.Max() > 50 {
		t.Fatalf("min/max %g/%g outside [0, 50]", h.Min(), h.Max())
	}

	// A deterministic stream from every goroutine: the extremes are
	// exact and the median lands where one goroutine alone puts it.
	u := &Histogram{}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				u.Observe(float64(i % 100))
			}
		}()
	}
	wg.Wait()
	if u.Count() != workers*per {
		t.Fatalf("Count = %d, want %d", u.Count(), workers*per)
	}
	// An exact 0 sample reads back as the smallest subnormal (the "no
	// sample" sentinel nudge), so bound it instead of comparing exactly.
	if min, max := u.Min(), u.Max(); min > 1e-300 || max != 99 {
		t.Fatalf("min=%v max=%v, want ~0 and 99", min, max)
	}
	if p50 := u.Quantile(0.5); p50 < 30 || p50 > 70 {
		t.Fatalf("p50 = %v for uniform 0..99, want near 50", p50)
	}
}
