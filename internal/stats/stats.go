// Package stats provides the small statistical toolkit used throughout the
// simulator: running moments (Running), exact percentiles over bounded
// samples (Sample), mergeable log-bucketed tail-latency histograms
// (Histogram) behind the TailEstimator selector, fixed-width census bins
// (LinearHistogram) and the five-number "violin" summaries the paper's
// figures report.
//
// Invariants: every estimator here is deterministic — identical inputs in
// identical order produce bit-identical outputs — and the log-bucketed
// Histogram is additionally order- and sharding-independent, because its
// integer bucket counts merge associatively and commutatively. That is
// what lets the fleet engine shard observations across any number of
// workers and still reproduce results bit-identically.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Running accumulates streaming mean/variance/min/max without retaining
// samples (Welford's algorithm). The zero value is ready to use.
type Running struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add incorporates x.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of samples added.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean (0 for no samples).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the sample variance (0 for fewer than two samples).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min returns the smallest sample (0 for no samples).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest sample (0 for no samples).
func (r *Running) Max() float64 { return r.max }

// Sample retains every observation for exact quantile computation. Use for
// the experiment-scale data sets (at most a few million points).
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample returns a Sample with capacity hint n.
func NewSample(n int) *Sample {
	return &Sample{xs: make([]float64, 0, n)}
}

// Add appends x.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Reset discards all observations while keeping the underlying buffer, so
// hot loops can reuse one Sample across windows without reallocating.
func (s *Sample) Reset() {
	s.xs = s.xs[:0]
	s.sorted = false
}

// Mean returns the sample mean.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear interpolation
// between closest ranks. Returns 0 for an empty sample.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	return TopQuantile(s.xs, len(s.xs), q)
}

// TopSlots is how many of the largest of n observations the q-quantile
// (0 <= q <= 1) reads: n − ⌊q(n−1)⌋, the closest lower rank and everything
// above it. A top-k tracker of this many slots is enough for TopQuantile.
func TopSlots(n int, q float64) int {
	return n - int(math.Floor(q*float64(n-1)))
}

// TopQuantile returns Sample.Quantile's q-quantile (0 <= q <= 1) of n
// observations, given only the largest len(top) of them in ascending order,
// where len(top) >= TopSlots(n, q): linear interpolation between the
// closest ranks ⌊q(n−1)⌋ and ⌈q(n−1)⌉. A fully sorted sample is the case
// len(top) == n.
func TopQuantile(top []float64, n int, q float64) float64 {
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	base := n - len(top) // rank of top[0]
	if lo == hi {
		return top[lo-base]
	}
	frac := pos - float64(lo)
	return top[lo-base]*(1-frac) + top[hi-base]*frac
}

// Max returns the largest observation (0 if empty).
func (s *Sample) Max() float64 { return s.Quantile(1) }

// Min returns the smallest observation (0 if empty).
func (s *Sample) Min() float64 { return s.Quantile(0) }

// Violin is the distribution summary the paper draws as violin plots:
// min, lower quartile, median, upper quartile, max, and mean.
type Violin struct {
	Min, Q1, Median, Q3, Max, Mean float64
	N                              int
}

// Summarize computes a Violin over xs. An empty input yields a zero Violin.
func Summarize(xs []float64) Violin {
	if len(xs) == 0 {
		return Violin{}
	}
	s := Sample{xs: append([]float64(nil), xs...)}
	return Violin{
		Min:    s.Quantile(0),
		Q1:     s.Quantile(0.25),
		Median: s.Quantile(0.5),
		Q3:     s.Quantile(0.75),
		Max:    s.Quantile(1),
		Mean:   s.Mean(),
		N:      s.N(),
	}
}

// String renders the summary in a compact fixed-point percent-friendly form.
func (v Violin) String() string {
	return fmt.Sprintf("min=%.3f q1=%.3f med=%.3f q3=%.3f max=%.3f mean=%.3f n=%d",
		v.Min, v.Q1, v.Median, v.Q3, v.Max, v.Mean, v.N)
}

// LinearHistogram counts observations in fixed-width bins over [lo, hi);
// values outside the range clamp to the first/last bin. Used for the MLP
// census (Fig. 7). For tail-latency quantiles over wide dynamic ranges use
// the log-bucketed Histogram instead.
type LinearHistogram struct {
	lo, width float64
	counts    []int64
	total     int64
}

// NewLinearHistogram creates a histogram with n bins spanning [lo, hi).
func NewLinearHistogram(lo, hi float64, n int) *LinearHistogram {
	if n <= 0 || hi <= lo {
		panic("stats: invalid histogram shape")
	}
	return &LinearHistogram{lo: lo, width: (hi - lo) / float64(n), counts: make([]int64, n)}
}

// Add increments the bin containing x.
func (h *LinearHistogram) Add(x float64) { h.AddN(x, 1) }

// AddN increments the bin containing x by w.
func (h *LinearHistogram) AddN(x float64, w int64) {
	i := int((x - h.lo) / h.width)
	if i < 0 {
		i = 0
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i] += w
	h.total += w
}

// Fraction returns the fraction of mass in bin i.
func (h *LinearHistogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[i]) / float64(h.total)
}

// TailFraction returns the fraction of mass in bins >= i (cumulative from
// above), matching the ">= k in-flight requests" presentation of Fig. 7.
func (h *LinearHistogram) TailFraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	if i < 0 {
		i = 0
	}
	var c int64
	for j := i; j < len(h.counts); j++ {
		c += h.counts[j]
	}
	return float64(c) / float64(h.total)
}

// Bins returns the number of bins.
func (h *LinearHistogram) Bins() int { return len(h.counts) }

// Total returns the total mass added.
func (h *LinearHistogram) Total() int64 { return h.total }

// GeoMean returns the geometric mean of xs (all must be positive); it
// returns 0 for an empty slice.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs (0 if empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum of xs (0 if empty).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs (0 if empty).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Jain returns the Jain fairness index of xs: (Σx)² / (n·Σx²) — 1 when
// every value is equal and positive, approaching 1/n when one value
// dominates. Empty or all-zero inputs return 0: no allocation to be fair
// about.
func Jain(xs []float64) float64 {
	sum, sumsq := 0.0, 0.0
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	if sumsq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumsq)
}
