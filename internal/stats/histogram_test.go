package stats

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"stretch/internal/rng"
)

// TestHistogramQuantileMatchesSample is the accuracy property test: across
// several distributions spanning the histogram's dynamic range, every
// quantile estimate must sit within the bucket resolution of the exact
// sample quantile.
func TestHistogramQuantileMatchesSample(t *testing.T) {
	const n = 20000
	dists := map[string]func(*rng.Stream) float64{
		"lognormal-1ms":    func(s *rng.Stream) float64 { return s.LogNormal(1, 1.5) },
		"lognormal-20ms":   func(s *rng.Stream) float64 { return s.LogNormal(20, 0.5) },
		"exponential-5ms":  func(s *rng.Stream) float64 { return s.Exp(5) },
		"uniform-0-100ms":  func(s *rng.Stream) float64 { return s.Float64() * 100 },
		"bimodal-1-1000ms": func(s *rng.Stream) float64 { return 1 + 999*float64(s.Intn(2))*s.Float64() },
	}
	quantiles := []float64{0.5, 0.9, 0.95, 0.99, 0.999}
	for name, draw := range dists {
		t.Run(name, func(t *testing.T) {
			src := rng.New(42).Derive(uint64(len(name)))
			h := NewTailHistogram()
			exact := NewSample(n)
			for i := 0; i < n; i++ {
				x := draw(src)
				h.Add(x)
				exact.Add(x)
			}
			// One bucket of slack on either side of the exact value: the
			// worst case of rank-convention skew plus bucket quantisation.
			tol := 2 * h.Resolution()
			for _, q := range quantiles {
				want := exact.Quantile(q)
				got := h.Quantile(q)
				if want <= 0 {
					t.Fatalf("degenerate exact quantile %v at q=%v", want, q)
				}
				if rel := math.Abs(got-want) / want; rel > tol {
					t.Errorf("q=%v: histogram %v vs exact %v (relative error %.3f > %.3f)",
						q, got, want, rel, tol)
				}
			}
		})
	}
}

// TestHistogramMergeEqualsSequential locks the sharding independence the
// fleet barrier relies on: splitting a stream of observations across any
// number of shard histograms and merging must reproduce the single-
// histogram counts exactly.
func TestHistogramMergeEqualsSequential(t *testing.T) {
	src := rng.New(7)
	one := NewTailHistogram()
	shards := []*Histogram{NewTailHistogram(), NewTailHistogram(), NewTailHistogram()}
	for i := 0; i < 5000; i++ {
		x := src.LogNormal(8, 1.2)
		one.Add(x)
		shards[i%len(shards)].Add(x)
	}
	merged := NewTailHistogram()
	for _, s := range shards {
		merged.Merge(s)
	}
	if !reflect.DeepEqual(one, merged) {
		t.Fatal("merged shard histograms differ from sequential accumulation")
	}
	if merged.N() != one.N() || merged.Quantile(0.99) != one.Quantile(0.99) {
		t.Fatal("merge perturbed count or quantile")
	}
}

func TestHistogramResetReuses(t *testing.T) {
	h := NewTailHistogram()
	h.Add(5)
	h.Add(50)
	if h.N() != 2 {
		t.Fatalf("N = %d", h.N())
	}
	h.Reset()
	if h.N() != 0 || h.Quantile(0.99) != 0 {
		t.Fatal("Reset left residual state")
	}
	h.Add(5)
	fresh := NewTailHistogram()
	fresh.Add(5)
	if !reflect.DeepEqual(h, fresh) {
		t.Fatal("reused histogram differs from a fresh one")
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	h := NewTailHistogram()
	if h.Quantile(0.99) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report 0")
	}
	// Zero and sub-minimum values land in the underflow bucket and report 0
	// — the exact estimator's convention for idle windows.
	h.Add(0)
	h.Add(-3)
	h.Add(math.NaN())
	if got := h.Quantile(1); got != 0 {
		t.Fatalf("underflow quantile = %v, want 0", got)
	}
	// Values at or beyond the maximum clamp into the top bucket.
	h.Reset()
	h.Add(1e9)
	h.Add(math.Inf(1))
	if got := h.Quantile(0.5); got < tailHistMaxMs/2 {
		t.Fatalf("overflow quantile = %v, want clamped near max", got)
	}
	if h.N() != 2 {
		t.Fatalf("N = %d", h.N())
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	src := rng.New(3)
	h := NewTailHistogram()
	for i := 0; i < 3000; i++ {
		h.Add(src.Exp(12))
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%v) = %v < Quantile at lower q (%v)", q, v, prev)
		}
		prev = v
	}
}

// TestHistogramQuantileIsRoundedOrderStatistic pins the invariant a top-k
// tail tracker relies on to reproduce the histogram estimator without a
// histogram: for every sample size up to 500 and the QoS quantiles in use,
// Quantile(q) is exactly Round of the ⌊q(n−1)⌋-th smallest value. Values
// span several octaves, and every tenth repeats an earlier one so ties are
// covered.
func TestHistogramQuantileIsRoundedOrderStatistic(t *testing.T) {
	src := rng.New(17)
	h := NewTailHistogram()
	var xs []float64
	for n := 1; n <= 500; n++ {
		x := src.LogNormal(8, 1.2)
		if n%10 == 0 {
			x = xs[src.Intn(len(xs))]
		}
		h.Add(x)
		xs = append(xs, x)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, q := range []float64{0.5, 0.95, 0.99, 0.999} {
			want := h.Round(sorted[int(math.Floor(q*float64(n-1)))])
			if got := h.Quantile(q); got != want {
				t.Fatalf("n=%d q=%v: Quantile %v != Round(order statistic) %v", n, q, got, want)
			}
		}
	}
}

// TestTopQuantileMatchesSample checks that the top TopSlots(n, q) values of
// a sample are enough to reproduce Sample.Quantile bit for bit.
func TestTopQuantileMatchesSample(t *testing.T) {
	src := rng.New(23)
	for n := 1; n <= 300; n++ {
		s := NewSample(n)
		for i := 0; i < n; i++ {
			s.Add(src.Exp(10))
		}
		for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 0.999} {
			want := s.Quantile(q) // sorts s.xs in place
			top := s.xs[n-TopSlots(n, q):]
			if got := TopQuantile(top, n, q); got != want {
				t.Fatalf("n=%d q=%v: TopQuantile over %d slots = %v, Sample.Quantile = %v",
					n, q, len(top), got, want)
			}
		}
	}
}

func TestHistogramMergePanicsOnGeometryMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("cross-geometry merge did not panic")
		}
	}()
	NewTailHistogram().Merge(NewLogHistogram(1, 100, 8))
}

func TestLogHistogramPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLogHistogram with max<=min did not panic")
		}
	}()
	NewLogHistogram(5, 5, 4)
}

// BenchmarkHistogramAdd measures the O(1) hot-path record.
func BenchmarkHistogramAdd(b *testing.B) {
	h := NewTailHistogram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(float64(i%1000) + 0.5)
	}
}

// BenchmarkHistogramQuantile measures the O(buckets) query.
func BenchmarkHistogramQuantile(b *testing.B) {
	h := NewTailHistogram()
	src := rng.New(1)
	for i := 0; i < 4096; i++ {
		h.Add(src.LogNormal(10, 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Quantile(0.99)
	}
}

// BenchmarkSampleQuantile is the exact-estimator counterpart: append and
// sort the same population per query cycle.
func BenchmarkSampleQuantile(b *testing.B) {
	src := rng.New(1)
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = src.LogNormal(10, 1)
	}
	s := NewSample(len(xs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		for _, x := range xs {
			s.Add(x)
		}
		s.Quantile(0.99)
	}
}
