package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with the same seed diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical values", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	base := New(7)
	a := base.Derive(1)
	b := base.Derive(2)
	if a.Uint64() == b.Uint64() {
		t.Fatal("derived streams with different labels collide immediately")
	}
	// Deriving must not advance the parent.
	c := New(7)
	c.Derive(1)
	d := New(7)
	if c.Uint64() != d.Uint64() {
		t.Fatal("Derive advanced the parent stream")
	}
}

func TestIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n int) bool {
		if n <= 0 {
			n = -n + 1
		}
		if n > 1<<20 {
			n %= 1 << 20
			n++
		}
		v := New(seed).Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestExpMean(t *testing.T) {
	s := New(5)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Exp(10)
	}
	mean := sum / n
	if mean < 9.8 || mean > 10.2 {
		t.Fatalf("Exp(10) mean = %v, want ~10", mean)
	}
}

func TestGeometricMeanAndFloor(t *testing.T) {
	s := New(6)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		g := s.Geometric(6)
		if g < 1 {
			t.Fatalf("Geometric returned %d < 1", g)
		}
		sum += float64(g)
	}
	mean := sum / n
	if mean < 5.5 || mean > 6.5 {
		t.Fatalf("Geometric(6) mean = %v, want ~6", mean)
	}
	if g := s.Geometric(0.5); g != 1 {
		t.Fatalf("Geometric(<1) = %d, want 1", g)
	}
}

// TestGeometricDistMatchesInlineFormula pins the folded constant to the
// per-draw formula it replaced: same variates, same stream consumption,
// including the degenerate mean <= 1 (no draw) and a mean so large that
// log(1−1/mean) rounds to 0.
func TestGeometricDistMatchesInlineFormula(t *testing.T) {
	inline := func(s *Stream, mean float64) int {
		if mean <= 1 {
			return 1
		}
		p := 1 / mean
		u := s.Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		return max(int(math.Ceil(math.Log(1-u)/math.Log(1-p))), 1)
	}
	for _, mean := range []float64{0.5, 1, 1.5, 6, 48.3, 1e17} {
		a, b := New(9), New(9)
		d := NewGeometric(mean)
		for i := 0; i < 1000; i++ {
			if got, want := d.Draw(a), inline(b, mean); got != want {
				t.Fatalf("mean %v draw %d: %d, want %d", mean, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("mean %v: stream consumption diverged", mean)
		}
	}
}

func TestLogNormalMoments(t *testing.T) {
	s := New(8)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := s.LogNormal(20, 1.0)
		if v <= 0 {
			t.Fatalf("LogNormal returned non-positive %v", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < 19 || mean > 21 {
		t.Fatalf("LogNormal(20,1) mean = %v, want ~20", mean)
	}
	if s.LogNormal(0, 1) != 0 {
		t.Fatal("LogNormal with zero mean should be 0")
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(9)
	var sum, sq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := s.Normal()
		sum += v
		sq += v * v
	}
	mean, std := sum/n, math.Sqrt(sq/n)
	if math.Abs(mean) > 0.02 {
		t.Fatalf("Normal mean = %v, want ~0", mean)
	}
	if std < 0.98 || std > 1.02 {
		t.Fatalf("Normal std = %v, want ~1", std)
	}
}

func TestZipfSkewAndRange(t *testing.T) {
	src := New(10)
	z := NewZipf(src, 100, 0.9)
	counts := make([]int, 100)
	const n = 100000
	for i := 0; i < n; i++ {
		r := z.Next()
		if r < 0 || r >= 100 {
			t.Fatalf("Zipf rank %d out of range", r)
		}
		counts[r]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("Zipf not skewed: rank0=%d rank50=%d", counts[0], counts[50])
	}
	// Uniform when theta = 0.
	z0 := NewZipf(New(11), 10, 0)
	c0 := make([]int, 10)
	for i := 0; i < n; i++ {
		c0[z0.Next()]++
	}
	for i, c := range c0 {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Fatalf("Zipf(theta=0) not uniform: bucket %d has %d", i, c)
		}
	}
}

func TestZipfPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(0) did not panic")
		}
	}()
	NewZipf(New(1), 0, 1)
}

func TestBernoulliExtremes(t *testing.T) {
	s := New(12)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestPoissonMeanSmallAndLarge(t *testing.T) {
	s := New(11)
	for _, mean := range []float64{0.5, 5, 300} {
		sum := 0.0
		n := 20000
		for i := 0; i < n; i++ {
			v := s.Poisson(mean)
			if v < 0 || v != math.Trunc(v) {
				t.Fatalf("Poisson(%v) produced non-count %v", mean, v)
			}
			sum += v
		}
		got := sum / float64(n)
		if got < mean*0.95 || got > mean*1.05 {
			t.Errorf("Poisson(%v) sample mean %v off by >5%%", mean, got)
		}
	}
	if v := s.Poisson(0); v != 0 {
		t.Errorf("Poisson(0) = %v", v)
	}
	if v := s.Poisson(-3); v != 0 {
		t.Errorf("Poisson(-3) = %v", v)
	}
}

func TestPoissonDeterminism(t *testing.T) {
	a, b := New(99), New(99)
	for i := 0; i < 200; i++ {
		if av, bv := a.Poisson(40), b.Poisson(40); av != bv {
			t.Fatalf("Poisson diverged at draw %d: %v vs %v", i, av, bv)
		}
	}
}

// moments draws n variates and returns their sample mean and CV.
func moments(t *testing.T, n int, draw func() float64) (mean, cv float64) {
	t.Helper()
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := draw()
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("draw %d returned %v", i, v)
		}
		sum += v
		sq += v * v
	}
	mean = sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance) / mean
}

func TestGammaMoments(t *testing.T) {
	for _, tc := range []struct{ mean, cv float64 }{
		{1, 0.5},  // shape 4: squeeze-rejection branch
		{20, 1.0}, // shape 1
		{5, 2.0},  // shape 0.25: boost branch
	} {
		s := New(11)
		mean, cv := moments(t, 200000, func() float64 { return s.Gamma(tc.mean, tc.cv) })
		if math.Abs(mean-tc.mean)/tc.mean > 0.03 {
			t.Errorf("Gamma(%v,%v) mean = %v", tc.mean, tc.cv, mean)
		}
		if math.Abs(cv-tc.cv)/tc.cv > 0.05 {
			t.Errorf("Gamma(%v,%v) cv = %v", tc.mean, tc.cv, cv)
		}
	}
	if v := New(1).Gamma(7, 0); v != 7 {
		t.Fatalf("Gamma with zero cv = %v, want the mean", v)
	}
	if v := New(1).Gamma(0, 1); v != 0 {
		t.Fatalf("Gamma with zero mean = %v, want 0", v)
	}
}

func TestWeibullMoments(t *testing.T) {
	// Weibull CV is a pure function of shape: cv² = Γ(1+2/k)/Γ(1+1/k)² − 1.
	wcv := func(k float64) float64 {
		g1 := math.Gamma(1 + 1/k)
		return math.Sqrt(math.Gamma(1+2/k)/(g1*g1) - 1)
	}
	for _, tc := range []struct{ mean, shape float64 }{
		{10, 0.5}, // heavy-tailed
		{3, 1.0},  // exponential
		{100, 2.5},
	} {
		s := New(12)
		mean, cv := moments(t, 200000, func() float64 { return s.Weibull(tc.mean, tc.shape) })
		if math.Abs(mean-tc.mean)/tc.mean > 0.04 {
			t.Errorf("Weibull(%v,%v) mean = %v", tc.mean, tc.shape, mean)
		}
		want := wcv(tc.shape)
		if math.Abs(cv-want)/want > 0.06 {
			t.Errorf("Weibull(%v,%v) cv = %v, want %v", tc.mean, tc.shape, cv, want)
		}
	}
	if v := New(1).Weibull(0, 1); v != 0 {
		t.Fatalf("Weibull with zero mean = %v, want 0", v)
	}
	if v := New(1).Weibull(1, 0); v != 0 {
		t.Fatalf("Weibull with zero shape = %v, want 0", v)
	}
}

func TestGammaWeibullDeterminism(t *testing.T) {
	a, b := New(99), New(99)
	for i := 0; i < 1000; i++ {
		if a.Gamma(2, 1.5) != b.Gamma(2, 1.5) {
			t.Fatalf("Gamma diverged at step %d", i)
		}
	}
	a, b = New(98), New(98)
	for i := 0; i < 1000; i++ {
		if a.Weibull(2, 0.7) != b.Weibull(2, 0.7) {
			t.Fatalf("Weibull diverged at step %d", i)
		}
	}
}
