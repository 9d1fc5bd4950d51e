// Package rng provides small, fast, deterministic pseudo-random number
// streams for the simulator.
//
// Every stochastic component of the simulation (trace generation, arrival
// processes, sampling offsets) draws from its own Stream seeded from a
// user-visible experiment seed, so that repeated runs are bit-identical and
// independent components never perturb one another's sequences.
package rng

import "math"

// Stream is a splitmix64 generator. The zero value is a valid stream seeded
// with zero; use New to derive well-separated streams.
type Stream struct {
	state uint64
}

// New returns a stream seeded from seed. Distinct seeds give statistically
// independent sequences.
func New(seed uint64) *Stream {
	return &Stream{state: seed}
}

// Derive returns a new stream whose sequence is independent of s for any
// pair (s, label). It does not advance s.
func (s *Stream) Derive(label uint64) *Stream {
	return New(mix(s.state ^ mix(label^0x9e3779b97f4a7c15)))
}

func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool {
	return s.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
func (s *Stream) Exp(mean float64) float64 {
	u := s.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(1-u)
}

// FillArrivals fills gaps[i] with an Exp(mean) draw and heads[i] with a
// Bernoulli(p) draw, interleaved pairwise — exactly the draw sequence of a
// sequential caller alternating Exp and Bernoulli per arrival, so batched
// consumers (the queueing simulator's arrival loop) stay bit-identical to
// the unbatched loop. gaps and heads must have the same length.
func (s *Stream) FillArrivals(gaps []float64, heads []bool, mean, p float64) {
	for i := range gaps {
		u := s.Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		gaps[i] = -mean * math.Log(1-u)
		heads[i] = s.Float64() < p
	}
}

// Geometric returns a geometrically distributed integer >= 1 with the given
// mean (mean must be >= 1).
func (s *Stream) Geometric(mean float64) int {
	return NewGeometric(mean).Draw(s)
}

// GeometricDist is a geometric distribution over the integers >= 1 with its
// constant log(1−1/mean) computed once, for hot loops that draw many times
// at one mean. Draws are bit-identical to Stream.Geometric(mean).
type GeometricDist struct {
	one  bool    // mean <= 1: every draw is 1 and consumes no randomness
	logQ float64 // log(1 − p), p = 1/mean
}

// NewGeometric builds the distribution of Stream.Geometric(mean).
func NewGeometric(mean float64) GeometricDist {
	if mean <= 1 {
		return GeometricDist{one: true}
	}
	p := 1 / mean
	return GeometricDist{logQ: math.Log(1 - p)}
}

// Draw returns one variate from s.
func (d GeometricDist) Draw(s *Stream) int {
	if d.one {
		return 1
	}
	u := s.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	n := int(math.Ceil(math.Log(1-u) / d.logQ))
	if n < 1 {
		n = 1
	}
	return n
}

// LogNormal returns a log-normally distributed value parameterised by the
// mean and coefficient of variation of the resulting distribution.
func (s *Stream) LogNormal(mean, cv float64) float64 {
	if mean <= 0 {
		return 0
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return math.Exp(mu + math.Sqrt(sigma2)*s.Normal())
}

// Gamma returns a gamma-distributed value parameterised by the mean and
// coefficient of variation of the resulting distribution (shape 1/cv²,
// scale mean·cv²). A zero cv degenerates to the mean. Gamma multipliers
// with mean 1 are the classic overdispersion mixture for arrival counts:
// Poisson(mean·Gamma(1, cv)) has the burstiness a plain Poisson misses.
func (s *Stream) Gamma(mean, cv float64) float64 {
	if mean <= 0 {
		return 0
	}
	if cv <= 0 {
		return mean
	}
	k := 1 / (cv * cv)
	return mean * cv * cv * s.gammaShape(k)
}

// gammaShape draws a standard gamma variate with shape k (scale 1) using
// Marsaglia-Tsang squeeze rejection; shapes below 1 are boosted through
// G(k) = G(k+1)·U^(1/k).
func (s *Stream) gammaShape(k float64) float64 {
	if k < 1 {
		u := s.Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		return s.gammaShape(k+1) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := s.Normal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := s.Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		if math.Log(u) < 0.5*x*x+d-d*v+d*math.Log(v) {
			return d * v
		}
	}
}

// Weibull returns a Weibull-distributed value with the given mean and
// shape k (scale mean/Γ(1+1/k)): k = 1 is exponential, k < 1 heavy-tailed
// and bursty, k > 1 more regular than Poisson. Inverse-CDF sampling, one
// uniform draw per variate.
func (s *Stream) Weibull(mean, shape float64) float64 {
	if mean <= 0 || shape <= 0 {
		return 0
	}
	scale := mean / math.Gamma(1+1/shape)
	u := s.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return scale * math.Pow(-math.Log(1-u), 1/shape)
}

// Poisson returns a Poisson-distributed count with the given mean. Small
// means use Knuth's product method; large means fall back to a (rounded,
// clamped) normal approximation, which is accurate to well under a percent
// for the window populations the load generator draws.
func (s *Stream) Poisson(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		limit := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= s.Float64()
			if p < limit {
				return float64(k)
			}
			k++
		}
	}
	n := math.Round(mean + math.Sqrt(mean)*s.Normal())
	if n < 0 {
		n = 0
	}
	return n
}

// Normal returns a standard normal variate (Box-Muller).
func (s *Stream) Normal() float64 {
	u1 := s.Float64()
	if u1 <= 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Zipf returns a Zipf-distributed integer in [0, n) with exponent theta in
// (0, 1). It uses the rejection-inversion-free bounded harmonic method,
// which is adequate for the modest n used in the workload models.
type Zipf struct {
	cdf []float64
	src *Stream
}

// NewZipf builds a Zipf sampler over n items with the given skew theta
// (larger theta = more skew; theta of 0 is uniform).
func NewZipf(src *Stream, n int, theta float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, src: src}
}

// Next returns the next Zipf-distributed rank in [0, len).
func (z *Zipf) Next() int {
	u := z.src.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
