package stats

import (
	"fmt"
	"math"
)

// TailEstimator selects how a component estimates tail-latency quantiles.
type TailEstimator int

// Tail estimators.
const (
	// EstimatorDefault lets each consumer pick its own default: the fleet
	// engine resolves it to EstimatorHistogram (mergeable, O(1) memory in
	// the request count), the standalone queueing experiments resolve it
	// to EstimatorExact (full fidelity for the paper's figures).
	EstimatorDefault TailEstimator = iota
	// EstimatorExact retains every observation in a Sample and sorts per
	// quantile query: exact, but memory and time scale with the number of
	// observations.
	EstimatorExact
	// EstimatorHistogram records observations into a fixed log-bucketed
	// Histogram: quantiles carry a bounded relative error (the bucket
	// resolution) but Add is O(1), memory is O(buckets), and histograms
	// from different shards merge associatively.
	EstimatorHistogram
)

// String names the estimator.
func (e TailEstimator) String() string {
	switch e {
	case EstimatorDefault:
		return "default"
	case EstimatorExact:
		return "exact"
	case EstimatorHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("TailEstimator(%d)", int(e))
	}
}

// Validate rejects unknown estimator values.
func (e TailEstimator) Validate() error {
	switch e {
	case EstimatorDefault, EstimatorExact, EstimatorHistogram:
		return nil
	}
	return fmt.Errorf("stats: unknown tail estimator %d", int(e))
}

// ParseTailEstimator resolves an estimator name (exact|histogram).
func ParseTailEstimator(s string) (TailEstimator, error) {
	switch s {
	case "exact":
		return EstimatorExact, nil
	case "histogram":
		return EstimatorHistogram, nil
	case "", "default":
		return EstimatorDefault, nil
	}
	return 0, fmt.Errorf("stats: unknown tail estimator %q (exact|histogram)", s)
}

// Default geometry for latency histograms (milliseconds): 1µs..60s with 16
// log-linear sub-buckets per octave — worst-case relative bucket width
// 1/16 = 6.25% (at the bottom of each octave; 4.4% averaged over an
// octave), ~3.3KB per histogram.
const (
	tailHistMinMs     = 1e-3
	tailHistMaxMs     = 6e4
	tailHistPerOctave = 16
)

// Histogram is a fixed log-bucketed (HDR-style) latency histogram: each
// power-of-two octave between a minimum and maximum trackable value is
// split into a fixed number of linear sub-buckets, so Add is O(1) with no
// allocation, Quantile is O(buckets), and two histograms with the same
// geometry merge by adding bucket counts.
//
// Invariants that make it the fleet's scalable tail estimator:
//
//   - Counts are integers, so merging is associative and commutative:
//     sharding observations across any number of workers and merging at a
//     barrier yields bit-identical counts regardless of the sharding.
//   - The bucket boundaries are fixed by the constructor parameters alone
//     (never adapted to data), so histograms built independently are always
//     mergeable and quantiles are reproducible.
//   - Quantile returns the midpoint of the bucket containing the requested
//     rank: its relative error is bounded by the bucket resolution,
//     1/perOctave of the value (half that in expectation).
//
// Values below the minimum (including zero — an idle window's tail) land in
// a dedicated underflow bucket whose representative value is 0; values at
// or above the maximum clamp into the top bucket. The zero Histogram is not
// usable; construct with NewLogHistogram or NewTailHistogram.
type Histogram struct {
	min       float64
	max       float64
	perOctave int
	counts    []uint64
	total     uint64
}

// NewLogHistogram builds a histogram covering [min, max) with perOctave
// linear sub-buckets per power-of-two octave. Histograms are mergeable iff
// they share the same (min, max, perOctave) geometry.
func NewLogHistogram(min, max float64, perOctave int) *Histogram {
	if perOctave <= 0 || min <= 0 || max <= min {
		panic("stats: invalid log histogram shape")
	}
	octaves := int(math.Ceil(math.Log2(max / min)))
	if octaves < 1 {
		octaves = 1
	}
	return &Histogram{
		min: min, max: max, perOctave: perOctave,
		counts: make([]uint64, 1+octaves*perOctave),
	}
}

// NewTailHistogram builds a Histogram with the default latency geometry
// (1µs to 60s in milliseconds, 16 sub-buckets per octave) shared by the
// queueing simulator and the fleet engine, so any two tail histograms in
// the system are mergeable.
func NewTailHistogram() *Histogram {
	return NewLogHistogram(tailHistMinMs, tailHistMaxMs, tailHistPerOctave)
}

// bucket maps x to its bucket index. Index 0 is the underflow bucket
// (x below the minimum, including zero, negatives and NaN).
func (h *Histogram) bucket(x float64) int {
	if !(x >= h.min) { // NaN-safe: NaN compares false
		return 0
	}
	if x >= h.max {
		return len(h.counts) - 1
	}
	// x/min = f × 2^e with f in [0.5, 1): octave e-1, linear sub-bucket
	// from the mantissa — no Log call on the hot path. The ratio is ≥ 1
	// (x ≥ min) and < max/min, so it is always a positive normal float and
	// Frexp reduces to reading the exponent field and forcing it to 2^-1 —
	// the same (f, e) Frexp returns, without its subnormal normalisation.
	b := math.Float64bits(x / h.min)
	e := int(b>>52) - 1022
	f := math.Float64frombits(b&(1<<52-1) | 0x3fe<<52)
	sub := int((f*2 - 1) * float64(h.perOctave))
	if sub >= h.perOctave { // guard the f→1 rounding edge
		sub = h.perOctave - 1
	}
	i := 1 + (e-1)*h.perOctave + sub
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	return i
}

// value returns the representative value of bucket i: 0 for the underflow
// bucket, otherwise the arithmetic midpoint of the bucket's bounds.
func (h *Histogram) value(i int) float64 {
	if i == 0 {
		return 0
	}
	o := (i - 1) / h.perOctave
	sub := (i - 1) % h.perOctave
	base := h.min * math.Ldexp(1, o) // min × 2^o
	width := base / float64(h.perOctave)
	return base + width*(float64(sub)+0.5)
}

// Round returns the representative value of the bucket x falls in. Bucket
// indices never decrease as x grows, so Quantile(q) equals Round of the
// ⌊q(n−1)⌋-th smallest recorded value: a caller that tracks that order
// statistic can read the histogram's quantile without filling one.
func (h *Histogram) Round(x float64) float64 { return h.value(h.bucket(x)) }

// Add records x. O(1), allocation-free.
func (h *Histogram) Add(x float64) {
	h.counts[h.bucket(x)]++
	h.total++
}

// AddN records x n times in one bucket update — the bulk-fill path for
// analytic callers depositing a closed-form distribution's probability
// mass as integer counts (internal/queueing.Analytic), so an analytically
// filled histogram merges and quantiles exactly like a sampled one.
func (h *Histogram) AddN(x float64, n uint64) {
	if n == 0 {
		return
	}
	h.counts[h.bucket(x)] += n
	h.total += n
}

// NumBuckets returns the number of buckets, including the underflow
// bucket at index 0 and the clamping top bucket.
func (h *Histogram) NumBuckets() int { return len(h.counts) }

// UpperBound returns the exclusive upper edge of bucket i: the minimum
// trackable value for the underflow bucket 0, +Inf for the top bucket
// (which absorbs everything at or above the maximum). Together with the
// midpoint convention of Quantile, the edges let analytic callers evaluate
// a CDF on exactly the grid a sampled histogram would discretise to.
func (h *Histogram) UpperBound(i int) float64 {
	if i <= 0 {
		return h.min
	}
	if i >= len(h.counts)-1 {
		return math.Inf(1)
	}
	o := (i - 1) / h.perOctave
	sub := (i - 1) % h.perOctave
	base := h.min * math.Ldexp(1, o) // min × 2^o
	width := base / float64(h.perOctave)
	return base + width*float64(sub+1)
}

// N returns the number of recorded observations.
func (h *Histogram) N() int { return int(h.total) }

// Reset discards all counts, keeping the bucket array for reuse.
func (h *Histogram) Reset() {
	clear(h.counts)
	h.total = 0
}

// Merge adds o's counts into h. Both histograms must share the same
// geometry (same constructor parameters); Merge panics otherwise, since a
// cross-geometry merge would silently misattribute every observation.
func (h *Histogram) Merge(o *Histogram) {
	if h.min != o.min || h.max != o.max || h.perOctave != o.perOctave || len(h.counts) != len(o.counts) {
		panic("stats: merging histograms of different geometry")
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
}

// Quantile returns the q-quantile (0 <= q <= 1) as the representative value
// of the bucket containing that rank: within one bucket width of the exact
// sample quantile, i.e. a relative error bounded by 1/perOctave. Returns 0
// for an empty histogram. O(buckets).
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// The floor of Sample.Quantile's rank q×(n−1): unlike Sample.Quantile
	// this never interpolates toward rank ⌈q(n−1)⌉, so in the upper tail of
	// a small sample it reads low (ROADMAP item 1).
	rank := uint64(q * float64(h.total-1))
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum > rank {
			return h.value(i)
		}
	}
	return h.value(len(h.counts) - 1)
}

// Max returns the representative value of the highest occupied bucket
// (0 if empty).
func (h *Histogram) Max() float64 {
	for i := len(h.counts) - 1; i >= 0; i-- {
		if h.counts[i] > 0 {
			return h.value(i)
		}
	}
	return 0
}

// Resolution is the worst-case relative half-width of a quantile estimate:
// bucket width over bucket lower bound, 1/perOctave.
func (h *Histogram) Resolution() float64 { return 1 / float64(h.perOctave) }
