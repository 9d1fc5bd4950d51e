// Package queueing implements the request-level discrete-event simulator
// behind the paper's §II characterisation: a latency-sensitive service is a
// pool of worker threads draining an open-loop, bursty arrival process.
// Queueing delay — not processing time — dominates the tail at high load,
// which is what creates the latency-vs-load knee of Fig. 1 and the slack
// of Fig. 2.
//
// Core performance couples in through a single perf factor: a service
// running at fraction f of full single-thread performance has its service
// times stretched by 1/f (§II's Elfen-style fine-grain interleaving, or
// SMT contention, or a Stretch partition choice). Factors above 1 are
// legal up to MaxPerfFactor: a calibrated Q-mode cell widens the LS
// thread's window past the equal-partitioning baseline the service times
// are normalised to, genuinely shortening them.
//
// Invariants: a simulation is a pure function of (Config, rate, nRequests,
// perfFactor, seed) — bit-identical on every run, with Simulator state
// never leaking between calls. Config.Estimator selects the latency
// quantile estimator: exact (stats.Sample's interpolated quantile) or the
// value the mergeable log-bucketed histogram reports, whose error is
// bounded by the bucket resolution (stats.Histogram); the choice never
// perturbs the simulated event sequence, only how its measurements are
// summarised.
//
// Contract with the fleet: the fleet engine, the counterfactual evaluator,
// PeakLoad and the slack search read only QoSMs (and MeetsQoS, which
// follows from it), so they call Simulator.Tail, which returns a value
// bit-identical to Simulate(...).QoSMs under both estimators. Tail and
// Simulate share one event loop; Tail only skips the queue depth, mean,
// P95 and P99 and keeps the few largest latencies the QoS quantile reads.
package queueing

import (
	"fmt"
	"math"
	"sort"

	"stretch/internal/rng"
	"stretch/internal/stats"
)

// MaxPerfFactor bounds the perf factor a simulation accepts. Sub-unity
// factors model contention and B-mode slowdowns; factors modestly above 1
// model Q-mode speedups relative to the equal-partitioning baseline.
// Anything larger is a calibration bug, not a plausible core.
const MaxPerfFactor = 4

// Config describes a service's request-level behaviour.
type Config struct {
	// Workers is the number of concurrent request-serving threads.
	Workers int
	// MeanServiceMs and ServiceCV shape the log-normal service time at
	// full single-thread performance.
	MeanServiceMs float64
	ServiceCV     float64
	// BurstProb is the probability an arrival is a burst head; a burst
	// head brings BurstLen-1 additional simultaneous requests. Fixed
	// burst sizes keep the idle-load tail finite while still letting
	// burst drain time stretch with background utilisation — which is
	// what makes the p99 knee appear near peak load (Fig. 1).
	BurstProb float64
	BurstLen  float64
	// QoSQuantile and QoSTargetMs define the QoS constraint.
	QoSQuantile float64
	QoSTargetMs float64
	// Estimator selects which latency quantiles are reported:
	// stats.EstimatorExact gives stats.Sample.Quantile's interpolated
	// value; stats.EstimatorHistogram gives what a stats.Histogram of the
	// measured latencies would (bounded relative error, and the same
	// bucket grid as the fleet's mergeable run histograms). Either is read
	// from a tracker of the largest latencies, not a full store. The zero
	// value (stats.EstimatorDefault) resolves to exact here — standalone
	// queueing callers are the paper's figures, where fidelity wins; the
	// fleet engine passes an explicit estimator.
	Estimator stats.TailEstimator
}

// Validate rejects unusable configurations. Float parameters must be
// finite: a NaN or Inf would silently poison every latency sample.
func (c Config) Validate() error {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	switch {
	case c.Workers <= 0:
		return fmt.Errorf("queueing: need at least one worker")
	case !finite(c.MeanServiceMs) || c.MeanServiceMs <= 0:
		return fmt.Errorf("queueing: non-positive service time")
	case !finite(c.ServiceCV) || c.ServiceCV < 0:
		return fmt.Errorf("queueing: negative service CV")
	case !finite(c.BurstProb) || c.BurstProb < 0 || c.BurstProb > 1:
		return fmt.Errorf("queueing: burst probability out of [0,1]")
	case !finite(c.BurstLen) || c.BurstLen < 0:
		return fmt.Errorf("queueing: negative burst length")
	case !finite(c.QoSQuantile) || c.QoSQuantile <= 0 || c.QoSQuantile >= 1:
		return fmt.Errorf("queueing: QoS quantile out of (0,1)")
	case !finite(c.QoSTargetMs) || c.QoSTargetMs <= 0:
		return fmt.Errorf("queueing: non-positive QoS target")
	}
	return c.Estimator.Validate()
}

// Meets reports whether a QoS-quantile latency satisfies the target:
// tailMs <= QoSTargetMs.
func (c Config) Meets(tailMs float64) bool { return tailMs <= c.QoSTargetMs }

// Result summarises one simulation.
type Result struct {
	MeanMs float64
	P95Ms  float64
	P99Ms  float64
	// QoSMs is the latency at the configured QoS quantile.
	QoSMs float64
	// MeetsQoS reports QoSMs <= QoSTargetMs.
	MeetsQoS bool
	// MaxQueue is the deepest queue observed: the most requests that had
	// arrived but not yet started service at any arrival instant.
	MaxQueue int
	// Requests is the number of completed requests measured.
	Requests int
}

// sortedRing keeps worker free times in ascending order in a flat slice:
// the minimum is element 0 and a replaceMin is one rightward scan plus one
// contiguous copy. Worker pools are small (≤ 16 threads for every modelled
// service), so the copy is a cache-line-friendly shuffle that beats a
// binary heap's branchy sift — and min-selection over a totally ordered
// multiset is the same value whatever structure maintains it, so results
// stay bit-identical to the heap this replaces.
type sortedRing []float64

// replaceMin removes the minimum (element 0) and inserts v in order,
// returning the removed minimum.
func (s sortedRing) replaceMin(v float64) float64 {
	top := s[0]
	j := len(s)
	for j > 1 && s[j-1] > v {
		j--
	}
	copy(s[0:], s[1:j])
	s[j-1] = v
	return top
}

// minHeap is a binary min-heap of latencies, the top-k tracker: element 0
// is the smallest value kept, and replaceMin swaps it for a larger one in
// O(log k). A sorted ring would pay O(k) per insertion, which is fine at a
// fleet window's few slots but quadratic at the figures' request counts
// (P95 of 20000 requests keeps 900).
type minHeap []float64

// replaceMin replaces the minimum with v and restores the heap order.
func (h minHeap) replaceMin(v float64) {
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if v <= h[c] {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = v
}

// Simulator runs request-level simulations with reusable state: the worker
// ring, the top-latency tracker and the batched draw buffers persist across
// runs, so a caller stepping many monitoring windows (the fleet engine's hot
// loop) pays no per-window heap allocations. The zero value is ready after
// Reset. A Simulator is not safe for concurrent use; share one per
// goroutine.
type Simulator struct {
	cfg Config
	// validated marks cfg as having passed Validate, letting Reset skip
	// revalidating an unchanged config on the fleet's per-window hot loop.
	// A bare equality check would not do: the zero Simulator's zero cfg
	// must still be rejected until a Validate has actually run.
	validated bool
	workers   sortedRing
	// waiting holds start times of queued requests, drained from waitHead
	// and appended at the back. FCFS start times are nondecreasing (both
	// arguments of the max() that assigns them are), so a FIFO ring visits
	// them in exactly the min-first order the former heap did.
	waiting  []float64
	waitHead int
	// top tracks the largest measured latencies: as many as the lowest
	// quantile the call reports reads (stats.TopSlots). It is a minHeap
	// during the loop and sorted ascending after it.
	top minHeap
	// arrGaps/arrHeads buffer batched (inter-arrival gap, burst head) draw
	// pairs from the arrival stream, and svcMs batched service times from
	// the service stream, refilled in blocks so the hot loop amortises the
	// per-draw call overhead and the service draws' transcendental math
	// runs outside the queue's serial dependency chain. Consumption order
	// is identical to the historical per-request draws
	// (rng.Stream.FillArrivals; one Normal per request).
	arrGaps  []float64
	arrHeads []bool
	svcMs    []float64
}

// arrivalBatch is the block size of buffered arrival and service draws.
// Over-drawing past the last arrival is harmless: the arrival stream is
// derived fresh per call and discarded with it.
const arrivalBatch = 256

// tailGrid supplies the default tail-histogram geometry for the histogram
// estimator's bucket rounding. It is only read (Histogram.Round), never
// filled, so concurrent Simulators may share it.
var tailGrid = stats.NewTailHistogram()

// NewSimulator builds a Simulator for cfg.
func NewSimulator(cfg Config) (*Simulator, error) {
	s := &Simulator{}
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset swaps in a service configuration, keeping the allocated buffers
// for reuse by the next Simulate or Tail call. Resetting to the
// configuration already in place (the common case on the fleet's
// per-window loop, where a core keeps its client across windows) skips
// the revalidation: Config is a comparable value type, so equality means
// the earlier Validate verdict still holds.
func (s *Simulator) Reset(cfg Config) error {
	if s.validated && cfg == s.cfg {
		return nil
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	s.cfg = cfg
	s.validated = true
	return nil
}

// Simulate runs nRequests through the configured service at the given
// arrival rate (requests per second) with the core at perfFactor of full
// single-thread performance. The first 10% of requests are warm-up and
// excluded. Results are bit-identical to the package-level Simulate for
// the same (config, arguments, seed), regardless of what the Simulator ran
// before.
func (s *Simulator) Simulate(ratePerSec float64, nRequests int, perfFactor float64, seed uint64) (Result, error) {
	r, err := s.run(ratePerSec, nRequests, perfFactor, seed, true)
	if err != nil {
		return Result{}, err
	}
	r.P95Ms = s.quantile(r.Requests, 0.95)
	r.P99Ms = s.quantile(r.Requests, 0.99)
	r.QoSMs = s.quantile(r.Requests, s.cfg.QoSQuantile)
	r.MeetsQoS = s.cfg.Meets(r.QoSMs)
	return r, nil
}

// Tail runs the same simulation as Simulate and returns only its QoSMs,
// bit for bit. It keeps just the largest measured latencies the QoS
// quantile can read, and skips the queue depth, mean, P95 and P99: the
// per-window form for callers that act on the QoS tail alone (the fleet
// engine, PeakLoad, the slack search).
func (s *Simulator) Tail(ratePerSec float64, nRequests int, perfFactor float64, seed uint64) (float64, error) {
	r, err := s.run(ratePerSec, nRequests, perfFactor, seed, false)
	if err != nil {
		return 0, err
	}
	return s.quantile(r.Requests, s.cfg.QoSQuantile), nil
}

// quantile is the configured estimator's q-quantile of the last run's m
// measured latencies, read from the tracker of the largest of them (which
// must hold at least stats.TopSlots(m, q)). The exact estimator
// interpolates as stats.Sample.Quantile does; the histogram estimator
// rounds the ⌊q(m−1)⌋-th order statistic to its bucket's representative
// value, which is what stats.Histogram.Quantile returns because bucketing
// is monotone.
func (s *Simulator) quantile(m int, q float64) float64 {
	if s.cfg.Estimator == stats.EstimatorHistogram {
		return tailGrid.Round(s.top[len(s.top)-stats.TopSlots(m, q)])
	}
	return stats.TopQuantile(s.top, m, q)
}

// run is the one event loop behind Simulate and Tail. It drives nRequests
// through the FCFS worker pool and keeps the largest measured latencies in
// s.top: enough for the QoS quantile, and with full set for P95 too. Only
// with full set does it also track the mean and the queue depth
// (Simulate's extras). The simulated event sequence is the same either
// way. The returned Result carries Requests, and with full set MeanMs and
// MaxQueue.
func (s *Simulator) run(ratePerSec float64, nRequests int, perfFactor float64, seed uint64, full bool) (Result, error) {
	cfg := s.cfg
	if cfg.Workers <= 0 {
		return Result{}, fmt.Errorf("queueing: Simulator not configured (call Reset first)")
	}
	if ratePerSec <= 0 || nRequests <= 0 {
		return Result{}, fmt.Errorf("queueing: non-positive rate or request count")
	}
	if perfFactor <= 0 || perfFactor > MaxPerfFactor || math.IsNaN(perfFactor) {
		return Result{}, fmt.Errorf("queueing: perf factor %v out of (0,%v]", perfFactor, float64(MaxPerfFactor))
	}

	arr := rng.New(seed).Derive(1)
	svc := rng.New(seed).Derive(2)

	// FCFS k-server queue processed in arrival order: with identical
	// workers, assigning each request to the earliest-free worker in
	// arrival order is exactly FCFS.
	if cap(s.workers) < cfg.Workers {
		s.workers = make(sortedRing, cfg.Workers)
	} else {
		s.workers = s.workers[:cfg.Workers]
		clear(s.workers)
	}
	workers := s.workers

	// Service-draw constants hoisted out of the per-request LogNormal:
	// sigma², mu and sqrt(sigma²) depend only on (MeanServiceMs, ServiceCV),
	// so folding them keeps every draw bit-identical — same expression,
	// same evaluation order — while shedding two Logs and a Sqrt per
	// request from the hot loop.
	svcSigma2 := math.Log(1 + cfg.ServiceCV*cfg.ServiceCV)
	svcMu := math.Log(cfg.MeanServiceMs) - svcSigma2/2
	svcSig := math.Sqrt(svcSigma2)

	meanGapMs := 1000 / ratePerSec
	now := 0.0 // arrival clock, ms
	warm := nRequests / 10
	maxQ := 0
	pending := 0 // requests in this burst still to arrive at `now`

	// The top-k tracker starts at -Inf (a valid heap), so the first k
	// latencies fill it and each later one enters only if it beats the
	// smallest kept.
	// TopSlots grows as q falls, so P95's slots cover P99 and any QoS
	// quantile above 0.95.
	m := nRequests - warm
	k := stats.TopSlots(m, cfg.QoSQuantile)
	if full {
		k = max(k, stats.TopSlots(m, 0.95))
	}
	if cap(s.top) < k {
		s.top = make(minHeap, k)
	}
	s.top = s.top[:k]
	for i := range s.top {
		s.top[i] = math.Inf(-1)
	}
	top := s.top
	var mean stats.Running

	// Arrival draws are consumed from a block-refilled buffer: one
	// (gap, head) pair per burst head, in exactly the order the unbatched
	// loop drew them, so results stay bit-identical while the hot loop
	// sheds most of the per-draw call overhead. Each refill is sized to
	// the requests still outstanding — an upper bound on the arrival draws
	// they can consume — so a short simulation (the fleet's per-window
	// budget) never pays for draws past its last arrival.
	if s.arrGaps == nil {
		s.arrGaps = make([]float64, arrivalBatch)
		s.arrHeads = make([]bool, arrivalBatch)
		s.svcMs = make([]float64, arrivalBatch)
	}
	arrPos, arrLen := 0, 0 // empty: first use triggers a refill

	s.waiting = s.waiting[:0]
	s.waitHead = 0

	for i := 0; i < nRequests; {
		// Every request takes exactly one service draw, so each block of
		// requests draws its service times up front, sized min(remaining,
		// arrivalBatch): the same draws in the same order, with no
		// dependency between them for the core to wait on.
		svcMs := s.svcMs[:min(nRequests-i, arrivalBatch)]
		for j := range svcMs {
			svcMs[j] = math.Exp(svcMu+svcSig*svc.Normal()) / perfFactor
		}
		for _, d := range svcMs {
			if pending > 0 {
				pending--
			} else {
				if arrPos == arrLen {
					arrLen = min(nRequests-i, arrivalBatch)
					arr.FillArrivals(s.arrGaps[:arrLen], s.arrHeads[:arrLen], meanGapMs, cfg.BurstProb)
					arrPos = 0
				}
				now += s.arrGaps[arrPos]
				if s.arrHeads[arrPos] {
					pending = max(int(cfg.BurstLen)-1, 0)
				}
				arrPos++
			}
			start := workers[0]
			if now > start {
				start = now
			}
			finish := start + d
			workers.replaceMin(finish)

			if full {
				// Queue depth: drop requests that started by `now`, then
				// count this one if it has to wait.
				for s.waitHead < len(s.waiting) && s.waiting[s.waitHead] <= now {
					s.waitHead++
				}
				if start > now {
					s.waiting = append(s.waiting, start)
					maxQ = max(maxQ, len(s.waiting)-s.waitHead)
				}
			}
			if i >= warm {
				l := finish - now
				if l > top[0] {
					top.replaceMin(l)
				}
				if full {
					mean.Add(l)
				}
			}
			i++
		}
	}
	sort.Float64s(top)
	return Result{MeanMs: mean.Mean(), MaxQueue: maxQ, Requests: m}, nil
}

// Simulate runs nRequests through the service at the given arrival rate
// (requests per second) with the core at perfFactor of full single-thread
// performance. The first 10% of requests are warm-up and excluded. It is
// the one-shot form of Simulator.Simulate; callers stepping many windows
// should hold a Simulator to amortise the allocations.
func Simulate(cfg Config, ratePerSec float64, nRequests int, perfFactor float64, seed uint64) (Result, error) {
	var s Simulator
	if err := s.Reset(cfg); err != nil {
		return Result{}, err
	}
	return s.Simulate(ratePerSec, nRequests, perfFactor, seed)
}

// PeakLoad finds the highest arrival rate (req/s) that still meets the QoS
// target at full performance — the paper's "peak sustainable load" that
// anchors the X axes of Figs. 1 and 2.
func PeakLoad(cfg Config, nRequests int, seed uint64) (float64, error) {
	var s Simulator
	if err := s.Reset(cfg); err != nil {
		return 0, err
	}
	// The saturation rate of the worker pool bounds the search.
	satRate := float64(cfg.Workers) * 1000 / cfg.MeanServiceMs
	lo, hi := satRate*0.05, satRate*1.2
	for i := 0; i < 24; i++ {
		mid := (lo + hi) / 2
		tail, err := s.Tail(mid, nRequests, 1.0, seed)
		if err != nil {
			return 0, err
		}
		if cfg.Meets(tail) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// LoadCurve returns mean/p95/p99 latency at the given fractions of peak
// load (Fig. 1).
func LoadCurve(cfg Config, peak float64, fractions []float64, nRequests int, seed uint64) ([]Result, error) {
	out := make([]Result, 0, len(fractions))
	for _, f := range fractions {
		if f <= 0 {
			return nil, fmt.Errorf("queueing: non-positive load fraction %v", f)
		}
		r, err := Simulate(cfg, peak*f, nRequests, 1.0, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
