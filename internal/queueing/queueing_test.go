package queueing

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"stretch/internal/rng"
	"stretch/internal/stats"
)

func cfg() Config {
	return Config{
		Workers:       8,
		MeanServiceMs: 5,
		ServiceCV:     1.0,
		BurstProb:     0.1,
		BurstLen:      3,
		QoSQuantile:   0.99,
		QoSTargetMs:   100,
	}
}

func TestValidate(t *testing.T) {
	good := cfg()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Workers = 0 },
		func(c *Config) { c.MeanServiceMs = 0 },
		func(c *Config) { c.MeanServiceMs = math.NaN() },
		func(c *Config) { c.ServiceCV = -1 },
		func(c *Config) { c.ServiceCV = math.Inf(1) },
		func(c *Config) { c.BurstProb = -0.1 },
		func(c *Config) { c.BurstProb = 1.5 },
		func(c *Config) { c.BurstLen = -1 },
		func(c *Config) { c.QoSQuantile = 1.2 },
		func(c *Config) { c.QoSQuantile = math.NaN() },
		func(c *Config) { c.QoSTargetMs = 0 },
	}
	for i, m := range bad {
		c := cfg()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSimulateArgumentChecks(t *testing.T) {
	if _, err := Simulate(cfg(), 0, 1000, 1, 1); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := Simulate(cfg(), 100, 0, 1, 1); err == nil {
		t.Fatal("zero requests accepted")
	}
	if _, err := Simulate(cfg(), 100, 1000, 0, 1); err == nil {
		t.Fatal("zero perf accepted")
	}
	if _, err := Simulate(cfg(), 100, 1000, MaxPerfFactor+0.5, 1); err == nil {
		t.Fatal("perf > MaxPerfFactor accepted")
	}
	// A modest super-unity factor is legal: a calibrated Q-mode core runs
	// the service faster than the equal-partitioning baseline.
	fast, err := Simulate(cfg(), 100, 1000, 1.1, 1)
	if err != nil {
		t.Fatalf("perf 1.1 rejected: %v", err)
	}
	base, err := Simulate(cfg(), 100, 1000, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fast.MeanMs >= base.MeanMs {
		t.Fatalf("perf 1.1 mean %v not below perf 1 mean %v", fast.MeanMs, base.MeanMs)
	}
}

func TestLatencyOrderingAndGrowth(t *testing.T) {
	c := cfg()
	low, err := Simulate(c, 100, 30000, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !(low.MeanMs <= low.P95Ms && low.P95Ms <= low.P99Ms) {
		t.Fatalf("percentile ordering violated: %+v", low)
	}
	if low.MeanMs < c.MeanServiceMs*0.8 {
		t.Fatalf("latency below service time: %v", low.MeanMs)
	}
	// Near saturation (8 workers × 200/s = 1600/s capacity).
	high, err := Simulate(c, 1500, 30000, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if high.P99Ms <= low.P99Ms*1.5 {
		t.Fatalf("tail did not grow with load: %v -> %v", low.P99Ms, high.P99Ms)
	}
	// The tail must grow by more milliseconds than the mean (queueing
	// delay dominates the tail, Fig. 1).
	if high.P99Ms-low.P99Ms <= high.MeanMs-low.MeanMs {
		t.Fatal("p99 should grow by more than the mean with load")
	}
}

func TestPerfFactorStretchesService(t *testing.T) {
	full, err := Simulate(cfg(), 100, 30000, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	half, err := Simulate(cfg(), 100, 30000, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	ratio := half.MeanMs / full.MeanMs
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("halving performance scaled mean latency by %v, want ~2", ratio)
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := Simulate(cfg(), 400, 20000, 1, 99)
	b, _ := Simulate(cfg(), 400, 20000, 1, 99)
	if a != b {
		t.Fatal("same-seed simulations diverged")
	}
	c, _ := Simulate(cfg(), 400, 20000, 1, 100)
	if a == c {
		t.Fatal("different seeds produced identical results")
	}
}

func TestPeakLoadBracketsQoS(t *testing.T) {
	c := cfg()
	peak, err := PeakLoad(c, 20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if peak <= 0 {
		t.Fatal("non-positive peak")
	}
	at, err := Simulate(c, peak*0.95, 20000, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !at.MeetsQoS {
		t.Fatalf("95%% of peak violates QoS: p-tail %vms", at.QoSMs)
	}
	over, err := Simulate(c, peak*1.3, 20000, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if over.MeetsQoS {
		t.Fatal("30% beyond peak still meets QoS — peak search too conservative")
	}
}

func TestMaxQueueGrowsWithOverload(t *testing.T) {
	c := cfg()
	// Well under capacity almost nothing waits; past saturation (8 workers
	// × 200/s = 1600/s) the backlog must grow without bound over the run.
	low, err := Simulate(c, 200, 20000, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	over, err := Simulate(c, 2400, 20000, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	if over.MaxQueue <= low.MaxQueue {
		t.Fatalf("overload max queue %d not above light-load %d", over.MaxQueue, low.MaxQueue)
	}
	if over.MaxQueue < c.Workers {
		t.Fatalf("50%% overload over 20k requests backed up only %d requests", over.MaxQueue)
	}
}

// TestSimulatorMatchesSimulate pins the reuse contract the fleet hot loop
// relies on: a Simulator re-used across runs — with other configurations
// and rates interleaved — must produce results bit-identical to the
// one-shot package function for every (config, args, seed).
func TestSimulatorMatchesSimulate(t *testing.T) {
	a := cfg()
	b := Config{
		Workers: 64, MeanServiceMs: 2, ServiceCV: 0.4,
		BurstProb: 0.02, BurstLen: 10, QoSQuantile: 0.95, QoSTargetMs: 30,
	}
	sim, err := NewSimulator(a)
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		cfg  Config
		rate float64
		n    int
		perf float64
		seed uint64
	}{
		{a, 400, 5000, 1, 1},
		{b, 20000, 3000, 0.8, 2},
		{a, 1500, 2000, 0.6, 3},
		{a, 400, 5000, 1, 1}, // repeat of the first: must still match
		{b, 5000, 800, 1, 99},
	}
	for i, r := range runs {
		if err := sim.Reset(r.cfg); err != nil {
			t.Fatal(err)
		}
		got, err := sim.Simulate(r.rate, r.n, r.perf, r.seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Simulate(r.cfg, r.rate, r.n, r.perf, r.seed)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("run %d diverged from one-shot Simulate:\n%+v\nvs\n%+v", i, got, want)
		}
	}
	// The reusable path must reject the same bad inputs.
	if err := sim.Reset(Config{}); err == nil {
		t.Fatal("Reset accepted an invalid config")
	}
	if _, err := sim.Simulate(0, 100, 1, 1); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := NewSimulator(Config{}); err == nil {
		t.Fatal("NewSimulator accepted an invalid config")
	}
	var unconfigured Simulator
	if _, err := unconfigured.Simulate(100, 1000, 1, 1); err == nil {
		t.Fatal("zero-value Simulator simulated without a Reset")
	}
}

// BenchmarkSimulate exercises the hot loop at several worker-pool widths;
// the Workers=64 case is the regression guard for the former
// O(requests × workers) queue-depth rescan, and the reused-Simulator cases
// are the allocation guard for the fleet engine's per-window path.
func BenchmarkSimulate(b *testing.B) {
	for _, workers := range []int{8, 64} {
		c := Config{
			Workers: workers, MeanServiceMs: 5, ServiceCV: 1.0,
			BurstProb: 0.1, BurstLen: 3, QoSQuantile: 0.99, QoSTargetMs: 100,
		}
		rate := float64(workers) * 1000 / c.MeanServiceMs * 0.8
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(c, rate, 10000, 1, uint64(i)+1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("workers=%d/reused", workers), func(b *testing.B) {
			b.ReportAllocs()
			sim, err := NewSimulator(c)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if err := sim.Reset(c); err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Simulate(rate, 10000, 1, uint64(i)+1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// referenceSimulate is the unbatched form of Simulate kept as a test
// oracle: per-request arrival and service draws, every measured latency
// stored in a stats.Sample or stats.Histogram, a linear scan for the
// earliest-free worker and a per-arrival queue-depth count.
func referenceSimulate(cfg Config, rate float64, n int, perf float64, seed uint64) Result {
	arr := rng.New(seed).Derive(1)
	svc := rng.New(seed).Derive(2)
	free := make([]float64, cfg.Workers)
	var starts []float64 // start times of requests that had to wait
	lat := stats.NewSample(n)
	hist := stats.NewTailHistogram()
	var mean stats.Running
	now, pending, maxQ, warm := 0.0, 0, 0, n/10
	for i := 0; i < n; i++ {
		if pending > 0 {
			pending--
		} else {
			now += arr.Exp(1000 / rate)
			if arr.Bernoulli(cfg.BurstProb) {
				pending = max(int(cfg.BurstLen)-1, 0)
			}
		}
		w := 0
		for j := range free {
			if free[j] < free[w] {
				w = j
			}
		}
		start := math.Max(free[w], now)
		finish := start + svc.LogNormal(cfg.MeanServiceMs, cfg.ServiceCV)/perf
		free[w] = finish
		if start > now {
			starts = append(starts, start)
		}
		q := 0
		for _, st := range starts {
			if st > now {
				q++
			}
		}
		maxQ = max(maxQ, q)
		if i >= warm {
			lat.Add(finish - now)
			hist.Add(finish - now)
			mean.Add(finish - now)
		}
	}
	r := Result{MeanMs: mean.Mean(), MaxQueue: maxQ, Requests: lat.N()}
	quantile := lat.Quantile
	if cfg.Estimator == stats.EstimatorHistogram {
		quantile = hist.Quantile
	}
	r.P95Ms, r.P99Ms, r.QoSMs = quantile(0.95), quantile(0.99), quantile(cfg.QoSQuantile)
	r.MeetsQoS = r.QoSMs <= cfg.QoSTargetMs
	return r
}

// TestSimulateMatchesReference holds Simulate's whole Result to the
// unbatched oracle bit for bit: sizes around and across the draw block,
// QoS quantiles from the median (the largest top-k tracker) to p99.9, both
// estimators, sub- and super-unity perf factors.
func TestSimulateMatchesReference(t *testing.T) {
	var sim Simulator
	for _, q := range []float64{0.5, 0.95, 0.999} {
		for _, est := range []stats.TailEstimator{stats.EstimatorExact, stats.EstimatorHistogram} {
			c := cfg()
			c.QoSQuantile, c.Estimator = q, est
			if err := sim.Reset(c); err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 20, arrivalBatch - 1, arrivalBatch, arrivalBatch + 1, 3000} {
				for _, perf := range []float64{0.7, 1.3} {
					for seed := uint64(1); seed <= 3; seed++ {
						want := referenceSimulate(c, 1200, n, perf, seed)
						got, err := sim.Simulate(1200, n, perf, seed)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("q=%v %v n=%d perf=%v seed=%d:\n got %+v\nwant %+v", q, est, n, perf, seed, got, want)
						}
					}
				}
			}
		}
	}
}

// TestTailMatchesSimulate is Tail's bit-exactness gate: across the service
// catalogue, both estimators, window sizes from below the draw block to
// several blocks, and utilizations up to saturation, the top-k tail equals
// Simulate's QoSMs exactly. One Simulator serves every Tail call, so the
// gate also covers reuse across configs and sizes.
func TestTailMatchesSimulate(t *testing.T) {
	seeds := 200
	var sim Simulator
	for name, base := range svcConfigs() {
		for _, est := range []stats.TailEstimator{stats.EstimatorExact, stats.EstimatorHistogram} {
			c := base
			c.Estimator = est
			if err := sim.Reset(c); err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{20, 150, 400, 1200} {
				for _, rho := range []float64{0.2, 0.6, 1.0} {
					rate := rateAtUtil(c, rho, 1)
					for seed := uint64(1); seed <= uint64(seeds); seed++ {
						want, err := Simulate(c, rate, n, 1, seed)
						if err != nil {
							t.Fatal(err)
						}
						got, err := sim.Tail(rate, n, 1, seed)
						if err != nil {
							t.Fatal(err)
						}
						if got != want.QoSMs {
							t.Fatalf("%s/%v n=%d rho=%v seed=%d: Tail %v != Simulate QoSMs %v",
								name, est, n, rho, seed, got, want.QoSMs)
						}
					}
				}
			}
		}
	}
}

// BenchmarkSimulatorWindow is the fleet-shaped queueing bench: one reused
// Simulator stepping 400-request windows (the CLI's per-window budget) at
// ρ ≈ 0.6 round-robin over the modelled services, through Simulate (every
// summary) and through Tail (the QoS tail the fleet reads).
func BenchmarkSimulatorWindow(b *testing.B) {
	const n = 400
	cfgs := svcConfigs()
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, mode := range []string{"Simulate", "Tail"} {
		b.Run(mode, func(b *testing.B) {
			var sim Simulator
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := cfgs[names[i%len(names)]]
				if err := sim.Reset(c); err != nil {
					b.Fatal(err)
				}
				rate := rateAtUtil(c, 0.6, 1)
				var err error
				if mode == "Simulate" {
					_, err = sim.Simulate(rate, n, 1, uint64(i)+1)
				} else {
					_, err = sim.Tail(rate, n, 1, uint64(i)+1)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/req")
		})
	}
}

func TestLoadCurveShape(t *testing.T) {
	c := cfg()
	peak, err := PeakLoad(c, 20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := LoadCurve(c, peak, []float64{0.2, 0.5, 0.8, 1.0}, 20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].P99Ms < rs[i-1].P99Ms*0.8 {
			t.Fatalf("p99 fell substantially with load: %v -> %v", rs[i-1].P99Ms, rs[i].P99Ms)
		}
	}
	if _, err := LoadCurve(c, peak, []float64{0}, 1000, 5); err == nil {
		t.Fatal("zero load fraction accepted")
	}
}

// TestHistogramEstimatorTracksExact locks the estimator contract: switching
// Config.Estimator never perturbs the simulated event sequence (the exact
// per-request mean is bit-identical) and quantile estimates stay within the
// histogram's bucket resolution of the exact sorted-sample quantiles.
func TestHistogramEstimatorTracksExact(t *testing.T) {
	exact := cfg()
	exact.Estimator = stats.EstimatorExact
	hist := cfg()
	hist.Estimator = stats.EstimatorHistogram
	for _, rate := range []float64{200, 800, 1400} {
		re, err := Simulate(exact, rate, 20000, 1, 11)
		if err != nil {
			t.Fatal(err)
		}
		rh, err := Simulate(hist, rate, 20000, 1, 11)
		if err != nil {
			t.Fatal(err)
		}
		if re.MeanMs != rh.MeanMs || re.MaxQueue != rh.MaxQueue || re.Requests != rh.Requests {
			t.Fatalf("rate %v: estimator perturbed the simulation: %+v vs %+v", rate, re, rh)
		}
		tol := 2 * stats.NewTailHistogram().Resolution()
		for _, pair := range [][2]float64{{re.P95Ms, rh.P95Ms}, {re.P99Ms, rh.P99Ms}, {re.QoSMs, rh.QoSMs}} {
			if rel := math.Abs(pair[1]-pair[0]) / pair[0]; rel > tol {
				t.Fatalf("rate %v: histogram quantile %v vs exact %v (relative error %.3f > %.3f)",
					rate, pair[1], pair[0], rel, tol)
			}
		}
	}
}

// TestHistogramEstimatorDeterministicReuse checks a reused Simulator in
// histogram mode is bit-identical to a one-shot run, as the fleet hot loop
// requires.
func TestHistogramEstimatorDeterministicReuse(t *testing.T) {
	c := cfg()
	c.Estimator = stats.EstimatorHistogram
	sim, err := NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := sim.Simulate(900, 5000, 0.9, 77)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Simulate(c, 900, 5000, 0.9, 77)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("reused simulator drifted on pass %d: %+v vs %+v", i, got, want)
		}
	}
}

func TestValidateRejectsUnknownEstimator(t *testing.T) {
	c := cfg()
	c.Estimator = stats.TailEstimator(99)
	if err := c.Validate(); err == nil {
		t.Fatal("unknown estimator accepted")
	}
}
