package queueing

import (
	"math"
	"testing"

	"stretch/internal/stats"
	"stretch/internal/workload"
)

// svcConfigs materialises the workload catalogue into queueing configs,
// the same way the fleet engine does.
func svcConfigs() map[string]Config {
	out := map[string]Config{}
	for name, svc := range workload.Services() {
		out[name] = Config{
			Workers: svc.Workers, MeanServiceMs: svc.MeanServiceMs,
			ServiceCV: svc.ServiceCV, BurstProb: svc.BurstProb, BurstLen: svc.BurstLen,
			QoSQuantile: svc.QoSQuantile, QoSTargetMs: svc.QoSTargetMs,
			Estimator: stats.EstimatorHistogram,
		}
	}
	return out
}

// rateAtUtil returns the arrival rate (req/s) that offers utilization rho
// to the configured service at the given perf factor.
func rateAtUtil(cfg Config, rho, perf float64) float64 {
	b := int(cfg.BurstLen)
	if b < 1 {
		b = 1
	}
	eg := 1 + cfg.BurstProb*float64(b-1)
	return rho * float64(cfg.Workers) / (cfg.MeanServiceMs / perf) * 1000 / eg
}

// TestAnalyticMatchesDiscrete pins the accuracy contract of the analytic
// fast path: across the full service catalogue and the utilization range the
// fleet's auto classifier routes to the solver, the analytic mean sojourn
// time and QoS-quantile tail stay within a documented envelope of a
// long discrete simulation. The envelope is deliberately wider than the
// histogram bucket resolution: the discrete reference at finite n carries
// its own sampling noise, and the solver's within-burst drain model is an
// approximation. The fleet-level agreement bound (auto vs discrete p99
// within bucket resolution) is pinned end-to-end in cmd/stretchsim.
func TestAnalyticMatchesDiscrete(t *testing.T) {
	for name, cfg := range svcConfigs() {
		for _, rho := range []float64{0.1, 0.3, 0.5, 0.7, 0.85} {
			rate := rateAtUtil(cfg, rho, 1)
			ar, err := Analytic(cfg, rate, 1)
			if err != nil {
				t.Fatalf("%s rho=%.2f: %v", name, rho, err)
			}
			// Average several long discrete runs to beat down seed noise.
			var mean, tail float64
			const runs = 5
			for seed := uint64(1); seed <= runs; seed++ {
				sr, err := Simulate(cfg, rate, 60000, 1, seed)
				if err != nil {
					t.Fatalf("%s rho=%.2f: %v", name, rho, err)
				}
				mean += sr.MeanMs / runs
				tail += sr.QoSMs / runs
			}
			meanErr := ar.MeanMs/mean - 1
			tailErr := ar.QoSMs/tail - 1
			t.Logf("%-16s rho=%.2f mean %8.2f vs %8.2f (%+6.1f%%)  qos %8.2f vs %8.2f (%+6.1f%%)",
				name, rho, ar.MeanMs, mean, 100*meanErr, ar.QoSMs, tail, 100*tailErr)
			if math.Abs(meanErr) > 0.10 {
				t.Errorf("%s rho=%.2f: analytic mean %.3f vs discrete %.3f (%.1f%% off)",
					name, rho, ar.MeanMs, mean, 100*meanErr)
			}
			if math.Abs(tailErr) > 0.15 {
				t.Errorf("%s rho=%.2f: analytic QoS tail %.3f vs discrete %.3f (%.1f%% off)",
					name, rho, ar.QoSMs, tail, 100*tailErr)
			}
		}
	}
}

// TestAnalyticSoundnessEnvelope pins the solver's refusal envelope: the
// regimes the fleet must keep on the discrete path are rejected with an
// error rather than answered badly.
func TestAnalyticSoundnessEnvelope(t *testing.T) {
	cfg := svcConfigs()[workload.WebSearch]
	if _, err := Analytic(cfg, rateAtUtil(cfg, 0.99, 1), 1); err == nil {
		t.Error("utilization above the analytic ceiling must error")
	}
	if _, err := Analytic(cfg, -5, 1); err == nil {
		t.Error("non-positive rate must error")
	}
	if _, err := Analytic(cfg, 100, 0); err == nil {
		t.Error("non-positive perf factor must error")
	}
	big := cfg
	big.BurstLen = maxAnalyticBurst + 1
	if _, err := Analytic(big, 100, 1); err == nil {
		t.Error("oversized burst must error")
	}
	wide := cfg
	wide.Workers = maxAnalyticWorkers + 1
	if _, err := Analytic(wide, 100, 1); err == nil {
		t.Error("oversized worker pool must error")
	}
	tiny := cfg
	tiny.Workers = minAnalyticWorkers - 1
	if _, err := Analytic(tiny, 100, 1); err == nil {
		t.Error("undersized worker pool must error")
	}
	spiky := cfg
	spiky.ServiceCV = maxAnalyticCV + 0.1
	if _, err := Analytic(spiky, 100, 1); err == nil {
		t.Error("service CV beyond the calibrated range must error")
	}
	dispersed := cfg
	dispersed.BurstProb, dispersed.BurstLen = 0.05, 30 // C²a ≈ 19
	if _, err := Analytic(dispersed, 100, 1); err == nil {
		t.Error("arrival dispersion beyond the calibrated range must error")
	}
	bad := cfg
	bad.MeanServiceMs = -1
	if _, err := Analytic(bad, 100, 1); err == nil {
		t.Error("invalid config must error")
	}
}

// TestUtilization cross-checks the classifier signal against first
// principles: rho = rate·E[G]·E[S] / (k·1000·perf).
func TestUtilization(t *testing.T) {
	cfg := Config{Workers: 16, MeanServiceMs: 17, ServiceCV: 0.4,
		BurstProb: 0.005, BurstLen: 20, QoSQuantile: 0.99, QoSTargetMs: 100}
	eg := 1 + 0.005*19
	want := 700.0 / 1000 * eg * 17 / 16
	if got := Utilization(cfg, 700, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("Utilization = %v, want %v", got, want)
	}
	if got := Utilization(cfg, 700, 0.5); math.Abs(got-2*want) > 1e-12 {
		t.Errorf("halving perf must double utilization: got %v want %v", got, 2*want)
	}
	if !math.IsInf(Utilization(Config{}, 700, 1), 1) {
		t.Error("unconfigured service must report infinite utilization")
	}
}

// BenchmarkAnalyticTail prices one cold analytic solve — the unit the
// fleet engine's per-worker solve cache amortises. The analytic fast path
// only wins when (cache hits × discrete window cost) outruns
// (distinct keys × this number), so keep it well under a millisecond:
// the monotone atom-to-bucket merge walk in depositAnalytic exists
// because a per-atom binary search through Histogram.UpperBound made
// this benchmark ~2× slower and dragged small auto fleets below
// break-even.
func BenchmarkAnalyticTail(b *testing.B) {
	cfg := Config{
		Workers: 16, MeanServiceMs: 4.163, ServiceCV: 0.31,
		BurstProb: 0.05, BurstLen: 8,
		QoSQuantile: 0.99, QoSTargetMs: 12,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyticTail(cfg, 700, 1, 200); err != nil {
			b.Fatal(err)
		}
	}
}
