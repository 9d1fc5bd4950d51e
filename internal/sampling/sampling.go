// Package sampling implements the SimFlex-inspired measurement methodology
// of §V-C: a run is a set of independent samples, each warming the
// microarchitectural state and then measuring a fixed instruction budget;
// reported figures are means across samples. Samples differ only in their
// trace seeds, which both decorrelates them and keeps every experiment
// bit-reproducible.
package sampling

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"stretch/internal/core"
	"stretch/internal/rng"
	"stretch/internal/trace"
)

// Spec sizes a sampled measurement.
type Spec struct {
	// Samples is the number of independent samples (paper: 320; the
	// default experiment scales use far fewer since the synthetic traces
	// are stationary).
	Samples int
	// Warmup and Measure are per-thread instruction budgets per sample
	// (paper: 100K + 50K).
	Warmup, Measure uint64
	// Seed selects the whole family of sample seeds.
	Seed uint64
}

// Quick returns a spec suitable for unit tests.
func Quick() Spec { return Spec{Samples: 2, Warmup: 12000, Measure: 15000, Seed: 1} }

// Standard returns the spec used by the experiment harness.
func Standard() Spec { return Spec{Samples: 4, Warmup: 30000, Measure: 30000, Seed: 1} }

// Agg aggregates per-thread metrics across samples.
type Agg struct {
	// IPC is the mean measured IPC across samples.
	IPC float64
	// IPCStdDev is the across-sample standard deviation.
	IPCStdDev float64
	// MLPTail is the mean in-flight-miss tail distribution (Fig. 7).
	MLPTail [6]float64
	// AvgOutstanding is the mean outstanding demand-miss count.
	AvgOutstanding float64
	// MispredictRate, L1DMissRate and L1IMissRate are sample means.
	MispredictRate float64
	L1DMissRate    float64
	L1IMissRate    float64
}

func aggregate(ms []core.ThreadMetrics) Agg {
	var a Agg
	if len(ms) == 0 {
		return a
	}
	for _, m := range ms {
		a.IPC += m.IPC
		a.AvgOutstanding += m.AvgOutstanding
		a.MispredictRate += m.MispredictRate
		a.L1DMissRate += m.L1DMissRate
		a.L1IMissRate += m.L1IMissRate
		for k := range a.MLPTail {
			a.MLPTail[k] += m.MLPTail[k]
		}
	}
	n := float64(len(ms))
	a.IPC /= n
	a.AvgOutstanding /= n
	a.MispredictRate /= n
	a.L1DMissRate /= n
	a.L1IMissRate /= n
	for k := range a.MLPTail {
		a.MLPTail[k] /= n
	}
	var ss float64
	for _, m := range ms {
		d := m.IPC - a.IPC
		ss += d * d
	}
	if len(ms) > 1 {
		a.IPCStdDev = math.Sqrt(ss / float64(len(ms)-1))
	}
	return a
}

// seedFor derives a stable per-sample seed from the spec seed, a stream
// label and the sample index, so results are independent of execution
// order and parallelism.
func seedFor(base uint64, label string, sample, tid int) uint64 {
	s := rng.New(base)
	for _, r := range label {
		s = s.Derive(uint64(r))
	}
	return s.Derive(uint64(sample)<<8 | uint64(tid)).Uint64()
}

// Solo measures profile p alone on a core configured by cfg.
func Solo(cfg core.Config, p trace.Profile, spec Spec) (Agg, error) {
	ms := make([]core.ThreadMetrics, 0, spec.Samples)
	for s := 0; s < spec.Samples; s++ {
		g, err := trace.NewGenerator(p, seedFor(spec.Seed, p.Name, s, 0))
		if err != nil {
			return Agg{}, err
		}
		c, err := core.New(cfg, g)
		if err != nil {
			return Agg{}, err
		}
		tm, err := c.Run(core.RunSpec{WarmupInstr: spec.Warmup, MeasureInstr: spec.Measure})
		if err != nil {
			return Agg{}, err
		}
		ms = append(ms, tm[0])
	}
	return aggregate(ms), nil
}

// Colocated measures p0 (hardware thread 0) and p1 (thread 1) sharing a
// core configured by cfg.
func Colocated(cfg core.Config, p0, p1 trace.Profile, spec Spec) (Agg, Agg, error) {
	m0 := make([]core.ThreadMetrics, 0, spec.Samples)
	m1 := make([]core.ThreadMetrics, 0, spec.Samples)
	label := p0.Name + "+" + p1.Name
	for s := 0; s < spec.Samples; s++ {
		g0, err := trace.NewGenerator(p0, seedFor(spec.Seed, label, s, 0))
		if err != nil {
			return Agg{}, Agg{}, err
		}
		g1, err := trace.NewGenerator(p1, seedFor(spec.Seed, label, s, 1))
		if err != nil {
			return Agg{}, Agg{}, err
		}
		c, err := core.New(cfg, g0, g1)
		if err != nil {
			return Agg{}, Agg{}, err
		}
		tm, err := c.Run(core.RunSpec{WarmupInstr: spec.Warmup, MeasureInstr: spec.Measure})
		if err != nil {
			return Agg{}, Agg{}, err
		}
		m0 = append(m0, tm[0])
		m1 = append(m1, tm[1])
	}
	return aggregate(m0), aggregate(m1), nil
}

// Job is one unit of work for Parallel.
type Job func() error

// Parallel runs jobs across GOMAXPROCS workers and returns the first error.
func Parallel(jobs []Job) error {
	nw := runtime.GOMAXPROCS(0)
	if nw > len(jobs) {
		nw = len(jobs)
	}
	if nw < 1 {
		nw = 1
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		err  error
		next int
	)
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(jobs) || err != nil {
					mu.Unlock()
					return
				}
				j := jobs[next]
				next++
				mu.Unlock()
				if e := j(); e != nil {
					mu.Lock()
					if err == nil {
						err = fmt.Errorf("sampling: parallel job: %w", e)
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return err
}
