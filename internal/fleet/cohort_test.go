package fleet

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"stretch/internal/core"
	"stretch/internal/loadgen"
	"stretch/internal/monitor"
	"stretch/internal/stats"
	"stretch/internal/workload"
)

// equivConfig is the equivalence suite's base fleet: three clients on
// different services (different targets and calibration-free deltas), a
// diurnal shape so the auto classifier mixes analytic and discrete
// windows, a near-idle Poisson client whose windows often draw zero
// arrivals (the zero-rate spans both engines coalesce), and a
// drain/restore plus a surge so cores transit sentinel states and
// unsteady windows mid-horizon — the transitions that fork and re-merge
// controller-equivalence classes.
func equivConfig() Config {
	return Config{
		Servers: 3, CoresPerServer: 4,
		Traffic: loadgen.Traffic{
			Windows: 10, WindowSec: 300,
			Clients: []loadgen.Client{
				{
					Name: "search", Service: workload.WebSearch, Fraction: 5.0 / 12, SLO: loadgen.SLOStrict,
					Spec: loadgen.Spec{Shape: loadgen.Diurnal{
						HourLoad: loadgen.WebSearchDay(), PeakRPS: 600 * 5, WindowsPerDay: 10,
					}, Poisson: true},
				},
				{
					Name: "kv", Service: workload.DataServing, Fraction: 5.0 / 12,
					Spec: loadgen.Spec{Shape: loadgen.Constant{Rate: 1000 * 5}, Poisson: true},
				},
				{
					Name: "cron", Service: workload.WebSearch, Fraction: 2.0 / 12,
					Spec: loadgen.Spec{Shape: loadgen.Constant{Rate: 0.003}, Poisson: true},
				},
			},
		},
		Scenario: loadgen.Scenario{Events: []loadgen.Event{
			{Kind: loadgen.EventDrain, Window: 3, Server: 1},
			{Kind: loadgen.EventRestore, Window: 6, Server: 1},
			{Kind: loadgen.EventSurge, Window: 5, Until: 7, Client: "kv", Factor: 1.4},
		}},
		BatchSpeedupB: 0.13, LSSlowdownB: 0.07,
		WindowRequests: 150, Seed: 7,
	}
}

// perCoreWindow is the equivalence suite's reference step: every core
// advances on its own, in core order, with no spans, merges or worker
// pool — the per-core execution the walk coalesces. Core c's controller
// lives in class slot c for the whole run (client −4 matches no client
// and no sentinel), so the engine's barrier and final aggregation read it
// exactly as they read the walk's classes.
func perCoreWindow(e *engine, w int, asg Assignment) error {
	if w == 0 {
		e.classes = make([]cohortClass, e.nCores)
		for c := range e.classes {
			e.classes[c] = cohortClass{client: -4, lastMode: -1}
			e.classOf[c] = int32(c)
		}
	}
	var shard []*stats.Histogram
	if e.shards != nil {
		shard = e.shards[0]
	}
	for c := 0; c < e.nCores; c++ {
		idx := c*e.windows + w
		ci := asg.Client[c]
		e.client[idx] = ci
		st := &e.classes[c]
		if ci < 0 {
			e.tails[idx] = math.NaN()
			if ci == coreIdle {
				e.batchRel[idx] = 1
			}
			st.client = ci
			continue
		}
		if ci != st.client {
			e.swBase[c] += st.ctl.Switches()
			if err := st.ctl.Reset(e.monCfg(e.targets[ci])); err != nil {
				return err
			}
			st.client, st.lastMode = ci, -1
		}
		mode := st.ctl.Mode()
		rate, mig := asg.Rate[c], asg.Migrated[c]
		perf := e.perf[c]
		if s := e.lsSlowMode[ci][mode]; s != 0 {
			perf *= 1 - s
		}
		if mig {
			perf *= 1 - e.migPenalty
		}
		var tail float64
		if rate > 0 {
			solved := false
			if e.engineSel == EngineAuto && e.analyticOK[ci] && rate*e.utilCoef[ci]/perf <= autoSteadyMaxUtil &&
				int8(mode) == st.lastMode && !mig && !e.unsteady[ci][w] {
				tail, solved = e.analyticTail(ci, rate, perf)
				e.analytic[idx] = solved
			}
			if !solved {
				sim := e.sims[0]
				if err := sim.Reset(e.qcfgs[ci]); err != nil {
					return err
				}
				qr, err := sim.Simulate(rate, e.windowReq, perf, e.streams[c].Derive(uint64(w)).Uint64())
				if err != nil {
					return err
				}
				tail = qr.QoSMs
			}
		}
		e.tails[idx] = tail
		if shard != nil {
			shard[ci].Add(tail)
		}
		e.modeB[idx] = mode == core.ModeB
		if mode == core.ModeB && mig && e.migPenalty > 0 {
			e.batchRel[idx] = 1
		} else {
			e.batchRel[idx] = e.batchRelMode[ci][mode]
		}
		st.lastMode = int8(mode)
		st.ctl.Observe(monitor.Observation{TailMs: tail})
	}
	return nil
}

// checkWalkMatchesReference runs cfg through the per-core reference once
// and through the walk at 1, 5 and 16 workers, failing unless every walk
// Result DeepEquals the reference — full Results, every float bit.
func checkWalkMatchesReference(t *testing.T, cfg Config) Result {
	t.Helper()
	cfg.Workers = 1
	ref, err := run(cfg, perCoreWindow)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 5, 16} {
		cfg.Workers = workers
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("walk (%d workers) diverged from the per-core reference", workers)
		}
	}
	return ref
}

// TestCohortEquivalence is the walk's contract: for every policy × engine
// × estimator, the walk must DeepEqual the per-core reference at every
// worker count. The -race CI job runs this, putting the shared solve
// cache, the persistent pool and the phase-two class advances under the
// detector.
func TestCohortEquivalence(t *testing.T) {
	policies := []Policy{PolicyStatic, PolicyProportional, PolicyP2C, PolicyFeedback}
	estimators := []stats.TailEstimator{stats.EstimatorHistogram, stats.EstimatorExact}
	for _, pol := range policies {
		for _, eng := range []Engine{EngineDiscrete, EngineAuto} {
			for _, est := range estimators {
				t.Run(fmt.Sprintf("%v/%v/%v", pol, eng, est), func(t *testing.T) {
					cfg := equivConfig()
					cfg.Scheduler = SchedulerConfig{Policy: pol}
					cfg.Engine = eng
					cfg.TailEstimator = est
					ref := checkWalkMatchesReference(t, cfg)
					if eng == EngineAuto && ref.CohortCoreWindows == 0 {
						t.Fatal("no coalescible core-windows; the equivalence check is vacuous")
					}
				})
			}
		}
	}
}

// autoscaleEquivConfig adds park/unpark transitions (on top of the
// scenario drain) under the util autoscaler: parked cores leave their
// equivalence classes and return as cold starts, the class-split path the
// plain suite cannot reach.
func autoscaleEquivConfig() Config {
	cfg := equivConfig()
	cfg.Scheduler = SchedulerConfig{Policy: PolicyProportional, NoMinCores: true}
	cfg.Autoscale = AutoscaleConfig{
		Policy: AutoscaleUtil, MinServers: 1,
		Custom: windowScale(func(w int) int {
			switch {
			case w >= 2 && w < 5: // park two servers mid-horizon
				return 1
			default:
				return 3
			}
		}),
	}
	return cfg
}

// TestCohortEquivalenceAutoscale holds the walk to the reference across
// autoscale park/unpark transitions: both engines, both estimators, three
// worker counts.
func TestCohortEquivalenceAutoscale(t *testing.T) {
	for _, eng := range []Engine{EngineDiscrete, EngineAuto} {
		for _, est := range []stats.TailEstimator{stats.EstimatorHistogram, stats.EstimatorExact} {
			t.Run(fmt.Sprintf("%v/%v", eng, est), func(t *testing.T) {
				cfg := autoscaleEquivConfig()
				cfg.Engine = eng
				cfg.TailEstimator = est
				if ref := checkWalkMatchesReference(t, cfg); ref.ParkedCoreWindows == 0 {
					t.Fatal("autoscaler parked nothing; the split scenario is vacuous")
				}
			})
		}
	}
}

// TestCohortClassTableBound: the class table never outgrows nCores +
// len(clients) slots — one per core plus one emptied cold-start class per
// client awaiting the sweep — so the walk allocates its table once. A
// feedback run with handovers plus an autoscale park/unpark drives the
// departures, handovers and forks that would push an emptied class past
// the bound if slots were only reclaimed at the sweep.
func TestCohortClassTableBound(t *testing.T) {
	for _, eng := range []Engine{EngineDiscrete, EngineAuto} {
		t.Run(eng.String(), func(t *testing.T) {
			cfg := autoscaleEquivConfig()
			cfg.Scheduler = SchedulerConfig{Policy: PolicyFeedback}
			cfg.Engine = eng
			cfg.Workers = 2
			peak := 0
			res, err := run(cfg, func(e *engine, w int, asg Assignment) error {
				bound := e.nCores + len(e.targets)
				if err := e.walkWindow(w, asg); err != nil {
					return err
				}
				if len(e.classes) > bound || cap(e.classes) != bound {
					t.Errorf("window %d: class table len %d cap %d, bound %d", w, len(e.classes), cap(e.classes), bound)
				}
				peak = max(peak, len(e.classes))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Migrations == 0 || res.ParkedCoreWindows == 0 {
				t.Fatalf("migrations %d, parked core-windows %d: the bound scenario is vacuous",
					res.Migrations, res.ParkedCoreWindows)
			}
			t.Logf("peak class table %d of %d slots", peak, res.Cores+len(cfg.Traffic.Clients))
		})
	}
}

// TestCohortDiscreteEngineUnaffected: under the discrete engine the walk
// coalesces only zero-rate windows, which no engine simulates, so it
// reports no cohort or analytic core-windows and never touches the solver.
func TestCohortDiscreteEngineUnaffected(t *testing.T) {
	cfg := equivConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CohortCoreWindows != 0 || res.AnalyticCoreWindows != 0 || res.AnalyticSolves != 0 {
		t.Fatalf("discrete engine reported cohort=%d analytic=%d solves=%d",
			res.CohortCoreWindows, res.AnalyticCoreWindows, res.AnalyticSolves)
	}
}

// TestCohortSolveCounter: AnalyticSolves counts distinct solved keys —
// strictly positive whenever analytic windows were answered, no larger
// than the analytic core-window count, and identical to the reference's
// (the DeepEqual suites above already pin the latter; this pins the
// bounds).
func TestCohortSolveCounter(t *testing.T) {
	cfg := equivConfig()
	cfg.Engine = EngineAuto
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AnalyticCoreWindows == 0 {
		t.Fatal("auto run answered nothing analytically")
	}
	if res.AnalyticSolves <= 0 || res.AnalyticSolves > res.AnalyticCoreWindows {
		t.Fatalf("AnalyticSolves = %d with %d analytic core-windows",
			res.AnalyticSolves, res.AnalyticCoreWindows)
	}
	if res.CohortCoreWindows < res.AnalyticCoreWindows {
		t.Fatalf("CohortCoreWindows %d < AnalyticCoreWindows %d (zero-rate windows only add)",
			res.CohortCoreWindows, res.AnalyticCoreWindows)
	}
}

// TestClaimSize: a claim block is always 1..claimChunk items, small
// windows split so every worker can claim at least one block, and large
// windows keep the full claimChunk amortisation.
func TestClaimSize(t *testing.T) {
	cases := []struct {
		work, workers, want int
	}{
		{1, 1, 1},
		{1, 16, 1},
		{16, 2, 1},
		{16, 1, 2},
		{100, 3, 4},
		{1024, 1, 128},
		{1024, 2, 64},
		{4096, 2, 128},
		{1 << 20, 16, claimChunk},
		{1 << 20, 2, claimChunk},
	}
	for _, tc := range cases {
		got := claimSize(tc.work, tc.workers)
		if got != tc.want {
			t.Errorf("claimSize(%d, %d) = %d, want %d", tc.work, tc.workers, got, tc.want)
		}
	}
	for work := 1; work <= 5000; work += 7 {
		for workers := 1; workers <= 64; workers++ {
			c := claimSize(work, workers)
			if c < 1 || c > claimChunk {
				t.Fatalf("claimSize(%d, %d) = %d outside [1, %d]", work, workers, c, claimChunk)
			}
			if work >= workers && c*workers > work {
				t.Fatalf("claimSize(%d, %d) = %d: some worker cannot claim a block", work, workers, c)
			}
		}
	}
}
