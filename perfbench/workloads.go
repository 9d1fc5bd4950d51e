package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"stretch/internal/calib"
	"stretch/internal/colocate"
	"stretch/internal/core"
	"stretch/internal/fleet"
	"stretch/internal/sampling"
	"stretch/internal/workload"
)

// weekTrace is the committed week-long trace the search suite replays.
const weekTrace = "cmd/stretchsim/testdata/week_mixed.trace.csv"

// committedTable is the committed full-catalogue calibration table that
// calib-mixed is checked against at seed 1.
const committedTable = "internal/calib/testdata/default_table.json"

// scale sizes every workload. fullScale is the benchmark; the harness
// tests run toyScale.
type scale struct {
	day, failover, search fleetShape
	calibSpec             sampling.Spec
	calibServices         []string
}

var fullScale = scale{
	day:       fleetShape{servers: 64, cores: 16, policy: fleet.PolicyFeedback, engine: fleet.EngineDiscrete, hours: 24, wph: 4, windowReq: 400},
	failover:  fleetShape{servers: 256, cores: 16, policy: fleet.PolicyFeedback, engine: fleet.EngineAuto, hours: 24, wph: 4, windowReq: 400},
	search:    fleetShape{servers: 4, cores: 4, policy: fleet.PolicyStatic, engine: fleet.EngineDiscrete, hours: 24, wph: 4, windowReq: 150},
	calibSpec: sampling.Standard(),
}

// calibBatches are the mixed spec's three batch pairings.
var calibBatches = []string{workload.Zeusmp, "libquantum", "mcf"}

// options are a run's inputs.
type options struct {
	seed  uint64
	root  string
	scale scale
}

// workers pins every worker pool to the machine's CPU count.
func workers() int { return runtime.NumCPU() }

// fleetRun is one fleet.Run call: its config, result and host cost.
type fleetRun struct {
	cfg        fleet.Config
	res        fleet.Result
	wall, cpu  time.Duration
	allocBytes uint64
}

// cellRun is one sampling cell of a calibration build.
type cellRun struct {
	wall time.Duration
	ls   sampling.Agg
	// batch is the second hardware thread's aggregate (zero for solo cells).
	batch sampling.Agg
	solo  bool
}

// outcome is what one job produced. digest covers every simulated
// statistic; the traced path also fills runs and cells for attribution.
type outcome struct {
	digest string
	runs   []fleetRun
	cells  []cellRun
	// work is a calibration build's nominal µop budget; tableCPU and
	// tableWall are a traced build's CPU and wall time.
	work                float64
	tableCPU, tableWall time.Duration
}

// instance is one set-up workload. run executes one job; a non-nil tracer
// selects the decomposed path that records a span around every call into
// a layer's public function.
type instance interface {
	run(tr *tracer) (outcome, error)
}

// workloadDef names a workload and builds it for a seed.
type workloadDef struct {
	name  string
	setup func(o options, st *setupTimes) (instance, error)
}

var workloads = map[string]workloadDef{
	"day-discrete":  {"day-discrete", setupDay},
	"failover-auto": {"failover-auto", setupFailover},
	"search-grid":   {"search-grid", setupSearch},
	"calib-mixed":   {"calib-mixed", setupCalib},
}

func workloadList() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// ---- fleet workloads: one fleet.Run per job ----

type fleetWorkload struct{ cfg fleet.Config }

func setupDay(o options, st *setupTimes) (instance, error) {
	cfg, err := namedConfig("mixed", o.scale.day, o.seed, workers(), st)
	return &fleetWorkload{cfg}, err
}

func setupFailover(o options, st *setupTimes) (instance, error) {
	cfg, err := namedConfig("failover", o.scale.failover, o.seed, workers(), st)
	return &fleetWorkload{cfg}, err
}

func (f *fleetWorkload) run(tr *tracer) (outcome, error) {
	fr, err := tracedRun(tr, "fleet.Run", 0, f.cfg)
	if err != nil {
		return outcome{}, err
	}
	if err := checkResult(fr.res); err != nil {
		return outcome{}, err
	}
	return outcome{digest: digestResult(fr.res), runs: []fleetRun{fr}}, nil
}

// tracedRun calls fleet.Run inside a span, measuring its wall, CPU and
// allocation cost when traced.
func tracedRun(tr *tracer, name string, parent int, cfg fleet.Config) (fleetRun, error) {
	var m0, m1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	id := tr.begin(name, parent)
	c0, t0 := cpuTime(), time.Now()
	res, err := fleet.Run(cfg)
	wall, cpu := time.Since(t0), cpuTime()-c0
	tr.end(id)
	if tr != nil {
		runtime.ReadMemStats(&m1)
	}
	if err != nil {
		return fleetRun{}, fmt.Errorf("fleet.Run: %w", err)
	}
	return fleetRun{cfg: cfg, res: res, wall: wall, cpu: cpu, allocBytes: m1.TotalAlloc - m0.TotalAlloc}, nil
}

// ---- search-grid: the policy search over the week trace + failover day ----

type searchWorkload struct {
	suite []fleet.Config
	cands []fleet.SchedulerConfig
	w     fleet.FitnessWeights
}

func setupSearch(o options, st *setupTimes) (instance, error) {
	week, err := traceConfig(filepath.Join(o.root, weekTrace), o.scale.search, o.seed, workers(), st)
	if err != nil {
		return nil, err
	}
	fo, err := namedConfig("failover", o.scale.search, o.seed, workers(), st)
	if err != nil {
		return nil, err
	}
	return &searchWorkload{
		suite: []fleet.Config{week, fo},
		cands: fleet.SearchGrid(),
		w:     fleet.DefaultFitnessWeights(),
	}, nil
}

func (s *searchWorkload) run(tr *tracer) (outcome, error) {
	if tr == nil {
		outs, err := fleet.SearchSchedulers(s.suite, s.cands, s.w)
		if err != nil {
			return outcome{}, err
		}
		if err := checkSearch(outs, len(s.cands)); err != nil {
			return outcome{}, err
		}
		return outcome{digest: digestSearch(outs)}, nil
	}
	// Traced: the same sweep decomposed into its per-candidate fleet.Run
	// calls, ranked exactly as SearchSchedulers ranks them.
	top := tr.begin("fleet.SearchSchedulers", 0)
	defer tr.end(top)
	var (
		outs []fleet.SearchOutcome
		runs []fleetRun
	)
	for _, cand := range s.cands {
		out := fleet.SearchOutcome{Scheduler: cand.WithDefaults(), PerTrace: make([]float64, len(s.suite))}
		for ti, cfg := range s.suite {
			cfg.Scheduler = cand
			fr, err := tracedRun(tr, "fleet.Run", top, cfg)
			if err != nil {
				return outcome{}, err
			}
			if err := checkResult(fr.res); err != nil {
				return outcome{}, fmt.Errorf("candidate %s on suite entry %d: %w", cand.Policy, ti, err)
			}
			f := s.w.Score(fr.res)
			out.PerTrace[ti] = f
			out.Fitness += f
			out.Violations += fr.res.ViolationWindows
			out.Migrations += fr.res.Migrations
			out.BatchCoreHoursGained += fr.res.BatchCoreHoursGained
			out.Fairness += fr.res.FairnessIndex
			runs = append(runs, fr)
		}
		out.Fairness /= float64(len(s.suite))
		outs = append(outs, out)
	}
	sort.SliceStable(outs, func(a, b int) bool { return outs[a].Fitness > outs[b].Fitness })
	if err := checkSearch(outs, len(s.cands)); err != nil {
		return outcome{}, err
	}
	return outcome{digest: digestSearch(outs), runs: runs}, nil
}

// ---- calib-mixed: the cycle-level calibration build ----

type calibWorkload struct {
	in        calib.Inputs
	committed *calib.Table
	// checkBits requires the built table to match committed bit for bit:
	// the committed table was built at sampling.Standard(), seed 1.
	checkBits bool
}

func setupCalib(o options, st *setupTimes) (instance, error) {
	spec := o.scale.calibSpec
	spec.Seed = o.seed
	services := o.scale.calibServices
	if services == nil {
		services = workload.ServiceNames()
	}
	in := calib.Inputs{
		Services: services, Batches: calibBatches,
		BSkew: calib.DefaultBSkew, QSkew: calib.DefaultQSkew, Spec: spec,
	}
	t0 := time.Now()
	committed, err := calib.Load(filepath.Join(o.root, committedTable))
	if err != nil {
		return nil, err
	}
	st.traceLoad += time.Since(t0)
	t0 = time.Now()
	err = in.Validate()
	if err == nil {
		_, err = in.Fingerprint()
	}
	st.validate += time.Since(t0)
	return &calibWorkload{in: in, committed: committed, checkBits: spec == sampling.Standard()}, err
}

// budgetUops is the build's nominal simulated µop budget: every cell's
// samples × hardware threads × (warm-up + measure).
func (c *calibWorkload) budgetUops() float64 {
	sp := c.in.Spec
	perThread := float64(sp.Samples) * float64(sp.Warmup+sp.Measure)
	pairs := float64(len(c.in.Services) * len(c.in.Batches))
	solo := float64(len(c.in.Services) + len(c.in.Batches))
	return perThread * (3*pairs*2 + solo)
}

func (c *calibWorkload) run(tr *tracer) (outcome, error) {
	if tr == nil {
		t, err := calib.Build(c.in)
		if err != nil {
			return outcome{}, err
		}
		if err := c.check(t); err != nil {
			return outcome{}, err
		}
		return outcome{digest: digestTable(t)}, nil
	}
	c0, t0 := cpuTime(), time.Now()
	t, cells, err := c.buildTraced(tr)
	cpu, wall := cpuTime()-c0, time.Since(t0)
	if err != nil {
		return outcome{}, err
	}
	if err := c.check(t); err != nil {
		return outcome{}, err
	}
	return outcome{digest: digestTable(t), cells: cells, work: c.budgetUops(), tableCPU: cpu, tableWall: wall}, nil
}

func (c *calibWorkload) check(t *calib.Table) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if c.checkBits {
		return matchCommitted(t, c.committed)
	}
	return nil
}

// buildTraced is calib.Build decomposed into the calls it makes — three
// colocate grids (equal, B-skew, Q-skew partitions) and a solo pass, each
// fanned out over sampling.Parallel — with a span around every grid and
// every sampling cell. It distils the table with the same arithmetic.
func (c *calibWorkload) buildTraced(tr *tracer) (*calib.Table, []cellRun, error) {
	in := c.in
	hash, err := in.Fingerprint()
	if err != nil {
		return nil, nil, err
	}
	top := tr.begin("calib.Build", 0)
	defer tr.end(top)
	var (
		mu    sync.Mutex
		cells []cellRun
	)
	grid := func(name string, cfg core.Config) (map[string]map[string]colocate.Pair, error) {
		g := tr.begin("colocate.Grid["+name+"]", top)
		defer tr.end(g)
		out := make(map[string]map[string]colocate.Pair, len(in.Services))
		for _, s := range in.Services {
			out[s] = make(map[string]colocate.Pair, len(in.Batches))
		}
		var jobs []sampling.Job
		for _, s := range in.Services {
			for _, b := range in.Batches {
				s, b := s, b
				jobs = append(jobs, func() error {
					lp, err := workload.Lookup(s)
					if err != nil {
						return err
					}
					bp, err := workload.Lookup(b)
					if err != nil {
						return err
					}
					id := tr.begin("sampling.Colocated", g)
					t0 := time.Now()
					a0, a1, err := sampling.Colocated(cfg, lp, bp, in.Spec)
					d := time.Since(t0)
					tr.end(id)
					if err != nil {
						return err
					}
					mu.Lock()
					out[s][b] = colocate.Pair{LS: s, Batch: b, LSAgg: a0, BatchAgg: a1}
					cells = append(cells, cellRun{wall: d, ls: a0, batch: a1})
					mu.Unlock()
					return nil
				})
			}
		}
		return out, sampling.Parallel(jobs)
	}
	equal, err := grid("equal", colocate.BaselineConfig())
	if err != nil {
		return nil, nil, err
	}
	bGrid, err := grid("b-skew", colocate.SkewConfig(in.BSkew))
	if err != nil {
		return nil, nil, err
	}
	qGrid, err := grid("q-skew", colocate.SkewConfig(in.QSkew))
	if err != nil {
		return nil, nil, err
	}

	names := append(append([]string(nil), in.Services...), in.Batches...)
	solo := make(map[string]float64, len(names))
	g := tr.begin("colocate.SoloIPC", top)
	var jobs []sampling.Job
	for _, n := range names {
		n := n
		jobs = append(jobs, func() error {
			p, err := workload.Lookup(n)
			if err != nil {
				return err
			}
			id := tr.begin("sampling.Solo", g)
			t0 := time.Now()
			a, err := sampling.Solo(core.Solo(), p, in.Spec)
			d := time.Since(t0)
			tr.end(id)
			if err != nil {
				return err
			}
			mu.Lock()
			solo[n] = a.IPC
			cells = append(cells, cellRun{wall: d, ls: a, solo: true})
			mu.Unlock()
			return nil
		})
	}
	err = sampling.Parallel(jobs)
	tr.end(g)
	if err != nil {
		return nil, nil, err
	}

	t := &calib.Table{Hash: hash, Inputs: in, Pairs: make(map[string]map[string]calib.PairPerf), SoloIPC: solo}
	for _, s := range in.Services {
		t.Pairs[s] = make(map[string]calib.PairPerf, len(in.Batches))
		for _, b := range in.Batches {
			eq, bm, qm := equal[s][b], bGrid[s][b], qGrid[s][b]
			t.Pairs[s][b] = calib.PairPerf{
				B: calib.Cell{
					LSSlowdown:   colocate.Slowdown(bm.LSAgg.IPC, eq.LSAgg.IPC),
					BatchSpeedup: colocate.Speedup(bm.BatchAgg.IPC, eq.BatchAgg.IPC),
				},
				Q: calib.Cell{
					LSSlowdown:   colocate.Slowdown(qm.LSAgg.IPC, eq.LSAgg.IPC),
					BatchSpeedup: colocate.Speedup(qm.BatchAgg.IPC, eq.BatchAgg.IPC),
				},
				EqualLSIPC:    eq.LSAgg.IPC,
				EqualBatchIPC: eq.BatchAgg.IPC,
			}
		}
	}
	return t, cells, nil
}

// ---- the auto-engine fidelity check ----

// fidelityResult compares the auto engine to the discrete reference on the
// day-discrete config.
type fidelityResult struct {
	p99ErrPct, violErrPct float64
	auto                  fleetRun
}

// fidelity runs the day-discrete config under the discrete and the auto
// engine and compares them per client.
func fidelity(o options) (fidelityResult, error) {
	var st setupTimes
	cfg, err := namedConfig("mixed", o.scale.day, o.seed, workers(), &st)
	if err != nil {
		return fidelityResult{}, err
	}
	ref, err := tracedRun(nil, "", 0, cfg)
	if err != nil {
		return fidelityResult{}, err
	}
	cfg.Engine = fleet.EngineAuto
	auto, err := tracedRun(nil, "", 0, cfg)
	if err != nil {
		return fidelityResult{}, err
	}
	if err := checkResult(auto.res); err != nil {
		return fidelityResult{}, fmt.Errorf("auto replay: %w", err)
	}
	p99, viol, err := fidelityErrors(ref.res, auto.res)
	return fidelityResult{p99ErrPct: p99, violErrPct: viol, auto: auto}, err
}

// fidelityErrors is the auto-vs-discrete error pair: the worst per-client
// relative p99 error, and the summed per-client violation-rate error over
// the summed discrete violation rate (rate = violation windows per
// serving core-window), both in percent.
func fidelityErrors(disc, auto fleet.Result) (p99Pct, violPct float64, err error) {
	if len(disc.Clients) != len(auto.Clients) {
		return 0, 0, fmt.Errorf("client lists differ (%d vs %d)", len(disc.Clients), len(auto.Clients))
	}
	rate := func(c fleet.ClientMetrics) float64 {
		if c.CoreWindows == 0 {
			return 0
		}
		return float64(c.ViolationWindows) / float64(c.CoreWindows)
	}
	var num, den float64
	for i, d := range disc.Clients {
		a := auto.Clients[i]
		if !(d.P99Ms > 0) {
			return 0, 0, fmt.Errorf("client %s: discrete p99 %v is not positive", d.Client, d.P99Ms)
		}
		p99Pct = math.Max(p99Pct, 100*math.Abs(a.P99Ms-d.P99Ms)/d.P99Ms)
		num += math.Abs(rate(a) - rate(d))
		den += rate(d)
	}
	if !(den > 0) {
		return 0, 0, fmt.Errorf("the discrete reference has no violations to compare against")
	}
	return p99Pct, 100 * num / den, nil
}
