package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"stretch/internal/branch"
	"stretch/internal/cache"
	"stretch/internal/colocate"
	"stretch/internal/core"
	"stretch/internal/fleet"
	"stretch/internal/isa"
	"stretch/internal/monitor"
	"stretch/internal/queueing"
	"stretch/internal/rng"
	"stretch/internal/sampling"
	"stretch/internal/stats"
	"stretch/internal/trace"
	"stretch/internal/workload"
)

// perLayer lists every per-layer metric with its unit, in report order.
// Counts are 0 for a layer the workload's path never calls. The fleet
// layers' unit costs are replayed on every fleet workload, the core
// model's on calib-mixed; elsewhere they read 0.
var perLayer = []struct{ name, unit string }{
	{"queueing.requests", "count"}, {"queueing.ns_per_request", "ns"}, {"queueing.busy_share", "ratio"},
	{"analytic.share", "ratio"}, {"analytic.solves", "count"}, {"analytic.us_per_solve", "us"}, {"analytic.reuse", "ratio"},
	{"auto.p99_err_pct", "%"}, {"auto.viol_err_pct", "%"},
	{"stats.adds", "count"}, {"stats.ns_per_add", "ns"}, {"stats.ns_per_quantile", "ns"},
	{"monitor.observes", "count"}, {"monitor.ns_per_observe", "ns"}, {"monitor.switches", "count"},
	{"fleet.run_s", "s"}, {"fleet.window_ms", "ms"}, {"fleet.cpu_util", "ratio"},
	{"fleet.residue_cw", "count"}, {"fleet.cohort_cw", "count"},
	{"fleet.attributed_s", "s"}, {"fleet.self_s", "s"},
	{"fleet.alloc_mb_per_mcw", "MB/Mcw"}, {"fleet.corewin_per_s", "1/s"},
	{"search.runs", "count"}, {"search.run_ms.p50", "ms"}, {"search.run_ms.p75", "ms"},
	{"search.window_us", "us"}, {"search.cpu_util", "ratio"},
	{"core.cycles", "count"}, {"core.uops", "count"}, {"core.ns_per_cycle", "ns"}, {"core.uops_per_s", "1/s"},
	{"trace.ns_per_uop", "ns"}, {"cache.ns_per_access", "ns"}, {"branch.ns_per_predict", "ns"},
	{"core.ipc", "uops/cycle"}, {"cache.l1d_miss_rate", "ratio"}, {"cache.l1i_miss_rate", "ratio"},
	{"branch.mispredict_rate", "ratio"},
	{"calib.cells", "count"}, {"calib.cell_s.p50", "s"}, {"calib.cell_s.p75", "s"}, {"calib.cpu_util", "ratio"},
	{"setup.peak_anchor_s", "s"}, {"setup.trace_load_s", "s"}, {"setup.validate_s", "s"},
	{"trace.overhead_pct", "%"},
}

// runTraced alternates untraced and traced jobs for the budget, then
// attributes the traced job's time to layers and reports the per-layer
// metrics. The untraced jobs give the baseline the tracing overhead is
// measured against.
func runTraced(def workloadDef, o options, budget time.Duration) (report, error) {
	w, _, split, err := setupMedian(def, o)
	if err != nil {
		return report{}, err
	}
	tr := newTracer()
	var (
		plain, traced     []float64
		attempted, failed int
		last, lastTraced  outcome
		haveTraced        bool
	)
	n := 0
	loop(budget, 2, func() time.Duration {
		var t *tracer
		if n%2 == 1 {
			t = tr
		}
		n++
		t0 := time.Now()
		out, jerr := w.run(t)
		d := time.Since(t0)
		attempted++
		if jerr != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: job failed: %v\n", jerr)
			return d
		}
		if last.digest != "" && out.digest != last.digest {
			// The traced path decomposes the job into the calls it makes;
			// it must reproduce the untraced job's results exactly.
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: job digest %s differs from the previous job's %s at the same seed\n", out.digest, last.digest)
		}
		last = out
		if t == nil {
			plain = append(plain, d.Seconds())
		} else {
			traced = append(traced, d.Seconds())
			lastTraced, haveTraced = out, true
		}
		return d
	})
	if !haveTraced || len(plain) == 0 {
		return report{}, fmt.Errorf("no traced and untraced job pair completed")
	}
	last = lastTraced
	fmt.Printf("digest %s %s\n", def.name, last.digest)

	m := map[string]float64{}
	m["setup.peak_anchor_s"] = split.peakAnchor.Seconds()
	m["setup.trace_load_s"] = split.traceLoad.Seconds()
	m["setup.validate_s"] = split.validate.Seconds()
	m["trace.overhead_pct"] = 100 * (median(traced) - median(plain)) / median(plain)

	fid, ferr := fidelity(o)
	attempted++
	if ferr != nil {
		failed++
		fmt.Fprintf(os.Stderr, "perfbench: fidelity check failed: %v\n", ferr)
	} else {
		m["auto.p99_err_pct"], m["auto.viol_err_pct"] = fid.p99ErrPct, fid.violErrPct
	}

	if len(last.runs) > 0 {
		analyticRuns := last.runs
		if def.name == "day-discrete" && ferr == nil {
			// The timed engine is discrete; the analytic layer is
			// exercised by the fidelity check's auto replay.
			analyticRuns = []fleetRun{fid.auto}
		}
		fleetLayers(m, last.runs, analyticRuns, o.seed)
		if def.name == "search-grid" {
			searchLayers(m, tr, last.runs)
		}
	}
	if len(last.cells) > 0 {
		calibLayers(m, last, o)
	}

	path := filepath.Join(spanDir(o.root), fmt.Sprintf("%s-seed%d.jsonl", def.name, o.seed))
	if err := tr.write(path); err != nil {
		return report{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %s\n", path)

	metrics := make(map[string]metric, len(perLayer))
	for _, pl := range perLayer {
		metrics[pl.name] = metric{m[pl.name], pl.unit}
	}
	return report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// point is one operating point of a fleet run: a client's per-core rate
// and perf factor in one window, weighted by the core-windows it stands
// for.
type point struct {
	ci         int
	rate, perf float64
	weight     float64
}

// maxPoints bounds the operating points replayed per layer.
const maxPoints = 48

// operatingPoints samples a run's (client, window) operating points from
// its window trace: per-core rate = offered rate / serving cores, perf =
// mean server generation × the B-mode LS slowdown on the client's B-mode
// share of cores.
func operatingPoints(fr fleetRun, analytic bool) []point {
	gen := 0.0
	pf := fr.cfg.Scenario.PerfFactors(fr.cfg.Servers)
	for _, f := range pf {
		gen += f
	}
	gen /= float64(len(pf))
	var all []point
	for _, o := range fr.res.WindowTrace {
		share := 1.0
		if o.ServingCores > 0 {
			share = float64(o.AnalyticCores) / float64(o.ServingCores)
		}
		if !analytic {
			share = 1 - share
		}
		for ci, c := range o.Clients {
			if c.Cores == 0 || c.OfferedRPS <= 0 || share == 0 {
				continue
			}
			bShare := float64(c.BCores) / float64(c.Cores)
			all = append(all, point{
				ci: ci, rate: c.OfferedRPS / float64(c.Cores),
				perf:   gen * (1 - fr.cfg.LSSlowdownB*bShare),
				weight: float64(c.Cores) * share,
			})
		}
	}
	if len(all) <= maxPoints {
		return all
	}
	// Keep every k-th point, folding the skipped points' weight into it.
	k := (len(all) + maxPoints - 1) / maxPoints
	out := make([]point, 0, maxPoints)
	for i := 0; i < len(all); i += k {
		p := all[i]
		for j := i + 1; j < i+k && j < len(all); j++ {
			p.weight += all[j].weight
		}
		out = append(out, p)
	}
	return out
}

// queueingConfigs rebuilds the per-client service configs the engine
// simulates (the SLO-scaled target, the run's tail estimator).
func queueingConfigs(cfg fleet.Config) []queueing.Config {
	out := make([]queueing.Config, len(cfg.Traffic.Clients))
	for ci, cl := range cfg.Traffic.Clients {
		svc := workload.Services()[cl.Service]
		out[ci] = queueing.Config{
			Workers: svc.Workers, MeanServiceMs: svc.MeanServiceMs,
			ServiceCV: svc.ServiceCV, BurstProb: svc.BurstProb, BurstLen: svc.BurstLen,
			QoSQuantile: svc.QoSQuantile, QoSTargetMs: svc.QoSTargetMs * cl.SLO.Scale(),
			Estimator: cfg.TailEstimator,
		}
	}
	return out
}

// weighted is a weight-averaged accumulator.
type weighted struct{ sum, w float64 }

func (a *weighted) add(v, w float64) { a.sum += v * w; a.w += w }
func (a weighted) mean() float64 {
	if a.w == 0 {
		return 0
	}
	return a.sum / a.w
}

// fleetLayers attributes the fleet runs' time to the layers inside
// fleet.Run: unit costs replayed at the runs' operating points, times the
// counts the Results report. analyticRuns supply the analytic layer's
// counts and points.
func fleetLayers(m map[string]float64, runs, analyticRuns []fleetRun, seed uint64) {
	var (
		serving, cohort, discreteCW, windows, clientWindows float64
		requests, switches, allocB                          float64
		wall, cpu                                           time.Duration
	)
	for _, fr := range runs {
		r := fr.res
		s := float64(servingCW(r))
		serving += s
		cohort += float64(r.CohortCoreWindows)
		d := s - float64(r.AnalyticCoreWindows)
		discreteCW += d
		requests += d * float64(fr.cfg.WindowRequests)
		windows += float64(r.Windows)
		clientWindows += float64(r.Windows * len(r.Clients))
		switches += float64(r.Switches)
		allocB += float64(fr.allocBytes)
		wall += fr.wall
		cpu += fr.cpu
	}

	// Unit costs at the operating points. The first run stands for the
	// suite when there are several (the search repeats the same traffic
	// under each candidate).
	ref := runs[0]
	qcfgs := queueingConfigs(ref.cfg)
	var nsReq, addsPerSim weighted
	sim := new(queueing.Simulator)
	for i, p := range operatingPoints(ref, false) {
		if err := sim.Reset(qcfgs[p.ci]); err != nil {
			continue
		}
		const reps = 40
		t0 := time.Now()
		var measured int
		for k := 0; k < reps; k++ {
			r, err := sim.Simulate(p.rate, ref.cfg.WindowRequests, p.perf, rng.New(seed).Derive(uint64(i*reps+k)).Uint64())
			if err != nil {
				break
			}
			measured += r.Requests
		}
		d := time.Since(t0)
		nsReq.add(float64(d.Nanoseconds())/float64(reps*ref.cfg.WindowRequests), p.weight)
		addsPerSim.add(float64(measured)/reps, p.weight)
	}

	var (
		aShare, aCW, aSolves float64
		usSolve              weighted
	)
	for _, fr := range analyticRuns {
		aCW += float64(fr.res.AnalyticCoreWindows)
		aShare += float64(servingCW(fr.res))
		aSolves += float64(fr.res.AnalyticSolves)
	}
	if aShare > 0 {
		aShare = aCW / aShare
	}
	aRef := analyticRuns[0]
	aCfgs := queueingConfigs(aRef.cfg)
	for _, p := range operatingPoints(aRef, aCW > 0) {
		if queueing.Utilization(aCfgs[p.ci], p.rate, p.perf) > queueing.AnalyticMaxUtilization {
			continue
		}
		const reps = 3
		t0 := time.Now()
		ok := true
		for k := 0; k < reps; k++ {
			if _, err := queueing.AnalyticTail(aCfgs[p.ci], p.rate, p.perf, aRef.cfg.WindowRequests); err != nil {
				ok = false
			}
		}
		if ok {
			usSolve.add(float64(time.Since(t0).Nanoseconds())/1e3/reps, p.weight)
		}
	}

	nsAdd, nsQuant := histogramCosts(seed)
	nsObs := observeCost(seed)

	// Histogram adds: one per request the simulator measures, plus the
	// engine's per-core-window shard add.
	adds := discreteCW*addsPerSim.mean() + serving
	ownSolves := 0.0
	for _, fr := range runs {
		ownSolves += float64(fr.res.AnalyticSolves)
	}
	queueCPU := requests * nsReq.mean() // includes the simulator's own histogram work
	attrCPU := queueCPU +
		ownSolves*usSolve.mean()*1e3 +
		(serving*nsAdd + clientWindows*nsQuant) +
		serving*nsObs
	par := cpu.Seconds() / wall.Seconds() // achieved parallelism turns CPU into wall time
	attributed := attrCPU / 1e9 / par

	m["queueing.requests"] = requests
	m["queueing.ns_per_request"] = nsReq.mean()
	m["queueing.busy_share"] = queueCPU / 1e9 / cpu.Seconds()
	m["analytic.share"] = aShare
	m["analytic.solves"] = aSolves
	m["analytic.us_per_solve"] = usSolve.mean()
	if aSolves > 0 {
		m["analytic.reuse"] = aCW / aSolves
	}
	m["stats.adds"] = adds
	m["stats.ns_per_add"] = nsAdd
	m["stats.ns_per_quantile"] = nsQuant
	m["monitor.observes"] = serving
	m["monitor.ns_per_observe"] = nsObs
	m["monitor.switches"] = switches
	m["fleet.run_s"] = wall.Seconds()
	m["fleet.window_ms"] = wall.Seconds() * 1e3 / windows
	m["fleet.cpu_util"] = cpu.Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	m["fleet.residue_cw"] = serving - cohort
	m["fleet.cohort_cw"] = cohort
	m["fleet.attributed_s"] = attributed
	m["fleet.self_s"] = wall.Seconds() - attributed
	m["fleet.alloc_mb_per_mcw"] = allocB / (1 << 20) / (serving / 1e6)
	m["fleet.corewin_per_s"] = serving / wall.Seconds()
}

// histogramCosts times Histogram.Add and Quantile on tail-histogram
// latencies spread over the fleet's range (0.1 ms to 2 s).
func histogramCosts(seed uint64) (nsAdd, nsQuantile float64) {
	s := rng.New(seed).Derive(0x57A7)
	xs := make([]float64, 1<<16)
	for i := range xs {
		xs[i] = 0.1 * math.Pow(2e4, s.Float64())
	}
	h := stats.NewTailHistogram()
	const rounds = 30
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, x := range xs {
			h.Add(x)
		}
	}
	nsAdd = float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(xs))
	const queries = 20000
	sink := 0.0
	t0 = time.Now()
	for q := 0; q < queries; q++ {
		sink += h.Quantile(0.99)
	}
	nsQuantile = float64(time.Since(t0).Nanoseconds()) / queries
	if sink < 0 {
		fmt.Fprintln(os.Stderr, sink) // keeps the loop from being optimised away
	}
	return nsAdd, nsQuantile
}

// observeCost times Controller.Observe on tails straddling the target.
func observeCost(seed uint64) float64 {
	const target = 100.0
	var c monitor.Controller
	if err := c.Reset(monitor.DefaultConfig(target)); err != nil {
		return 0
	}
	s := rng.New(seed).Derive(0x0B5)
	tails := make([]float64, 4096)
	for i := range tails {
		tails[i] = target * (0.4 + 0.8*s.Float64())
	}
	const rounds = 200
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, t := range tails {
			c.Observe(monitor.Observation{TailMs: t})
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(tails))
}

// searchLayers reports the sweep's per-run distribution and its CPU use.
func searchLayers(m map[string]float64, tr *tracer, runs []fleetRun) {
	var (
		ms        []float64
		wall, cpu time.Duration
		windows   int
	)
	for _, fr := range runs {
		ms = append(ms, fr.wall.Seconds()*1e3)
		wall += fr.wall
		cpu += fr.cpu
		windows += fr.res.Windows
	}
	m["search.runs"] = float64(len(runs))
	m["search.run_ms.p50"] = quantile(ms, 0.5)
	m["search.run_ms.p75"] = quantile(ms, 0.75)
	m["search.window_us"] = wall.Seconds() * 1e6 / float64(windows)
	if sweep := tr.durations("fleet.SearchSchedulers"); len(sweep) > 0 {
		m["search.cpu_util"] = cpu.Seconds() / (sweep[len(sweep)-1] * float64(runtime.GOMAXPROCS(0)))
	}
}

// calibLayers reports the calibration build's cells, the simulated
// microarchitectural rates, and the core model's unit costs.
func calibLayers(m map[string]float64, out outcome, o options) {
	var cellS []float64
	var ipc, l1d, l1i, mis weighted
	for _, c := range out.cells {
		cellS = append(cellS, c.wall.Seconds())
		aggs := []sampling.Agg{c.ls}
		if !c.solo {
			aggs = append(aggs, c.batch)
		}
		for _, a := range aggs {
			ipc.add(a.IPC, 1)
			l1d.add(a.L1DMissRate, 1)
			l1i.add(a.L1IMissRate, 1)
			mis.add(a.MispredictRate, 1)
		}
	}
	m["calib.cells"] = float64(len(out.cells))
	m["calib.cell_s.p50"] = quantile(cellS, 0.5)
	m["calib.cell_s.p75"] = quantile(cellS, 0.75)
	m["calib.cpu_util"] = out.tableCPU.Seconds() / (out.tableWall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	m["core.ipc"] = ipc.mean()
	m["cache.l1d_miss_rate"] = l1d.mean()
	m["cache.l1i_miss_rate"] = l1i.mean()
	m["branch.mispredict_rate"] = mis.mean()
	m["core.uops"] = out.work
	m["core.uops_per_s"] = out.work / out.tableWall.Seconds()

	cyclesPerUop, nsCycle := coreCosts(o)
	m["core.cycles"] = cyclesPerUop * out.work
	m["core.ns_per_cycle"] = nsCycle
	m["trace.ns_per_uop"], m["cache.ns_per_access"], m["branch.ns_per_predict"] = componentCosts(o.seed)
}

// coreCosts runs one colocated sample of every service against the first
// batch pairing on the equal-partition core and returns the cycles per
// simulated µop and the host nanoseconds per simulated cycle.
func coreCosts(o options) (cyclesPerUop, nsPerCycle float64) {
	spec := o.scale.calibSpec
	services := o.scale.calibServices
	if services == nil {
		services = workload.ServiceNames()
	}
	bp, err := workload.Lookup(calibBatches[0])
	if err != nil {
		return 0, 0
	}
	var cycles, uops float64
	var wall time.Duration
	for i, s := range services {
		lp, err := workload.Lookup(s)
		if err != nil {
			return 0, 0
		}
		seeds := rng.New(o.seed).Derive(0xC0DE).Derive(uint64(i))
		g0, err0 := trace.NewGenerator(lp, seeds.Uint64())
		g1, err1 := trace.NewGenerator(bp, seeds.Uint64())
		if err0 != nil || err1 != nil {
			return 0, 0
		}
		c, err := core.New(colocate.BaselineConfig(), g0, g1)
		if err != nil {
			return 0, 0
		}
		t0 := time.Now()
		if _, err := c.Run(core.RunSpec{WarmupInstr: spec.Warmup, MeasureInstr: spec.Measure}); err != nil {
			return 0, 0
		}
		wall += time.Since(t0)
		cycles += float64(c.Cycle())
		uops += 2 * float64(spec.Warmup+spec.Measure)
	}
	return cycles / uops, float64(wall.Nanoseconds()) / cycles
}

// componentCosts times the core model's components in isolation on a
// web-search µop stream: Generator.Next, an L1 Cache.Access per memory op,
// and a branch Predict+Update per branch.
func componentCosts(seed uint64) (nsUop, nsAccess, nsPredict float64) {
	p, err := workload.Lookup(workload.WebSearch)
	if err != nil {
		return 0, 0, 0
	}
	g, err := trace.NewGenerator(p, rng.New(seed).Derive(0x7EACE).Uint64())
	if err != nil {
		return 0, 0, 0
	}
	const n = 1 << 20
	var (
		addrs []uint64
		brs   []isa.MicroOp
	)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op := g.Next()
		if i < n/4 {
			switch {
			case op.Kind.IsMem():
				addrs = append(addrs, op.Addr)
			case op.Kind == isa.OpBranch:
				brs = append(brs, op)
			}
		}
	}
	nsUop = float64(time.Since(t0).Nanoseconds()) / n

	const rounds = 8
	l1 := cache.New(cache.L1Config())
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for _, a := range addrs {
			l1.Access(a)
		}
	}
	if len(addrs) > 0 {
		nsAccess = float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(addrs))
	}
	bp := branch.New(branch.DefaultConfig(), true)
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for _, op := range brs {
			bp.Predict(0, op.PC)
			bp.Update(0, op.PC, op.Taken)
		}
	}
	if len(brs) > 0 {
		nsPredict = float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(brs))
	}
	return nsUop, nsAccess, nsPredict
}
