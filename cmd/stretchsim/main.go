// Command stretchsim regenerates the paper's tables and figures from the
// simulator, runs datacenter-scale fleet studies over synthetic traffic,
// and synthesises/replays recorded traffic traces.
//
// Usage:
//
//	stretchsim -list
//	stretchsim -experiment fig9 [-scale full]
//	stretchsim -experiment all [-scale quick]
//	stretchsim -fleet [-servers 64] [-cores 16] [-trace mixed|<file>]
//	           [-policy static|proportional|p2c|feedback] [-events "drain:24:0,..."]
//	           [-autoscale off|util|violation] [-autoscale-min 1]
//	           [-tail-estimator histogram|exact] [-engine discrete|auto]
//	           [-calib default|<path.json>]
//	           [-hours 24] [-windows-per-hour 4] [-window-requests 400]
//	           [-seed 1] [-fleet-workers 0] [-window-trace]
//	           [-trace-level off|summary|full] [-counterfactual-k 0]
//	           [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	stretchsim synth [-spec mixed] [-servers 64] [-cores 16] [-hours 168]
//	           [-windows-per-hour 4] [-seed 1] [-arrival gamma:1.5]
//	           [-cohorts 4:1:6] [-events "..."] [-format csv|jsonl] [-o week.trace.csv]
//	stretchsim plan -trace week.trace.csv [-budget 0] [-cores 16]
//	           [-min-servers 1] [-max-servers 64] [-policy feedback]
//	           [-tail-estimator histogram|exact] [-engine discrete|auto]
//	           [-calib default|<path.json>]
//	           [-window-requests 400] [-seed 1] [-fleet-workers 0]
//	stretchsim search [-traces week.trace.csv,failover] [-servers 4] [-cores 4]
//	           [-weights viol=1,batch=0.5,migr=0.05,fair=25] [-top 0]
//	           [-tail-estimator histogram|exact] [-hours 24]
//	           [-windows-per-hour 4] [-window-requests 150] [-seed 1]
//
// A -trace value that is not a named spec is replayed from that trace
// file (as written by synth or by fleet tooling recording production
// traffic); the replay adopts the file's horizon and embedded events.
// plan binary-searches the minimum server count whose full-trace replay
// stays within the SLO budget of violating core-windows. search sweeps
// the scheduler-candidate grid over a comma-separated trace suite and
// ranks the candidates by weighted multi-objective fitness.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"stretch/internal/experiments"
	"stretch/internal/fleet"
)

// parseFlags parses args into fs and exits non-zero on a leftover
// positional argument: the flag parser stops at the first non-flag, so
// every flag after a stray argument would otherwise be dropped silently.
func parseFlags(fs *flag.FlagSet, args []string) {
	fs.Parse(args)
	if fs.NArg() == 0 {
		return
	}
	prefix := "stretchsim: "
	if fs != flag.CommandLine {
		prefix += fs.Name() + ": "
	}
	fmt.Fprintf(os.Stderr, "%sunexpected argument %q (flags must come before any other argument)\n", prefix, fs.Arg(0))
	os.Exit(2)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "synth" {
		runSynth(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "plan" {
		runPlan(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "search" {
		runSearch(os.Args[2:])
		return
	}

	var (
		list  = flag.Bool("list", false, "list available experiments")
		exp   = flag.String("experiment", "all", "experiment id (e.g. fig9) or 'all'")
		scale = flag.String("scale", "quick", "experiment scale: quick or full")

		fleetMode  = flag.Bool("fleet", false, "run a datacenter-scale fleet study instead of experiments")
		servers    = flag.Int("servers", 64, "fleet: number of servers")
		cores      = flag.Int("cores", 16, "fleet: SMT cores per server")
		traceName  = flag.String("trace", "mixed", "fleet: traffic source — a named spec (websearch|video|mixed|failover) or a trace file path to replay")
		policy     = flag.String("policy", "static", "fleet: scheduler policy (static|proportional|p2c|feedback)")
		autoscale  = flag.String("autoscale", "off", "fleet: autoscaling policy (off|util|violation) — servers join/leave the fleet between windows")
		autoMin    = flag.Int("autoscale-min", 0, "fleet: autoscaler's in-service server floor (0 = default 1)")
		estimator  = flag.String("tail-estimator", "histogram", "fleet: tail quantile estimator (histogram|exact)")
		engine     = flag.String("engine", "discrete", "fleet: window engine — discrete event simulation, or per-window auto classification onto the analytic fast path (discrete|auto)")
		calibFlag  = flag.String("calib", "", "fleet: per-(service,batch,mode) calibration from the cycle-level model: \"default\" for the committed table, a .json path for an on-disk cache (built on miss), empty for uniform scalars")
		events     = flag.String("events", "", "fleet: scenario events, e.g. \"drain:24:0,restore:72:0,surge:30-40:video:1.8,perf:3:0.85\" (failover trace has a built-in default)")
		hours      = flag.Float64("hours", 24, "fleet: horizon in hours")
		wph        = flag.Int("windows-per-hour", 4, "fleet: monitoring windows per hour")
		windowReq  = flag.Int("window-requests", 400, "fleet: simulated requests per core-window")
		seed       = flag.Uint64("seed", 1, "fleet: experiment seed")
		fleetWork  = flag.Int("fleet-workers", 0, "fleet: goroutine pool size (0 = GOMAXPROCS)")
		bSpeedup   = flag.Float64("b-speedup", 0.13, "fleet: measured B-mode batch speedup")
		lsSlowdown = flag.Float64("ls-slowdown", 0.07, "fleet: measured B-mode LS slowdown")
		winTrace   = flag.Bool("window-trace", false, "fleet: print the per-window fleet series (cores, tails, violations per client)")
		cohStats   = flag.Bool("cohort-stats", false, "fleet: add the cohort fast-path line (coalesced core-windows, hit rate, distinct analytic solves) to the report")
		traceLevel = flag.String("trace-level", "off", "fleet: decision-trace level (off|summary|full) — records every scheduling decision and prints the decision-trace report")
		cfK        = flag.Int("counterfactual-k", 0, "fleet: evaluate up to K alternative assignments per traced window and report the chosen assignment's regret (needs -trace-level)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file before exiting")
	)
	parseFlags(flag.CommandLine, os.Args[1:])

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stretchsim: cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "stretchsim: cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "stretchsim: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "stretchsim: memprofile: %v\n", err)
			}
		}()
	}

	if *fleetMode {
		runFleet(fleetParams{
			servers: *servers, cores: *cores, trace: *traceName,
			policy: *policy, autoscale: *autoscale, autoMin: *autoMin,
			events: *events, estimator: *estimator, engine: *engine,
			calib: *calibFlag,
			hours: *hours, wph: *wph, windowReq: *windowReq,
			seed: *seed, workers: *fleetWork,
			bSpeedup: *bSpeedup, lsSlowdown: *lsSlowdown,
			windowTrace: *winTrace, cohortStats: *cohStats,
			traceLevel: *traceLevel, counterfactualK: *cfK,
		})
		return
	}

	if *list {
		for _, n := range experiments.All() {
			fmt.Println(n.ID)
		}
		return
	}

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.Quick
	case "full":
		sc = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "stretchsim: unknown scale %q (quick|full)\n", *scale)
		os.Exit(2)
	}

	ctx := experiments.NewContext(sc)
	run := func(n experiments.Named) {
		start := time.Now()
		t, err := n.Run(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stretchsim: %s: %v\n", n.ID, err)
			os.Exit(1)
		}
		fmt.Print(t.String())
		fmt.Printf("(%s, %s scale, %.1fs)\n\n", n.ID, sc, time.Since(start).Seconds())
	}

	if *exp == "all" {
		for _, n := range experiments.All() {
			run(n)
		}
		return
	}
	n, err := experiments.ByID(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stretchsim: %v\n", err)
		os.Exit(2)
	}
	run(n)
}

// runFleet builds the traffic source — a named spec or a trace file —
// and simulates the fleet.
func runFleet(p fleetParams) {
	cfg, err := buildFleetConfig(&p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stretchsim: %v\n", err)
		os.Exit(2)
	}
	start := time.Now()
	res, err := fleet.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stretchsim: fleet: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	fmt.Print(formatFleetResult(p, cfg, res))
	if p.windowTrace {
		fmt.Print(formatWindowTrace(res))
	}
	if cfg.DecisionTrace != fleet.TraceOff {
		fmt.Print(formatDecisionTrace(res))
	}
	simCW := float64(res.Cores)*float64(res.Windows) - float64(res.DrainedCoreWindows+res.ParkedCoreWindows+res.IdleCoreWindows)
	simCW -= float64(res.AnalyticCoreWindows) // analytic windows simulate no requests
	simReq := simCW * float64(p.windowReq)
	fmt.Printf("(%.1fs wall, ~%.1fM simulated requests, %.1fM req/s)\n",
		elapsed.Seconds(), simReq/1e6, simReq/1e6/elapsed.Seconds())
}
