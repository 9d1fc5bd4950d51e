// stretchsim plan: the capacity-planner driver. Given a recorded trace
// file and an SLO budget, binary-search the minimum server count whose
// full-trace replay stays within the budget of violating core-windows
// (fleet.PlanCapacity). The trace fixes the offered load, so the answer
// depends only on the traffic and the budget — not on the fleet seed or
// the worker count — and is locked by a golden test.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"stretch/internal/fleet"
)

// planParams mirrors the plan flag set.
type planParams struct {
	trace                  string
	cores                  int
	minServers, maxServers int
	budget                 int
	policy                 string
	estimator              string
	engine                 string
	calib                  string
	events                 string
	windowReq              int
	seed                   uint64
	workers                int
	bSpeedup               float64
	lsSlowdown             float64
}

// buildPlanSpec materialises the plan parameters into a capacity spec,
// pure of any I/O beyond loading the trace file, so the golden tests can
// drive it directly. It returns the replayed horizon in hours for the
// report header. Named generative specs are rejected: their rates are
// anchored to the fleet size, so shrinking the fleet would shrink the
// demand and the "minimum capacity" would be meaningless — synth the spec
// into a trace file first.
func buildPlanSpec(p planParams) (fleet.CapacitySpec, float64, error) {
	if isNamedTrace(p.trace) {
		return fleet.CapacitySpec{}, 0, fmt.Errorf(
			"plan needs a recorded trace file; spec %q sizes its load to the fleet (synth it first)", p.trace)
	}
	fp := fleetParams{
		servers: p.maxServers, cores: p.cores, trace: p.trace,
		policy: p.policy, events: p.events, estimator: p.estimator,
		engine: p.engine, calib: p.calib, windowReq: p.windowReq,
		seed: p.seed, workers: p.workers,
		bSpeedup: p.bSpeedup, lsSlowdown: p.lsSlowdown,
	}
	cfg, err := buildFleetConfig(&fp)
	if err != nil {
		return fleet.CapacitySpec{}, 0, err
	}
	return fleet.CapacitySpec{
		Config:              cfg,
		MinServers:          p.minServers,
		MaxViolationWindows: p.budget,
	}, fp.hours, nil
}

// formatPlan renders the search (without wall-clock timing, so the output
// is reproducible and golden-testable).
func formatPlan(p planParams, hours float64, plan fleet.CapacityPlan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== plan: minimum fleet for %s, %.0fh, policy %s ==\n", p.trace, hours, p.policy)
	fmt.Fprintf(&b, "SLO budget ≤ %d violating core-windows; search %d-%d servers × %d cores\n",
		plan.Budget, plan.MinServers, plan.MaxServers, plan.CoresPerServer)
	fmt.Fprintf(&b, "%-7s %6s %6s %11s %10s %17s %4s\n",
		"probe", "srv", "cores", "violations", "p99 (ms)", "batch gained (h)", "met")
	for i, pt := range plan.Probes {
		met := "no"
		if pt.Met {
			met = "yes"
		}
		fmt.Fprintf(&b, "%-7d %6d %6d %11d %10.1f %17.1f %4s\n",
			i+1, pt.Servers, pt.Cores, pt.ViolationWindows, pt.FleetP99Ms,
			pt.BatchCoreHoursGained, met)
	}
	if !plan.Feasible {
		fmt.Fprintf(&b, "no feasible fleet: %d violating core-windows at the %d-server ceiling (budget %d)\n",
			plan.Probes[0].ViolationWindows, plan.MaxServers, plan.Budget)
		return b.String()
	}
	fmt.Fprintf(&b, "minimum capacity: %d servers × %d cores = %d SMT cores (%d violating core-windows ≤ budget %d)\n",
		plan.Servers, plan.CoresPerServer, plan.Cores, plan.ViolationWindows, plan.Budget)
	return b.String()
}

// runPlan is the plan subcommand entry point.
func runPlan(args []string) {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	var p planParams
	fs.StringVar(&p.trace, "trace", "", "recorded trace file to plan against (required; synth one from a named spec)")
	fs.IntVar(&p.cores, "cores", 16, "SMT cores per server")
	fs.IntVar(&p.minServers, "min-servers", 1, "search floor: smallest fleet considered")
	fs.IntVar(&p.maxServers, "max-servers", 64, "search ceiling: largest fleet considered")
	fs.IntVar(&p.budget, "budget", 0, "SLO budget: largest tolerable count of QoS-violating core-windows over the horizon")
	fs.StringVar(&p.policy, "policy", "feedback", "scheduler policy each probe runs (static|proportional|p2c|feedback)")
	fs.StringVar(&p.estimator, "tail-estimator", "histogram", "tail quantile estimator (histogram|exact)")
	fs.StringVar(&p.engine, "engine", "discrete", "window engine each probe runs (discrete|auto)")
	fs.StringVar(&p.calib, "calib", "", "per-(service,batch,mode) calibration: \"default\", a .json cache path, or empty for uniform scalars")
	fs.StringVar(&p.events, "events", "", "scenario events overriding the trace's embedded annotations")
	fs.IntVar(&p.windowReq, "window-requests", 400, "simulated requests per core-window")
	fs.Uint64Var(&p.seed, "seed", 1, "experiment seed (the planned capacity is seed-independent for recorded traces)")
	fs.IntVar(&p.workers, "fleet-workers", 0, "goroutine pool size (0 = GOMAXPROCS)")
	fs.Float64Var(&p.bSpeedup, "b-speedup", 0.13, "measured B-mode batch speedup")
	fs.Float64Var(&p.lsSlowdown, "ls-slowdown", 0.07, "measured B-mode LS slowdown")
	parseFlags(fs, args)

	if p.trace == "" {
		fmt.Fprintln(os.Stderr, "stretchsim: plan: -trace is required")
		os.Exit(2)
	}
	spec, hours, err := buildPlanSpec(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stretchsim: plan: %v\n", err)
		os.Exit(2)
	}
	start := time.Now()
	plan, err := fleet.PlanCapacity(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stretchsim: plan: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(formatPlan(p, hours, plan))
	fmt.Printf("(%d probes, %.1fs wall)\n", len(plan.Probes), time.Since(start).Seconds())
}
