// Package fleet simulates a datacenter-scale Stretch deployment: N servers
// × SMT cores, each core running a queueing-backed latency-sensitive
// service colocated with a batch thread and governed by its own §IV-C
// monitor.Controller. A multi-client traffic spec (internal/loadgen)
// drives the per-window arrival rates.
//
// Execution is window-major and closed-loop: the engine advances the whole
// fleet one monitoring window at a time. Within a window, cores shard
// across a goroutine worker pool — every core draws from its own
// (seed, core, window)-derived rng stream, so aggregate results are
// bit-identical for identical seeds regardless of worker count — and a
// barrier then collects the window's measured tails, modes, violations and
// controller slack into a WindowObservation. That observation is handed to
// the scheduler's Step for the *next* window, which is what lets
// latency-aware policies (PolicyFeedback) react to measured violations the
// way §IV-C's controller reacts to measured slack; the open-loop policies
// ignore it and reproduce their precomputed schedules exactly. Per-core
// controller state survives across windows (a core keeps its monitor until
// the scheduler hands it to a different client), and each worker reuses
// one queueing.Simulator so the hot loop pays no per-window allocations.
//
// Per window, each core simulates its share of its client's arrival rate
// through the request-level queueing model at the perf factor its current
// mode implies, feeds the measured tail to its controller, and credits the
// colocated batch thread relative to equal partitioning (B-mode gains,
// Q-mode pays). The per-mode deltas come from one of two sources, resolved
// once per client before the first window: a calibration table
// (Config.Calibration) derived from the cycle-level core model, which makes
// both the LS slowdown and the batch credit specific to the client's
// (service, batch-pairing) colocation in every mode — or, when no table is
// supplied, the legacy uniform scalars (BatchSpeedupB, LSSlowdownB,
// QModeBatchCost) applied identically to every client, which reproduces
// pre-calibration results byte-identically. Either way the per-window hot
// path only indexes a per-client array; no table lookup or map access sits
// on the per-request path. Results aggregate into per-client and fleet-wide tails
// (p99/p99.9 over core-window tails), QoS-violation window counts,
// engaged-core-hours, batch core-hours gained versus an equal-partitioning
// deployment, and the per-window fleet series in Result.WindowTrace.
//
// Tail quantiles are estimated by Config.TailEstimator. The default is
// the mergeable log-bucketed histogram (stats.Histogram): each worker
// records its cores' window tails into per-client shards, and the barrier
// merges shards into per-client window, per-client run and fleet-wide
// histograms — integer bucket counts merge associatively, so the
// nondeterministic core-to-worker mapping cannot perturb any aggregate,
// and memory stays constant in the request count (the enabler for
// 10k+-core runs). The exact estimator retains every core-window tail in
// sorted samples instead; it reproduces the pre-histogram golden files
// byte-identically and serves as the accuracy reference.
//
// Which client a core serves each window — and at what rate — is decided
// by the scheduler (see scheduler.go): the static Fraction split, elastic
// proportional reallocation, power-of-two-choices routing, or closed-loop
// feedback reallocation (feedback.go), optionally under a loadgen.Scenario
// of server drains, traffic surges and heterogeneous server generations.
package fleet

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"

	"stretch/internal/calib"
	"stretch/internal/core"
	"stretch/internal/loadgen"
	"stretch/internal/monitor"
	"stretch/internal/queueing"
	"stretch/internal/rng"
	"stretch/internal/stats"
	"stretch/internal/workload"
)

// Config parameterises a fleet run.
type Config struct {
	// Servers and CoresPerServer size the fleet (Servers × CoresPerServer
	// SMT cores total).
	Servers, CoresPerServer int

	// Traffic is the multi-client arrival spec; each client's fleet-wide
	// timeline is split evenly across the cores its Fraction buys.
	Traffic loadgen.Traffic

	// Calibration supplies per-(service, batch, mode) performance deltas
	// derived from the cycle-level core model: each client's B-/Q-mode LS
	// slowdown and batch credit come from its (Service, Batch) pair's
	// calibrated cells instead of the uniform scalars below. The table
	// must cover every client's pairing (empty Client.Batch resolves to
	// DefaultBatchPairing). Nil falls back to the uniform scalars and
	// reproduces pre-calibration results byte-identically.
	Calibration *calib.Table

	// BatchSpeedupB and LSSlowdownB are the uniform measured B-mode deltas
	// versus equal partitioning (e.g. from the 56-136 skew grid), applied
	// to every client alike. Ignored when Calibration is set.
	BatchSpeedupB, LSSlowdownB float64
	// QModeBatchCost is the uniform batch throughput lost while Q-mode is
	// engaged (default 0.15 when zero). Ignored when Calibration is set.
	QModeBatchCost float64

	// WindowRequests is the per-core request budget sampling each window's
	// steady state (default 800 when zero).
	WindowRequests int

	// Workers caps the goroutine pool (default GOMAXPROCS when zero;
	// negative is rejected). Results are independent of the worker count.
	// SearchSchedulers reads it as the whole sweep's CPU budget.
	Workers int

	// Seed is the experiment seed; identical seeds reproduce identical
	// aggregate metrics.
	Seed uint64

	// Monitor builds each core's controller tuning from its client's
	// (SLO-scaled) tail target; nil uses monitor.DefaultConfig.
	Monitor func(targetMs float64) monitor.Config

	// TailEstimator selects how tail quantiles are estimated, at every
	// level: per-request latencies inside each core-window simulation,
	// per-client window tails at the barrier, and the per-client and
	// fleet-wide aggregates. stats.EstimatorHistogram (the default —
	// stats.EstimatorDefault resolves to it here) records into fixed
	// log-bucketed histograms that merge across worker shards: O(1) per
	// observation, memory independent of the request count, quantile error
	// bounded by the bucket resolution. stats.EstimatorExact retains every
	// observation and sorts per query — exact, but memory and tail-query
	// cost grow linearly with requests; use it for small runs and accuracy
	// comparisons. Either way results are bit-identical across worker
	// counts for identical seeds.
	TailEstimator stats.TailEstimator

	// Engine selects how per-core window tails are computed: the discrete
	// event-level simulator (the zero value — byte-identical to all
	// pre-engine results) or the per-window auto classifier, which answers
	// steady windows analytically and keeps transitional windows on the
	// discrete path. See engine.go.
	Engine Engine

	// Scheduler selects the core-allocation and load-routing policy; the
	// zero value is the static Fraction split.
	Scheduler SchedulerConfig

	// DecisionTrace records every window's scheduling decision into
	// Result.DecisionTrace (decision.go): TraceOff (the zero value)
	// records nothing and costs nothing, TraceSummary captures per-client
	// deltas and driving signals, TraceFull additionally snapshots the
	// per-core assignment.
	DecisionTrace TraceLevel

	// CounterfactualK, when positive, evaluates up to K alternative
	// single-core-move assignments at every traced window and records the
	// chosen assignment's regret in each DecisionRecord. Requires
	// DecisionTrace to be on.
	CounterfactualK int

	// Autoscale lets servers join/leave the fleet between windows under a
	// scaling policy (autoscale.go); Servers becomes the physical ceiling
	// of a fleet that parks and unparks whole servers. The zero value
	// keeps every server in service and reproduces pre-autoscaling
	// results byte-identically.
	Autoscale AutoscaleConfig

	// Scenario injects fleet events — server drains/restores, traffic
	// surges, per-server performance generations. The zero value is an
	// uneventful run.
	Scenario loadgen.Scenario
}

// poolSize resolves Workers: GOMAXPROCS when zero.
func (c Config) poolSize() int {
	if c.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.Servers <= 0 || c.CoresPerServer <= 0 {
		return fmt.Errorf("fleet: need a positive fleet size (%d servers × %d cores)", c.Servers, c.CoresPerServer)
	}
	if err := c.Traffic.Validate(); err != nil {
		return err
	}
	if len(c.Traffic.Clients) > math.MaxInt16 {
		return fmt.Errorf("fleet: %d clients exceed the limit of %d", len(c.Traffic.Clients), math.MaxInt16)
	}
	if len(c.Traffic.Clients) > c.Servers*c.CoresPerServer {
		return fmt.Errorf("fleet: %d clients need at least as many cores (have %d)",
			len(c.Traffic.Clients), c.Servers*c.CoresPerServer)
	}
	// Negated comparisons so NaN fails them too.
	if !(c.BatchSpeedupB >= 0) || math.IsInf(c.BatchSpeedupB, 0) {
		return fmt.Errorf("fleet: BatchSpeedupB %v must be non-negative and finite", c.BatchSpeedupB)
	}
	if !(c.LSSlowdownB >= 0 && c.LSSlowdownB < 1) {
		return fmt.Errorf("fleet: LSSlowdownB %v out of [0,1)", c.LSSlowdownB)
	}
	if !(c.QModeBatchCost >= 0 && c.QModeBatchCost < 1) {
		return fmt.Errorf("fleet: QModeBatchCost %v out of [0,1)", c.QModeBatchCost)
	}
	if c.WindowRequests < 0 {
		return fmt.Errorf("fleet: negative window request budget")
	}
	if c.Workers < 0 {
		return fmt.Errorf("fleet: negative Workers %d (0 = GOMAXPROCS)", c.Workers)
	}
	if err := c.TailEstimator.Validate(); err != nil {
		return err
	}
	if err := c.Engine.Validate(); err != nil {
		return err
	}
	batches := workload.BatchProfiles()
	for _, cl := range c.Traffic.Clients {
		if _, ok := workload.Services()[cl.Service]; !ok {
			return fmt.Errorf("fleet: client %q: unknown service %q", cl.Name, cl.Service)
		}
		if cl.Batch != "" {
			if _, ok := batches[cl.Batch]; !ok {
				return fmt.Errorf("fleet: client %q: unknown batch pairing %q", cl.Name, cl.Batch)
			}
		}
		if c.Calibration != nil {
			b := BatchPairing(cl)
			p, ok := c.Calibration.Pair(cl.Service, b)
			if !ok {
				return fmt.Errorf("fleet: client %q: calibration table %.12s… has no %s × %s cell",
					cl.Name, c.Calibration.Hash, cl.Service, b)
			}
			for _, cell := range []calib.Cell{p.B, p.Q} {
				if !(cell.LSSlowdown < 1) || !(1-cell.LSSlowdown <= queueing.MaxPerfFactor) {
					return fmt.Errorf("fleet: client %q: calibrated LS slowdown %v for %s × %s out of range",
						cl.Name, cell.LSSlowdown, cl.Service, b)
				}
				if !(cell.BatchSpeedup > -1) {
					return fmt.Errorf("fleet: client %q: calibrated batch speedup %v for %s × %s out of range",
						cl.Name, cell.BatchSpeedup, cl.Service, b)
				}
			}
		}
	}
	if err := c.Scheduler.Validate(); err != nil {
		return err
	}
	if err := c.DecisionTrace.Validate(); err != nil {
		return err
	}
	if c.CounterfactualK < 0 {
		return fmt.Errorf("fleet: negative counterfactual k")
	}
	if c.CounterfactualK > 0 && c.DecisionTrace == TraceOff {
		return fmt.Errorf("fleet: counterfactual evaluation requires a decision-trace level")
	}
	if err := c.Autoscale.Validate(c.Servers); err != nil {
		return err
	}
	return c.Scenario.Validate(c.Traffic.Windows, c.Servers, c.Traffic.Clients)
}

// DefaultBatchPairing is the batch workload assumed to colocate with a
// client whose Batch field is empty: the paper's high-MLP exemplar
// (Figs. 6-7), which is also the pairing the legacy uniform scalars were
// historically measured on.
const DefaultBatchPairing = workload.Zeusmp

// BatchPairing resolves a client's colocated batch workload: its Batch
// field, or DefaultBatchPairing when empty. This is the single owner of
// the empty-Batch rule; callers building calibration inputs for a traffic
// spec (e.g. the CLI cache path) must use it rather than re-deriving it.
func BatchPairing(cl loadgen.Client) string {
	if cl.Batch != "" {
		return cl.Batch
	}
	return DefaultBatchPairing
}

// ClientMetrics aggregates one traffic client's cores.
type ClientMetrics struct {
	Client  string
	Service string
	// Batch is the client's resolved colocated batch workload.
	Batch string
	SLO   loadgen.SLOClass
	// Cores is the client's window-0 allocation; under the elastic
	// policies the per-window allocation drifts with demand, tracked by
	// CoreWindows.
	Cores int
	// TargetMs is the SLO-scaled tail target its controllers enforce.
	TargetMs float64
	// P99Ms and P999Ms are quantiles over all core-window tail readings.
	// A client whose elastic allocation reached zero core-windows has no
	// readings and reports zeros (never NaN).
	P99Ms, P999Ms float64
	// ViolationWindows counts core-windows whose tail exceeded the target.
	ViolationWindows int
	// CoreWindows is the total core-windows that served this client.
	CoreWindows int
	// EngagedCoreHours is the B-mode time integrated over the client's
	// cores.
	EngagedCoreHours float64
	// BatchCoreHoursGained integrates (batchRel − 1) over the client's
	// serving core-windows: the extra batch work this client's cores
	// produced versus equal partitioning, in the client's own calibrated
	// speedup units (or the uniform scalars when no table is set). The
	// per-client values sum to Result.BatchCoreHoursGained.
	BatchCoreHoursGained float64
}

// ClientWindowObs aggregates one client's serving cores within a single
// completed window.
type ClientWindowObs struct {
	// Cores is how many cores served the client this window.
	Cores int
	// OfferedRPS is the total arrival rate routed to the client.
	OfferedRPS float64
	// MeanTailMs, MaxTailMs and TailP99Ms summarise the client's per-core
	// window tails.
	MeanTailMs, MaxTailMs, TailP99Ms float64
	// MeanSlack is the mean headroom below the tail target reported by the
	// client's per-core monitors, as a fraction of the target (negative
	// means violating).
	MeanSlack float64
	// Violations counts the client's violating core-windows this window.
	Violations int
	// BCores counts the client's cores that ran the window in B-mode.
	BCores int
	// BatchRel is the mean batch throughput of the client's serving cores
	// this window, relative to equal partitioning — in the client's
	// calibrated speedup units when the run is calibrated. 1 means the
	// equal-partitioning baseline; >1 means B-mode credit is flowing.
	BatchRel float64
}

// WindowObservation is the measured record of one completed window: the
// feedback the engine hands the scheduler's Step at the next window, and
// the per-window entry of Result.WindowTrace.
type WindowObservation struct {
	// Window is the window index.
	Window int
	// Clients holds per-client window aggregates in traffic order.
	Clients []ClientWindowObs
	// ServingCores, DrainedCores, ParkedCores and IdleCores partition the
	// fleet: serving a client, scenario-drained, autoscaler-parked, or in
	// service but unassigned.
	ServingCores, DrainedCores, ParkedCores, IdleCores int
	// Violations counts the window's violating core-windows fleet-wide.
	Violations int
	// BCores counts cores that ran the window in B-mode.
	BCores int
	// Migrations counts cores that paid the migration penalty.
	Migrations int
	// AnalyticCores counts cores whose window was answered by the
	// analytic fast path (always zero under the discrete engine).
	AnalyticCores int
	// CohortCores counts cores whose window the auto engine's walk answers
	// without per-core work — analytically solved or zero-rate windows.
	// Always zero under the discrete engine, whose walk coalesces only the
	// zero-rate windows no engine simulates.
	CohortCores int
}

// Result is the fleet-wide aggregation.
type Result struct {
	// Cores and Windows echo the simulated extent.
	Cores, Windows int
	WindowSec      float64

	// Policy echoes the scheduler policy the run used.
	Policy Policy
	// Autoscale echoes the autoscaling policy the run used.
	Autoscale AutoscalePolicy
	// TailEstimator echoes the resolved tail estimator the run used.
	TailEstimator stats.TailEstimator
	// Engine echoes the engine the run used; AnalyticCoreWindows counts
	// the core-windows it answered analytically (zero under discrete —
	// and the fraction of the horizon the analytic fast path absorbed
	// otherwise, which is what the speedup is proportional to).
	Engine              Engine
	AnalyticCoreWindows int
	// AnalyticSolves counts distinct successful analytic solves — first
	// insertions into the shared solve cache. The gap between
	// AnalyticCoreWindows and AnalyticSolves is the work the solve cache
	// (and, per window, the cohort coalescing) absorbed. Deterministic
	// across worker counts and execution paths as long as the cache is not
	// thrashing (re-solving an evicted key recounts it).
	AnalyticSolves int
	// CohortCoreWindows sums WindowObservation.CohortCores over the
	// horizon: core-windows the auto engine answers without per-core
	// simulation (zero under the discrete engine).
	CohortCoreWindows int
	// CalibrationHash is the content hash of the calibration table the run
	// used; empty means the uniform-scalar fallback.
	CalibrationHash string

	// Clients holds per-client aggregates in traffic order.
	Clients []ClientMetrics

	// FleetP99Ms and FleetP999Ms are fleet-wide quantiles over every
	// serving core-window tail, across all clients — the datacenter-level
	// tail report that per-client metrics cannot express.
	FleetP99Ms, FleetP999Ms float64

	// TotalCoreHours is Cores × horizon.
	TotalCoreHours float64
	// EngagedCoreHours is the fleet-wide B-mode time.
	EngagedCoreHours float64
	// BatchCoreHoursGained integrates (batchRel − 1) over every serving
	// core-window: the extra batch work versus the same schedule run under
	// equal partitioning, in core-hours: the client-order sum of the
	// per-client gains. Idle and drained core-windows contribute nothing
	// to either side.
	BatchCoreHoursGained float64
	// BatchGain is BatchCoreHoursGained normalised by TotalCoreHours: the
	// fleet-wide batch throughput improvement over equal partitioning.
	BatchGain float64
	// ViolationWindows counts QoS-violating core-windows fleet-wide.
	ViolationWindows int
	// Switches sums all controllers' mode changes.
	Switches uint64

	// Migrations counts core-windows that paid the migration penalty
	// (core handed to a different client than the previous window).
	Migrations int
	// DrainedCoreWindows, ParkedCoreWindows and IdleCoreWindows count
	// scenario-drained, autoscaler-parked and unassigned core-windows in
	// the schedule.
	DrainedCoreWindows int
	ParkedCoreWindows  int
	IdleCoreWindows    int

	// FairnessIndex is the Jain fairness index over per-client SLO
	// fulfilment — each client's non-violating fraction of its serving
	// core-windows (zero for a client squeezed to none) — 1 when every
	// client is equally well served, approaching 1/n when one client
	// absorbs all the violations.
	FairnessIndex float64

	// WindowTrace is the per-window fleet series: one measured observation
	// per window, in order — the same records the closed-loop scheduler
	// consumed online.
	WindowTrace []WindowObservation

	// DecisionTrace holds one DecisionRecord per window when
	// Config.DecisionTrace is on (nil otherwise): the scheduler-side
	// account of the same horizon WindowTrace measures.
	DecisionTrace []DecisionRecord
}

// engine is one run's window-major execution state. Per-core records hold
// the current window only; the barrier (observe) folds them into the run
// totals, so memory is bounded by cores, not core-windows. Floats
// accumulate there in core order within each window, window by window,
// which fixes every aggregate float bit for a seed.
type engine struct {
	nCores, windows, windowReq int
	migPenalty, windowHours    float64
	monCfg                     func(float64) monitor.Config
	engineSel                  Engine

	// lsSlowMode and batchRelMode are the per-client per-mode performance
	// deltas, indexed [client][core.Mode]: the LS thread's slowdown
	// (applied to the perf factor) and the batch thread's throughput
	// relative to equal partitioning. Resolved once before the first
	// window — from the calibration table or the uniform scalars — so the
	// hot loop pays one array index per core-window, nothing per request.
	lsSlowMode   [][3]float64
	batchRelMode [][3]float64

	targets []float64
	qcfgs   []queueing.Config
	perf    []float64
	streams []rng.Stream

	// pool and sims run the discrete residue: one persistent pool for the
	// whole horizon and one reusable Simulator per worker, whose queueing
	// heaps and sample buffers live across every window.
	pool *workerPool
	sims []*queueing.Simulator

	// solveCache is the lock-striped analytic solve cache shared by every
	// worker and the counterfactual evaluator (the solver is pure, so
	// sharing cannot perturb results — it stops W workers re-solving the
	// same rate plateau W times); solves counts its distinct successful
	// first insertions, surfaced as Result.AnalyticSolves.
	solveCache *queueing.TailCache
	solves     atomic.Int64

	// Window-walk state (cohort.go). classOf maps each core to its
	// controller-equivalence class in classes (−1: none), swBase banks
	// switch counts a core accrued in classes it has left, and
	// freshFor/mergeMap/worklist/retired are per-window scratch for the
	// span walk.
	classOf   []int32
	classes   []cohortClass
	freeClass []int32
	retired   []int32
	swBase    []uint64
	mergeMap  map[mergeKey]int32
	freshFor  []int32
	worklist  []workItem

	// Counterfactual evaluator state (decision.go), wired by
	// initCounterfactual when Config.CounterfactualK > 0: a dedicated
	// Simulator and rng branch (the evaluator runs single-threaded behind
	// the Step call, so worker count cannot touch it), a per-window
	// (client, count) → tail cache, and the per-client load scratch; its
	// analytic solves share solveCache.
	cfK, cfMinCores int
	cfRng           *rng.Stream
	cfSim           *queueing.Simulator
	cfCache         map[cfKey]float64
	cfLoad          []float64

	// Auto-engine classification inputs, resolved once per run:
	// utilCoef[ci] turns a per-core rate into a utilization (util =
	// rate·utilCoef/perf), analyticOK[ci] records whether the client's
	// service is inside the analytic solver's structural caps, and
	// unsteady[ci][w] flags windows with burst or surge turbulence, which
	// auto keeps on the discrete path.
	utilCoef   []float64
	analyticOK []bool
	unsteady   [][]bool

	// The current window's per-core records, indexed by core and written
	// by the walk and the pool (tails), read by observe; analyticCores and
	// cohortCores count the window's analytic and (auto engine) coalesced
	// core-windows. Records of cores serving no client are left stale and
	// never read.
	tails                      []float64
	batchRel                   []float64
	modeB                      []bool
	analyticCores, cohortCores int
	errs                       []error

	// cms accumulates the per-client run totals the barrier folds:
	// engaged core-hours and batch core-hours gained.
	cms []ClientMetrics

	// Exact estimator: winSamples holds one reusable per-client sample for
	// the window observation's tail quantile, filled and drained at each
	// barrier; runSamples and fleetSample retain every core-window tail for
	// the per-client and fleet-wide run quantiles.
	winSamples  []*stats.Sample
	runSamples  []*stats.Sample
	fleetSample *stats.Sample

	// Histogram estimator: each worker records its cores' window tails
	// into its own per-client shard (shards[worker][client]); the barrier
	// merges shards into winHists for the window quantile, then folds them
	// into the per-client runHists and the fleet-wide fleetHist. All share
	// one geometry, and integer bucket counts merge associatively, so the
	// aggregate is bit-identical regardless of how cores land on workers.
	shards    [][]*stats.Histogram
	winHists  []*stats.Histogram
	runHists  []*stats.Histogram
	fleetHist *stats.Histogram
}

// Run simulates the fleet over the traffic horizon.
func Run(cfg Config) (Result, error) { return run(cfg, (*engine).walkWindow) }

// run is Run with the per-window execution step as a parameter: step
// fills window w's per-core records, controllers and histogram shards
// for the plan asg, behind which run observes the window. Production
// always passes walkWindow; the equivalence suite substitutes an
// independent per-core reference.
func run(cfg Config, step func(e *engine, w int, asg Assignment) error) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	nCores := cfg.Servers * cfg.CoresPerServer
	windows := cfg.Traffic.Windows
	windowReq := cfg.WindowRequests
	if windowReq == 0 {
		windowReq = 800
	}
	qCost := cfg.QModeBatchCost
	if qCost == 0 {
		qCost = 0.15
	}
	monCfg := cfg.Monitor
	if monCfg == nil {
		monCfg = monitor.DefaultConfig
	}
	est := cfg.TailEstimator
	if est == stats.EstimatorDefault {
		est = stats.EstimatorHistogram
	}
	sched := cfg.Scheduler.withDefaults()
	auto := cfg.Autoscale.withDefaults()

	timelines, err := cfg.Traffic.Timelines(cfg.Seed)
	if err != nil {
		return Result{}, err
	}

	// Per-client service configs, SLO-scaled targets and per-mode
	// performance deltas. With a calibration table each client gets its
	// own (service, batch) pair's cycle-level-derived cells; without one,
	// every client shares the uniform scalars (and reproduces the
	// pre-calibration arithmetic bit-for-bit).
	n := len(cfg.Traffic.Clients)
	targets := make([]float64, n)
	qcfgs := make([]queueing.Config, n)
	lsSlowMode := make([][3]float64, n)
	batchRelMode := make([][3]float64, n)
	for ci, cl := range cfg.Traffic.Clients {
		svc := workload.Services()[cl.Service]
		targets[ci] = svc.QoSTargetMs * cl.SLO.Scale()
		qcfgs[ci] = queueing.Config{
			Workers: svc.Workers, MeanServiceMs: svc.MeanServiceMs,
			ServiceCV: svc.ServiceCV, BurstProb: svc.BurstProb, BurstLen: svc.BurstLen,
			QoSQuantile: svc.QoSQuantile, QoSTargetMs: targets[ci],
			Estimator: est,
		}
		if cfg.Calibration != nil {
			b := BatchPairing(cl)
			pb, _ := cfg.Calibration.Lookup(cl.Service, b, core.ModeB)
			pq, _ := cfg.Calibration.Lookup(cl.Service, b, core.ModeQ)
			lsSlowMode[ci] = [3]float64{0, pb.LSSlowdown, pq.LSSlowdown}
			batchRelMode[ci] = [3]float64{1, 1 + pb.BatchSpeedup, 1 + pq.BatchSpeedup}
		} else {
			lsSlowMode[ci] = [3]float64{0, cfg.LSSlowdownB, 0}
			batchRelMode[ci] = [3]float64{1, 1 + cfg.BatchSpeedupB, 1 - qCost}
		}
	}

	st := newStepper(sched, auto)
	var tracer decisionTracer
	if cfg.DecisionTrace != TraceOff {
		dt, ok := st.(decisionTracer)
		if !ok {
			return Result{}, fmt.Errorf("fleet: scheduler does not support decision tracing")
		}
		dt.SetTraceLevel(cfg.DecisionTrace)
		tracer = dt
	}
	if err := st.Plan(PlanInput{
		Servers: cfg.Servers, CoresPerServer: cfg.CoresPerServer,
		Traffic: cfg.Traffic, Timelines: timelines,
		Scenario: cfg.Scenario, Seed: cfg.Seed,
	}); err != nil {
		return Result{}, err
	}

	// Each core derives its own rng stream from the experiment seed and
	// its global index — and each window's simulation seed from that — so
	// neither the schedule nor the worker count can perturb results.
	root := rng.New(cfg.Seed).Derive(0xF1EE7)
	perfGen := cfg.Scenario.PerfFactors(cfg.Servers)
	e := &engine{
		nCores: nCores, windows: windows, windowReq: windowReq,
		migPenalty: sched.MigrationPenalty, windowHours: cfg.Traffic.WindowSec / 3600,
		monCfg:       monCfg,
		engineSel:    cfg.Engine,
		lsSlowMode:   lsSlowMode,
		batchRelMode: batchRelMode,
		targets:      targets,
		qcfgs:        qcfgs,
		perf:         make([]float64, nCores),
		streams:      make([]rng.Stream, nCores),
		tails:        make([]float64, nCores),
		batchRel:     make([]float64, nCores),
		modeB:        make([]bool, nCores),
		errs:         make([]error, nCores),
		cms:          make([]ClientMetrics, n),
	}
	for ci, cl := range cfg.Traffic.Clients {
		e.cms[ci] = ClientMetrics{
			Client: cl.Name, Service: cl.Service, Batch: BatchPairing(cl), SLO: cl.SLO,
			TargetMs: targets[ci],
		}
	}
	e.initCohorts(n)
	for c := 0; c < nCores; c++ {
		e.perf[c] = perfGen[c/cfg.CoresPerServer]
		e.streams[c] = *root.Derive(uint64(c))
	}
	if cfg.Engine == EngineAuto {
		e.solveCache = queueing.NewTailCache(analyticCacheLimit)
		// Resolve the classification inputs: per-client utilization
		// coefficients, structural solver feasibility (probed once at a
		// comfortably steady utilization — the refusals that matter here
		// are rate-independent caps), and the steadiness mask from the
		// traffic shapes and scenario surges.
		e.utilCoef = make([]float64, n)
		e.analyticOK = make([]bool, n)
		e.unsteady = make([][]bool, n)
		names := make([]string, n)
		for ci, cl := range cfg.Traffic.Clients {
			names[ci] = cl.Name
		}
		surges := cfg.Scenario.SurgeMatrix(names, windows)
		for ci, cl := range cfg.Traffic.Clients {
			e.utilCoef[ci] = queueing.Utilization(qcfgs[ci], 1, 1)
			if e.utilCoef[ci] > 0 && !math.IsInf(e.utilCoef[ci], 0) {
				_, err := queueing.Analytic(qcfgs[ci], 0.1/e.utilCoef[ci], 1)
				e.analyticOK[ci] = err == nil
			}
			e.unsteady[ci] = make([]bool, windows)
			for w := 0; w < windows; w++ {
				e.unsteady[ci][w] = loadgen.ShapeUnsteady(cl.Spec.Shape, w, windows) || surges[ci][w] != 1
			}
		}
	}

	if cfg.CounterfactualK > 0 {
		e.initCounterfactual(cfg.CounterfactualK, sched.MinCores, cfg.Seed)
	}

	workers := min(cfg.poolSize(), nCores)
	e.sims = make([]*queueing.Simulator, workers)
	for i := range e.sims {
		e.sims[i] = new(queueing.Simulator)
	}
	e.pool = newWorkerPool(workers)
	defer e.pool.close()
	if est == stats.EstimatorHistogram {
		e.shards = make([][]*stats.Histogram, workers)
		for wk := range e.shards {
			e.shards[wk] = make([]*stats.Histogram, n)
			for ci := range e.shards[wk] {
				e.shards[wk][ci] = stats.NewTailHistogram()
			}
		}
		e.winHists = make([]*stats.Histogram, n)
		e.runHists = make([]*stats.Histogram, n)
		for ci := 0; ci < n; ci++ {
			e.winHists[ci] = stats.NewTailHistogram()
			e.runHists[ci] = stats.NewTailHistogram()
		}
		e.fleetHist = stats.NewTailHistogram()
	} else {
		e.winSamples = make([]*stats.Sample, n)
		for ci := range e.winSamples {
			e.winSamples[ci] = stats.NewSample(nCores)
		}
		e.runSamples = make([]*stats.Sample, n) // sized by observe at window 0
		e.fleetSample = stats.NewSample(nCores * windows)
	}

	var (
		obs      *WindowObservation
		winTrace = make([]WindowObservation, 0, windows)
		decTrace []DecisionRecord
	)
	if tracer != nil {
		decTrace = make([]DecisionRecord, 0, windows)
	}

	for w := 0; w < windows; w++ {
		asg := st.Step(w, obs)
		if tracer != nil {
			// Capture (and counterfactually evaluate) the decision before
			// the worker pool runs: the record and the evaluator live on
			// the engine goroutine only, so the trace — like every other
			// aggregate — cannot depend on the worker count.
			rec := tracer.LastDecision()
			if e.cfK > 0 {
				if err := e.counterfactual(w, rec); err != nil {
					return Result{}, err
				}
			}
			decTrace = append(decTrace, *rec)
		}

		// Simulate the window, then barrier before observing.
		if err := step(e, w, asg); err != nil {
			return Result{}, err
		}

		o := e.observe(w, asg)
		winTrace = append(winTrace, o)
		obs = &winTrace[len(winTrace)-1]
	}

	calibHash := ""
	if cfg.Calibration != nil {
		calibHash = cfg.Calibration.Hash
	}
	res := Result{
		Cores: nCores, Windows: windows, WindowSec: cfg.Traffic.WindowSec,
		Policy:          sched.Policy,
		Autoscale:       auto.Policy,
		TailEstimator:   est,
		Engine:          cfg.Engine,
		AnalyticSolves:  int(e.solves.Load()),
		CalibrationHash: calibHash,
		TotalCoreHours:  float64(nCores) * cfg.Traffic.Hours(),
		WindowTrace:     winTrace,
		DecisionTrace:   decTrace,
	}
	// The barrier already folded the float totals; the counts fall out of
	// the per-window observations.
	cms := e.cms
	for _, o := range winTrace {
		res.Migrations += o.Migrations
		res.DrainedCoreWindows += o.DrainedCores
		res.ParkedCoreWindows += o.ParkedCores
		res.IdleCoreWindows += o.IdleCores
		res.AnalyticCoreWindows += o.AnalyticCores
		res.CohortCoreWindows += o.CohortCores
		res.ViolationWindows += o.Violations
		for ci, co := range o.Clients {
			cms[ci].CoreWindows += co.Cores
			cms[ci].ViolationWindows += co.Violations
		}
	}
	// Switches banked when each core left past classes, plus its current
	// class's live count.
	for c := 0; c < nCores; c++ {
		res.Switches += e.swBase[c]
		if k := e.classOf[c]; k >= 0 {
			res.Switches += e.classes[k].ctl.Switches()
		}
	}
	for ci := range cms {
		cms[ci].Cores = winTrace[0].Clients[ci].Cores
		// A client squeezed to zero core-windows has an empty sample or
		// histogram; Quantile reports 0 for it, never NaN.
		if e.runSamples != nil {
			cms[ci].P99Ms = e.runSamples[ci].Quantile(0.99)
			cms[ci].P999Ms = e.runSamples[ci].Quantile(0.999)
		} else {
			cms[ci].P99Ms = e.runHists[ci].Quantile(0.99)
			cms[ci].P999Ms = e.runHists[ci].Quantile(0.999)
		}
		res.EngagedCoreHours += cms[ci].EngagedCoreHours
		res.BatchCoreHoursGained += cms[ci].BatchCoreHoursGained
	}
	if e.fleetSample != nil {
		res.FleetP99Ms = e.fleetSample.Quantile(0.99)
		res.FleetP999Ms = e.fleetSample.Quantile(0.999)
	} else {
		res.FleetP99Ms = e.fleetHist.Quantile(0.99)
		res.FleetP999Ms = e.fleetHist.Quantile(0.999)
	}
	res.Clients = cms
	res.BatchGain = res.BatchCoreHoursGained / res.TotalCoreHours
	// Jain fairness over per-client SLO fulfilment: the non-violating
	// fraction of each client's serving core-windows, zero for a client
	// that served none (a squeezed-out client is maximally unfairly
	// treated, not absent).
	fulfil := make([]float64, n)
	for ci, cm := range cms {
		if cm.CoreWindows > 0 {
			fulfil[ci] = 1 - float64(cm.ViolationWindows)/float64(cm.CoreWindows)
		}
	}
	res.FairnessIndex = stats.Jain(fulfil)
	return res, nil
}

// observe collects the window's measurements behind the barrier, in core
// order, into the observation record the scheduler sees next window. One
// pass over the fleet fills the per-client aggregates and tail samples and
// folds the window into the run totals.
func (e *engine) observe(w int, asg Assignment) WindowObservation {
	o := WindowObservation{Window: w, Clients: make([]ClientWindowObs, len(e.targets)),
		AnalyticCores: e.analyticCores, CohortCores: e.cohortCores}
	e.analyticCores, e.cohortCores = 0, 0
	if w == 0 && e.runSamples != nil {
		// Presize each client's run sample for its window-0 allocation
		// held over the whole horizon.
		cores := make([]int, len(e.runSamples))
		for _, cl := range asg.Client {
			if cl >= 0 {
				cores[cl]++
			}
		}
		for ci, m := range cores {
			e.runSamples[ci] = stats.NewSample(m * e.windows)
		}
	}
	for c := 0; c < e.nCores; c++ {
		cl := asg.Client[c]
		switch {
		case cl == coreDrained:
			o.DrainedCores++
		case cl == coreParked:
			o.ParkedCores++
		case cl == coreIdle:
			o.IdleCores++
		default:
			co, cm := &o.Clients[cl], &e.cms[cl]
			t := e.tails[c]
			co.Cores++
			o.ServingCores++
			co.OfferedRPS += asg.Rate[c]
			co.MeanTailMs += t
			if t > co.MaxTailMs {
				co.MaxTailMs = t
			}
			if t > e.targets[cl] {
				co.Violations++
				o.Violations++
			}
			if e.modeB[c] {
				co.BCores++
				o.BCores++
				cm.EngagedCoreHours += e.windowHours
			}
			co.BatchRel += e.batchRel[c]
			cm.BatchCoreHoursGained += (e.batchRel[c] - 1) * e.windowHours
			// A class's members share their controller's exact observation
			// history, so the class Slack IS each member's Slack.
			co.MeanSlack += e.classes[e.classOf[c]].ctl.Slack()
			if asg.Migrated[c] {
				o.Migrations++
			}
			if e.winSamples != nil {
				e.winSamples[cl].Add(t)
				e.runSamples[cl].Add(t)
				e.fleetSample.Add(t)
			}
		}
	}
	if e.shards != nil {
		// Merge the workers' per-client shards (in worker order — though
		// integer counts make any order equivalent) into the window
		// histograms, fold those into the horizon aggregates, and hand the
		// cleared shards back to the next window.
		for _, shard := range e.shards {
			for ci, h := range shard {
				e.winHists[ci].Merge(h)
				h.Reset()
			}
		}
	}
	for ci := range o.Clients {
		co := &o.Clients[ci]
		if e.winHists != nil {
			if co.Cores > 0 {
				co.TailP99Ms = e.winHists[ci].Quantile(0.99)
			}
			e.runHists[ci].Merge(e.winHists[ci])
			e.fleetHist.Merge(e.winHists[ci])
			e.winHists[ci].Reset()
		}
		if co.Cores == 0 {
			continue
		}
		co.MeanTailMs /= float64(co.Cores)
		co.MeanSlack /= float64(co.Cores)
		co.BatchRel /= float64(co.Cores)
		if e.winSamples != nil {
			co.TailP99Ms = e.winSamples[ci].Quantile(0.99)
			e.winSamples[ci].Reset()
		}
	}
	return o
}

// assignCores splits nCores across the clients proportionally to their
// fractions: floor allocation (minimum one core each), then — when the
// fractions subscribe the whole fleet — largest-remainder distribution of
// the leftover. Under-subscribed traffic leaves the remaining cores idle;
// over-allocation from the one-core minimum is reclaimed from the largest
// allocations.
func assignCores(clients []loadgen.Client, nCores int) []int {
	out := make([]int, len(clients))
	sum := 0.0
	for _, c := range clients {
		sum += c.Fraction
	}
	used := 0
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, 0, len(clients))
	for i, c := range clients {
		exact := c.Fraction * float64(nCores)
		out[i] = int(exact)
		if out[i] < 1 {
			out[i] = 1
		}
		used += out[i]
		rems = append(rems, rem{i, exact - float64(int(exact))})
	}
	for used > nCores {
		big := 0
		for i := range out {
			if out[i] > out[big] {
				big = i
			}
		}
		out[big]--
		used--
	}
	if sum > 1-1e-9 {
		sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
		for k := 0; used < nCores; k = (k + 1) % len(rems) {
			out[rems[k].idx]++
			used++
		}
	}
	return out
}

// PeakRPSPerCore returns the peak sustainable per-core arrival rate for the
// named service — the rate anchor for building traffic specs in fractions
// of peak (load 1.0 ≈ the paper's "peak sustainable load").
func PeakRPSPerCore(service string, nRequests int, seed uint64) (float64, error) {
	svc, ok := workload.Services()[service]
	if !ok {
		return 0, fmt.Errorf("fleet: unknown service %q", service)
	}
	cfg := queueing.Config{
		Workers: svc.Workers, MeanServiceMs: svc.MeanServiceMs,
		ServiceCV: svc.ServiceCV, BurstProb: svc.BurstProb, BurstLen: svc.BurstLen,
		QoSQuantile: svc.QoSQuantile, QoSTargetMs: svc.QoSTargetMs,
	}
	return queueing.PeakLoad(cfg, nRequests, seed)
}
