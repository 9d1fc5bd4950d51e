// Engine selection: the analytic fast path. A steady core-window —
// stationary arrival rate, settled controller mode, no migration
// cold-start, no burst or surge turbulence — is fully described by its
// queueing equilibrium, so the engine can answer it with
// queueing.AnalyticTail instead of simulating hundreds of discrete
// requests. At fleet scale almost every core-window is steady (a diurnal
// fleet spends its life cruising between rate plateaus), which is what
// turns a 1M-core × 24h day from hours of event simulation into seconds of
// closed-form evaluation plus a residue of genuinely transitional windows
// on the discrete path.
package fleet

import (
	"fmt"
	"math"

	"stretch/internal/queueing"
)

// Engine selects how per-core window tails are computed.
type Engine int

// Engines.
const (
	// EngineDiscrete runs every core-window through the event-level
	// queueing simulator — the default, byte-identical to all results
	// predating the engine selector.
	EngineDiscrete Engine = iota
	// EngineAuto classifies each (core, window): steady windows take the
	// analytic fast path, transitional windows — mode switch, migration
	// cold-start, burst or surge turbulence, utilization above the guard
	// band — keep full discrete fidelity.
	EngineAuto
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineDiscrete:
		return "discrete"
	case EngineAuto:
		return "auto"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Validate rejects unknown engine values.
func (e Engine) Validate() error {
	switch e {
	case EngineDiscrete, EngineAuto:
		return nil
	}
	return fmt.Errorf("fleet: unknown engine %d", int(e))
}

// ParseEngine resolves an engine name (discrete|auto).
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "discrete":
		return EngineDiscrete, nil
	case "auto":
		return EngineAuto, nil
	}
	return 0, fmt.Errorf("fleet: unknown engine %q (discrete|auto)", s)
}

// autoSteadyMaxUtil is the auto engine's guard band: at or below this
// utilization a steady window takes the analytic path. It sits below
// queueing.AnalyticMaxUtilization because auto promises discrete-grade
// answers, and the solver's calibration envelope (documented by
// queueing.TestAnalyticMatchesDiscrete) is validated through 0.85.
const autoSteadyMaxUtil = 0.85

// analyticCacheLimit bounds the run's shared solve cache; a fleet day
// offers only as many distinct (client, rate, perf) triples as the traffic
// has rate plateaus, so the limit exists purely as a safety valve against
// pathological per-core rate diversity (e.g. p2c routing). Eviction is
// per-stripe and generational (queueing.TailCache), not a wholesale clear:
// hot plateau entries that keep being hit survive any churn of cold keys.
const analyticCacheLimit = 1 << 16

// analyticTail answers one steady core-window from the run's shared solve
// cache, solving on a miss. Keys carry the exact bit patterns of rate and
// perf, and the solver is a pure function: equal bits give equal results
// on every worker — which is what keeps auto runs bit-identical across
// worker counts even though the cache is shared. The sampleEquiv passed to
// the solver makes the analytic quantile reproduce the discrete window's
// finite-sample rank convention rather than improve on it. A solver
// refusal (utilization raced past the ceiling between classification and
// solve, structural caps) is cached as NaN and reported as !ok: the caller
// falls back to the discrete path. First insertions of successful solves
// feed Result.AnalyticSolves.
func (e *engine) analyticTail(ci int16, rate, perf float64) (float64, bool) {
	k := queueing.TailKey{Service: int32(ci), Rate: math.Float64bits(rate), Perf: math.Float64bits(perf)}
	if v, hit := e.solveCache.Lookup(k); hit {
		return v, !math.IsNaN(v)
	}
	t, err := queueing.AnalyticTail(e.qcfgs[ci], rate, perf, e.windowReq)
	if err != nil {
		e.solveCache.Insert(k, math.NaN())
		return 0, false
	}
	if e.solveCache.Insert(k, t) {
		e.solves.Add(1)
	}
	return t, true
}
