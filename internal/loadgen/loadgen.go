// Package loadgen synthesises the open-loop traffic that drives the fleet
// simulator: per-window RPS timelines built from composable arrival shapes
// — constant rates, invitro-style RPS ramps (start/target/step), diurnal
// day profiles, and burst injection — optionally perturbed by Poisson
// sampling of each window's request population, plus multi-client traffic
// specs mixing services with per-client rate fractions and SLO classes.
//
// Every stochastic draw comes from an rng.Stream derived from a
// user-visible seed, so a traffic spec materialises to bit-identical
// timelines across runs and across worker counts.
package loadgen

import (
	"fmt"
	"math"

	"stretch/internal/rng"
)

// Shape produces the deterministic mean arrival rate of each window.
// Implementations must be pure: RPS(w, n) may be called in any order, any
// number of times.
type Shape interface {
	// RPS returns the mean arrival rate (requests/sec) for window w of n.
	RPS(w, n int) float64
}

// Constant is a flat arrival rate.
type Constant struct {
	// Rate is the arrival rate in requests/sec.
	Rate float64
}

// RPS implements Shape.
func (c Constant) RPS(w, n int) float64 { return c.Rate }

// Ramp is the invitro-style RPS sweep: start at StartRPS and move StepRPS
// closer to TargetRPS after every slot of WindowsPerStep windows, holding
// TargetRPS once reached. A zero StepRPS ramps linearly over the whole
// timeline instead.
type Ramp struct {
	StartRPS, TargetRPS float64
	// StepRPS is the per-slot increment (its sign is taken from the
	// start→target direction; only the magnitude matters).
	StepRPS float64
	// WindowsPerStep is how many windows each slot holds (default 1).
	WindowsPerStep int
}

// RPS implements Shape.
func (r Ramp) RPS(w, n int) float64 {
	if r.StepRPS == 0 {
		if n <= 1 {
			return r.TargetRPS
		}
		frac := float64(w) / float64(n-1)
		return r.StartRPS + (r.TargetRPS-r.StartRPS)*frac
	}
	per := r.WindowsPerStep
	if per < 1 {
		per = 1
	}
	step := r.StepRPS
	if step < 0 {
		step = -step
	}
	if r.TargetRPS < r.StartRPS {
		step = -step
	}
	v := r.StartRPS + float64(w/per)*step
	if (step > 0 && v > r.TargetRPS) || (step < 0 && v < r.TargetRPS) {
		return r.TargetRPS
	}
	return v
}

// Diurnal maps a 24-hour load profile (fractions of peak) onto the
// timeline, scaled to PeakRPS. It generalises the §VI-D cluster traces:
// with Smooth set, rates interpolate linearly between hour points instead
// of stepping at hour boundaries.
type Diurnal struct {
	// HourLoad[h] is the load during hour h as a fraction of peak.
	HourLoad [24]float64
	// PeakRPS is the arrival rate at load fraction 1.0.
	PeakRPS float64
	// Smooth interpolates between hour points.
	Smooth bool
	// WindowsPerDay sets the diurnal period in windows; horizons longer
	// than one day wrap around to repeat the cycle. Zero stretches a
	// single day across the whole horizon.
	WindowsPerDay int
}

// RPS implements Shape.
func (d Diurnal) RPS(w, n int) float64 {
	period := d.WindowsPerDay
	if period <= 0 {
		period = n
	}
	if period <= 0 {
		return 0
	}
	pos := 24 * float64(w%period) / float64(period)
	h := int(pos) % 24
	if !d.Smooth {
		return d.HourLoad[h] * d.PeakRPS
	}
	frac := pos - float64(int(pos))
	next := d.HourLoad[(h+1)%24]
	return (d.HourLoad[h]*(1-frac) + next*frac) * d.PeakRPS
}

// WebSearchDay is the §VI-D Web Search cluster query-rate pattern (after
// Meisner et al.): a daytime plateau near peak with a deep overnight
// trough; the service sits below 85% of max for roughly 11 hours a day.
func WebSearchDay() [24]float64 {
	return [24]float64{
		0.55, 0.48, 0.42, 0.38, 0.36, 0.40, // 00-05
		0.50, 0.65, 0.86, 0.92, 0.96, 1.00, // 06-11
		1.00, 0.98, 0.97, 0.95, 0.93, 0.90, // 12-17
		0.89, 0.87, 0.86, 0.80, 0.72, 0.62, // 18-23
	}
}

// VideoDay is the §VI-D YouTube-like edge-traffic pattern (after Gill et
// al.): requests concentrate between 10:00 and 19:00, peaking at 14:00;
// the other ~17 hours stay below 85% of peak.
func VideoDay() [24]float64 {
	return [24]float64{
		0.35, 0.30, 0.26, 0.24, 0.22, 0.24, // 00-05
		0.30, 0.40, 0.55, 0.70, 0.84, 0.95, // 06-11
		0.98, 0.99, 1.00, 0.97, 0.94, 0.90, // 12-17
		0.84, 0.80, 0.70, 0.60, 0.50, 0.42, // 18-23
	}
}

// Burst injects load spikes on top of a base shape: starting at window
// Start (and, with Every > 0, repeating every Every windows), the base rate
// is multiplied by Magnitude for Length consecutive windows.
type Burst struct {
	Base      Shape
	Start     int
	Length    int
	Every     int // 0 = single burst
	Magnitude float64
}

// RPS implements Shape.
func (b Burst) RPS(w, n int) float64 {
	base := b.Base.RPS(w, n)
	if w < b.Start || b.Length <= 0 {
		return base
	}
	off := w - b.Start
	if b.Every > 0 {
		off %= b.Every
	}
	if off < b.Length {
		return base * b.Magnitude
	}
	return base
}

// Replay plays back a recorded per-window rate timeline verbatim — the
// shape a trace file materialises to (internal/tracefile), which is what
// lets recorded and synthetic traffic flow through the same loadgen →
// fleet path. Rates must cover the whole horizon; Timeline rejects a
// length mismatch.
type Replay struct {
	// Rates[w] is the arrival rate (requests/sec) of window w.
	Rates []float64
}

// RPS implements Shape.
func (r Replay) RPS(w, n int) float64 {
	if w < 0 || w >= len(r.Rates) {
		return 0
	}
	return r.Rates[w]
}

// Scale multiplies a base shape's rate by a constant factor — how a cohort
// member carries its share of the cohort's aggregate shape.
type Scale struct {
	Base   Shape
	Factor float64
}

// RPS implements Shape.
func (s Scale) RPS(w, n int) float64 { return s.Base.RPS(w, n) * s.Factor }

// Shift delays a base shape by Offset windows, wrapping at the horizon —
// phase diversity across cohort members (one member's evening peak is
// another's afternoon).
type Shift struct {
	Base   Shape
	Offset int
}

// RPS implements Shape.
func (s Shift) RPS(w, n int) float64 {
	if n > 0 {
		w = ((w-s.Offset)%n + n) % n
	}
	return s.Base.RPS(w, n)
}

// ShapeUnsteady reports whether the shape is in a transient regime at
// window w of n: a Burst actively multiplying its base rate, through any
// Scale/Shift composition (Shift remaps the window exactly as its RPS
// does). The fleet's auto engine keeps unsteady windows on the discrete
// simulator — a burst window is precisely where the operator asked for
// turbulence, so it gets full event-level fidelity rather than a
// steady-state shortcut. Rate variation between windows (ramps, diurnal
// profiles, replayed traces) is not unsteadiness: every window carries one
// stationary rate, which is the same stationarity the discrete per-window
// simulation assumes.
func ShapeUnsteady(s Shape, w, n int) bool {
	switch v := s.(type) {
	case Burst:
		if w >= v.Start && v.Length > 0 {
			off := w - v.Start
			if v.Every > 0 {
				off %= v.Every
			}
			if off < v.Length {
				return true
			}
		}
		return ShapeUnsteady(v.Base, w, n)
	case Scale:
		return ShapeUnsteady(v.Base, w, n)
	case Shift:
		if n > 0 {
			w = ((w-v.Offset)%n + n) % n
		}
		return ShapeUnsteady(v.Base, w, n)
	default:
		return false
	}
}

// Spec couples a shape with the arrival-noise model.
type Spec struct {
	Shape Shape
	// Poisson draws each window's realised request population from a
	// Poisson distribution with the shape's mean (open-loop arrival
	// noise); otherwise windows carry the exact mean rate. Equivalent to
	// Process: ArrivalPoisson; kept for compatibility — the richer
	// processes are selected through Process.
	Poisson bool
	// Process selects the arrival noise explicitly (exact, Poisson, or
	// the overdispersed Gamma/Weibull mixtures). The zero value defers to
	// the legacy Poisson flag. Setting both Poisson and a non-Poisson
	// Process is a contradiction and rejected.
	Process Arrival
	// CV is the burstiness knob for ArrivalGamma and ArrivalWeibull: the
	// coefficient of variation of the per-window rate multiplier. It must
	// be positive for those processes and zero for the others.
	CV float64
}

// validateShape rejects degenerate shape compositions and parameters
// before they silently produce something other than what was asked for.
// windows is the horizon the shape will be materialised over (0 when
// unknown), which is what lets Replay reject a length mismatch. Only the
// built-in shapes are inspected; custom Shape implementations are trusted
// to return non-negative finite rates.
func validateShape(s Shape, windows int) error {
	nonneg := func(what string, vs ...float64) error {
		for _, v := range vs {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("loadgen: %s %v must be non-negative and finite", what, v)
			}
		}
		return nil
	}
	switch v := s.(type) {
	case Constant:
		return nonneg("constant rate", v.Rate)
	case Ramp:
		return nonneg("ramp rate", v.StartRPS, v.TargetRPS, v.StepRPS)
	case Diurnal:
		if err := nonneg("diurnal peak", v.PeakRPS); err != nil {
			return err
		}
		return nonneg("diurnal hour load", v.HourLoad[:]...)
	case Burst:
		if v.Base == nil {
			return fmt.Errorf("loadgen: burst without a base shape")
		}
		if v.Every > 0 && v.Length >= v.Every {
			return fmt.Errorf("loadgen: burst length %d >= period %d would be a permanent multiplier, not bursts", v.Length, v.Every)
		}
		if err := nonneg("burst magnitude", v.Magnitude); err != nil {
			return err
		}
		return validateShape(v.Base, windows)
	case Replay:
		if len(v.Rates) == 0 {
			return fmt.Errorf("loadgen: replay without rates")
		}
		if windows > 0 && len(v.Rates) != windows {
			return fmt.Errorf("loadgen: replay carries %d windows, horizon wants %d", len(v.Rates), windows)
		}
		return nonneg("replay rate", v.Rates...)
	case Scale:
		if v.Base == nil {
			return fmt.Errorf("loadgen: scale without a base shape")
		}
		if err := nonneg("scale factor", v.Factor); err != nil {
			return err
		}
		return validateShape(v.Base, windows)
	case Shift:
		if v.Base == nil {
			return fmt.Errorf("loadgen: shift without a base shape")
		}
		return validateShape(v.Base, windows)
	default:
		return nil
	}
}

// Timeline materialises the spec into per-window arrival rates
// (requests/sec) for the given horizon, drawing any noise from stream.
func (s Spec) Timeline(windows int, windowSec float64, stream *rng.Stream) ([]float64, error) {
	if s.Shape == nil {
		return nil, fmt.Errorf("loadgen: spec without a shape")
	}
	if err := validateShape(s.Shape, windows); err != nil {
		return nil, err
	}
	proc, err := s.resolveProcess()
	if err != nil {
		return nil, err
	}
	if windows <= 0 || !(windowSec > 0) || math.IsInf(windowSec, 0) {
		return nil, fmt.Errorf("loadgen: horizon (%d windows × %vs) must be positive and finite", windows, windowSec)
	}
	// The Weibull CV knob inverts to the distribution's shape parameter
	// once per materialisation.
	wshape := 0.0
	if proc == ArrivalWeibull {
		wshape, err = weibullShapeFromCV(s.CV)
		if err != nil {
			return nil, err
		}
	}
	out := make([]float64, windows)
	for w := 0; w < windows; w++ {
		mean := s.Shape.RPS(w, windows)
		if mean < 0 {
			return nil, fmt.Errorf("loadgen: negative rate %v at window %d", mean, w)
		}
		switch proc {
		case ArrivalPoisson:
			out[w] = stream.Poisson(mean*windowSec) / windowSec
		case ArrivalGamma:
			// Gamma-mixed Poisson: the window's true rate is itself a
			// Gamma draw around the shape's mean, so counts are
			// overdispersed by the CV (negative-binomial-style bursts).
			m := stream.Gamma(1, s.CV)
			out[w] = stream.Poisson(mean*m*windowSec) / windowSec
		case ArrivalWeibull:
			// Weibull-modulated Poisson: same mixture with Weibull tail
			// behaviour — sub-exponential shapes (CV > 1) yield rare,
			// deep rate excursions.
			m := stream.Weibull(1, wshape)
			out[w] = stream.Poisson(mean*m*windowSec) / windowSec
		default:
			out[w] = mean
		}
	}
	return out, nil
}

// SLOClass scales a service's published QoS target for a traffic client:
// premium clients run against a tighter target, best-effort ones against a
// looser one.
type SLOClass int

// SLO classes.
const (
	// SLOStandard keeps the service's published target.
	SLOStandard SLOClass = iota
	// SLOStrict tightens the target to 80%.
	SLOStrict
	// SLORelaxed loosens the target to 150%.
	SLORelaxed
)

// Scale returns the multiplier applied to the service's QoS target.
func (c SLOClass) Scale() float64 {
	switch c {
	case SLOStrict:
		return 0.8
	case SLORelaxed:
		return 1.5
	default:
		return 1.0
	}
}

// String names the class.
func (c SLOClass) String() string {
	switch c {
	case SLOStrict:
		return "strict"
	case SLORelaxed:
		return "relaxed"
	default:
		return "standard"
	}
}

// Client is one traffic source in a multi-client spec.
type Client struct {
	// Name labels the client in results (unique within a Traffic).
	Name string
	// Service is the latency-sensitive workload serving this client.
	Service string
	// Batch names the batch workload colocated on this client's cores —
	// the other hardware thread of every SMT core the client holds. It
	// selects the calibration row a calibrated fleet applies to the
	// client's B-/Q-mode deltas; empty means the fleet's default pairing.
	// loadgen treats it as an opaque label (the fleet layer validates it
	// against the workload catalogue).
	Batch string
	// Fraction is this client's share of the fleet's cores.
	Fraction float64
	// SLO selects the QoS-target class.
	SLO SLOClass
	// Spec is the client's arrival process; its timeline is the
	// fleet-wide rate, split evenly across the client's cores.
	Spec Spec
}

// Traffic is a complete multi-client traffic specification.
type Traffic struct {
	Clients   []Client
	Windows   int
	WindowSec float64
}

// Validate rejects unusable specs.
func (t Traffic) Validate() error {
	if t.Windows <= 0 || !(t.WindowSec > 0) || math.IsInf(t.WindowSec, 0) {
		return fmt.Errorf("loadgen: horizon (%d windows × %vs) must be positive and finite", t.Windows, t.WindowSec)
	}
	if len(t.Clients) == 0 {
		return fmt.Errorf("loadgen: traffic without clients")
	}
	seen := make(map[string]bool, len(t.Clients))
	sum := 0.0
	for i, c := range t.Clients {
		if c.Name == "" {
			return fmt.Errorf("loadgen: client %d unnamed", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("loadgen: duplicate client %q", c.Name)
		}
		seen[c.Name] = true
		if c.Service == "" {
			return fmt.Errorf("loadgen: client %q without a service", c.Name)
		}
		if !(c.Fraction > 0) || math.IsInf(c.Fraction, 0) {
			return fmt.Errorf("loadgen: client %q fraction %v must be positive and finite", c.Name, c.Fraction)
		}
		if c.Spec.Shape == nil {
			return fmt.Errorf("loadgen: client %q without an arrival shape", c.Name)
		}
		if err := validateShape(c.Spec.Shape, t.Windows); err != nil {
			return fmt.Errorf("loadgen: client %q: %w", c.Name, err)
		}
		if _, err := c.Spec.resolveProcess(); err != nil {
			return fmt.Errorf("loadgen: client %q: %w", c.Name, err)
		}
		sum += c.Fraction
	}
	if sum > 1+1e-9 {
		return fmt.Errorf("loadgen: client fractions sum to %v > 1", sum)
	}
	return nil
}

// Timelines materialises every client's timeline. Each client draws from
// its own stream derived from seed and the client's index, so adding a
// client never perturbs the others.
func (t Traffic) Timelines(seed uint64) (map[string][]float64, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(seed)
	out := make(map[string][]float64, len(t.Clients))
	for i, c := range t.Clients {
		tl, err := c.Spec.Timeline(t.Windows, t.WindowSec, root.Derive(uint64(i)+1))
		if err != nil {
			return nil, fmt.Errorf("loadgen: client %q: %w", c.Name, err)
		}
		out[c.Name] = tl
	}
	return out, nil
}

// Hours returns the horizon length in hours.
func (t Traffic) Hours() float64 { return float64(t.Windows) * t.WindowSec / 3600 }
