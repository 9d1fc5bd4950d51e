package loadgen

import (
	"math"
	"testing"

	"stretch/internal/rng"
)

func TestConstantShape(t *testing.T) {
	c := Constant{Rate: 120}
	for _, w := range []int{0, 5, 99} {
		if got := c.RPS(w, 100); got != 120 {
			t.Fatalf("window %d: %v", w, got)
		}
	}
}

func TestRampSteps(t *testing.T) {
	r := Ramp{StartRPS: 10, TargetRPS: 20, StepRPS: 5, WindowsPerStep: 2}
	want := []float64{10, 10, 15, 15, 20, 20, 20, 20}
	for w, v := range want {
		if got := r.RPS(w, len(want)); got != v {
			t.Errorf("window %d: got %v want %v", w, got, v)
		}
	}
}

func TestRampDescendsAndClamps(t *testing.T) {
	r := Ramp{StartRPS: 50, TargetRPS: 20, StepRPS: 15, WindowsPerStep: 1}
	want := []float64{50, 35, 20, 20}
	for w, v := range want {
		if got := r.RPS(w, len(want)); got != v {
			t.Errorf("window %d: got %v want %v", w, got, v)
		}
	}
}

func TestRampLinearWhenStepless(t *testing.T) {
	r := Ramp{StartRPS: 0, TargetRPS: 100}
	if got := r.RPS(0, 11); got != 0 {
		t.Errorf("start: %v", got)
	}
	if got := r.RPS(10, 11); got != 100 {
		t.Errorf("end: %v", got)
	}
	if got := r.RPS(5, 11); got != 50 {
		t.Errorf("middle: %v", got)
	}
}

func TestDiurnalHourMapping(t *testing.T) {
	day := WebSearchDay()
	d := Diurnal{HourLoad: day, PeakRPS: 1000}
	// Hour-grain: n=24 windows map 1:1.
	for h := 0; h < 24; h++ {
		if got := d.RPS(h, 24); got != day[h]*1000 {
			t.Fatalf("hour %d: got %v want %v", h, got, day[h]*1000)
		}
	}
	// Finer windows step at hour boundaries without smoothing.
	if got := d.RPS(25, 48); got != day[12]*1000 {
		t.Errorf("half-hour window maps to wrong hour: %v", got)
	}
	// Smooth interpolates midway between hour points.
	ds := Diurnal{HourLoad: day, PeakRPS: 1000, Smooth: true}
	want := (day[12] + day[13]) / 2 * 1000
	if got := ds.RPS(25, 48); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("smooth midpoint: got %v want %v", got, want)
	}
}

func TestBurstWindows(t *testing.T) {
	b := Burst{Base: Constant{Rate: 100}, Start: 4, Length: 2, Magnitude: 3}
	for w := 0; w < 12; w++ {
		want := 100.0
		if w == 4 || w == 5 {
			want = 300
		}
		if got := b.RPS(w, 12); got != want {
			t.Errorf("single burst window %d: got %v want %v", w, got, want)
		}
	}
	rep := Burst{Base: Constant{Rate: 100}, Start: 2, Length: 1, Every: 4, Magnitude: 2}
	for w := 0; w < 12; w++ {
		want := 100.0
		if w >= 2 && (w-2)%4 == 0 {
			want = 200
		}
		if got := rep.RPS(w, 12); got != want {
			t.Errorf("repeating burst window %d: got %v want %v", w, got, want)
		}
	}
}

func TestTimelineValidation(t *testing.T) {
	if _, err := (Spec{}).Timeline(10, 1, rng.New(1)); err == nil {
		t.Error("nil shape accepted")
	}
	if _, err := (Spec{Shape: Constant{Rate: 1}}).Timeline(0, 1, rng.New(1)); err == nil {
		t.Error("zero windows accepted")
	}
	if _, err := (Spec{Shape: Constant{Rate: 1}}).Timeline(4, math.NaN(), rng.New(1)); err == nil {
		t.Error("NaN window length accepted")
	}
	if _, err := (Spec{Shape: Constant{Rate: -1}}).Timeline(4, 1, rng.New(1)); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestPoissonTimelineMeanAndDeterminism(t *testing.T) {
	spec := Spec{Shape: Constant{Rate: 200}, Poisson: true}
	a, err := spec.Timeline(400, 10, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Timeline(400, 10, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	diverged := false
	for w := range a {
		if a[w] != b[w] {
			t.Fatalf("same seed diverged at window %d", w)
		}
		sum += a[w]
	}
	mean := sum / float64(len(a))
	if mean < 190 || mean > 210 {
		t.Errorf("Poisson timeline mean %v, want ≈200", mean)
	}
	c, err := spec.Timeline(400, 10, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for w := range a {
		if a[w] != c[w] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("different seeds produced identical noisy timelines")
	}
}

func TestExactTimelineCarriesShape(t *testing.T) {
	spec := Spec{Shape: Ramp{StartRPS: 0, TargetRPS: 90}}
	tl, err := spec.Timeline(10, 60, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if tl[0] != 0 || tl[9] != 90 {
		t.Fatalf("exact timeline %v does not follow the shape", tl)
	}
}

func TestSLOClasses(t *testing.T) {
	if SLOStandard.Scale() != 1 || SLOStrict.Scale() >= 1 || SLORelaxed.Scale() <= 1 {
		t.Fatal("SLO scales out of order")
	}
	for _, c := range []SLOClass{SLOStandard, SLOStrict, SLORelaxed} {
		if c.String() == "" {
			t.Fatal("unnamed SLO class")
		}
	}
}

func validTraffic() Traffic {
	return Traffic{
		Windows: 24, WindowSec: 3600,
		Clients: []Client{
			{Name: "a", Service: "web-search", Fraction: 0.6,
				Spec: Spec{Shape: Constant{Rate: 100}}},
			{Name: "b", Service: "data-serving", Fraction: 0.4, SLO: SLORelaxed,
				Spec: Spec{Shape: Constant{Rate: 50}, Poisson: true}},
		},
	}
}

func TestTrafficValidate(t *testing.T) {
	if err := validTraffic().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Traffic){
		func(tr *Traffic) { tr.Windows = 0 },
		func(tr *Traffic) { tr.WindowSec = 0 },
		func(tr *Traffic) { tr.WindowSec = math.NaN() },
		func(tr *Traffic) { tr.WindowSec = math.Inf(1) },
		func(tr *Traffic) { tr.Clients = nil },
		func(tr *Traffic) { tr.Clients[0].Name = "" },
		func(tr *Traffic) { tr.Clients[1].Name = "a" },
		func(tr *Traffic) { tr.Clients[0].Service = "" },
		func(tr *Traffic) { tr.Clients[0].Fraction = 0 },
		func(tr *Traffic) { tr.Clients[0].Fraction = 0.7 }, // sum > 1
		func(tr *Traffic) { tr.Clients[0].Spec.Shape = nil },
	}
	for i, mutate := range bad {
		tr := validTraffic()
		mutate(&tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestTimelinesPerClientIndependence(t *testing.T) {
	tr := validTraffic()
	tls, err := tr.Timelines(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tls) != 2 || len(tls["a"]) != 24 || len(tls["b"]) != 24 {
		t.Fatalf("bad timelines shape: %v", tls)
	}
	// Adding a client must not perturb existing clients' draws.
	tr2 := validTraffic()
	tr2.Clients[0].Fraction = 0.3
	tr2.Clients[1].Fraction = 0.3
	tr2.Clients = append(tr2.Clients, Client{
		Name: "c", Service: "web-serving", Fraction: 0.4,
		Spec: Spec{Shape: Constant{Rate: 10}, Poisson: true},
	})
	tls2, err := tr2.Timelines(7)
	if err != nil {
		t.Fatal(err)
	}
	for w := range tls["b"] {
		if tls["b"][w] != tls2["b"][w] {
			t.Fatalf("client b's noise changed when client c was added (window %d)", w)
		}
	}
	if tr.Hours() != 24 {
		t.Fatalf("Hours() = %v", tr.Hours())
	}
}

func TestDiurnalWrapsMultiDayHorizons(t *testing.T) {
	day := WebSearchDay()
	d := Diurnal{HourLoad: day, PeakRPS: 1000, WindowsPerDay: 24}
	// A 48-window horizon at 24 windows/day repeats the cycle, not
	// stretches it.
	for w := 0; w < 48; w++ {
		if got := d.RPS(w, 48); got != day[w%24]*1000 {
			t.Fatalf("window %d: got %v want %v", w, got, day[w%24]*1000)
		}
	}
	// Smooth interpolation wraps across the day boundary too.
	ds := Diurnal{HourLoad: day, PeakRPS: 1000, WindowsPerDay: 48, Smooth: true}
	want := (day[23] + day[0]) / 2 * 1000
	if got := ds.RPS(47, 96); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("midnight wrap: got %v want %v", got, want)
	}
	if got := ds.RPS(95, 96); got != ds.RPS(47, 96) {
		t.Fatalf("second day diverges from first: %v vs %v", got, ds.RPS(47, 96))
	}
}

func TestDegenerateBurstRejected(t *testing.T) {
	cases := []Shape{
		Burst{Length: 2, Magnitude: 2},                                    // no base
		Burst{Base: Constant{Rate: 1}, Every: 4, Length: 8, Magnitude: 2}, // permanent multiplier
		Burst{Base: Constant{Rate: 1}, Length: 1, Magnitude: -2},          // negative magnitude
		Burst{Base: Burst{}, Length: 1, Every: 4, Magnitude: 2},           // nested degenerate base
	}
	for i, sh := range cases {
		if _, err := (Spec{Shape: sh}).Timeline(8, 1, rng.New(1)); err == nil {
			t.Errorf("degenerate burst %d accepted", i)
		}
	}
	ok := Spec{Shape: Burst{Base: Constant{Rate: 1}, Start: 2, Length: 1, Every: 4, Magnitude: 2}}
	if _, err := ok.Timeline(8, 1, rng.New(1)); err != nil {
		t.Errorf("valid burst rejected: %v", err)
	}
}

func TestShapeUnsteady(t *testing.T) {
	burst := Burst{Base: Constant{Rate: 100}, Start: 4, Length: 2, Every: 6, Magnitude: 2}
	// Active windows: 4,5 then every 6: 10,11, 16,17 ...
	for w := 0; w < 12; w++ {
		want := w == 4 || w == 5 || w == 10 || w == 11
		if got := ShapeUnsteady(burst, w, 12); got != want {
			t.Errorf("burst window %d: unsteady = %v, want %v", w, got, want)
		}
	}
	// Steady shapes are never unsteady, however much the rate varies.
	for w := 0; w < 12; w++ {
		if ShapeUnsteady(Diurnal{HourLoad: WebSearchDay(), PeakRPS: 1000}, w, 12) {
			t.Fatalf("diurnal window %d flagged unsteady", w)
		}
		if ShapeUnsteady(Ramp{StartRPS: 1, TargetRPS: 100}, w, 12) {
			t.Fatalf("ramp window %d flagged unsteady", w)
		}
	}
	// Shift remaps the window exactly as RPS does; Scale passes through.
	shifted := Shift{Base: Scale{Base: burst, Factor: 0.5}, Offset: 3}
	for w := 0; w < 12; w++ {
		want := ShapeUnsteady(burst, ((w-3)%12+12)%12, 12)
		if got := ShapeUnsteady(shifted, w, 12); got != want {
			t.Errorf("shifted window %d: unsteady = %v, want %v", w, got, want)
		}
	}
}
