// Capacity planning and autoscaling: turn the fleet simulator around. The
// other examples ask "what happens with N servers"; this one fixes the
// offered load in absolute requests per second — the way a recorded
// production trace would — and asks the operator's questions instead:
// how many servers does this traffic need to stay inside an SLO budget
// (stretch.PlanCapacity), and how much of that peak-sized fleet can an
// autoscaler park off-peak once it is deployed (FleetConfig.Autoscale)?
package main

import (
	"fmt"
	"log"
	"time"

	"stretch"
)

func main() {
	const (
		maxServers = 8 // search ceiling: the largest fleet we could rack
		cores      = 4
		wph        = 4
		windows    = 24 * wph
		budget     = 25 // tolerable QoS-violating core-windows over the day
	)

	// Anchor the day's traffic in absolute rps, independent of the fleet
	// being sized: a diurnal search service peaking at ~12 cores' worth of
	// load and a video service peaking at ~6.
	peakSearch, err := stretch.PeakRPSPerCore(stretch.WebSearch, 4000, 1)
	if err != nil {
		log.Fatal(err)
	}
	peakVideo, err := stretch.PeakRPSPerCore(stretch.MediaStreaming, 4000, 1)
	if err != nil {
		log.Fatal(err)
	}
	traffic := stretch.Traffic{
		Windows: windows, WindowSec: 3600.0 / wph,
		Clients: []stretch.TrafficClient{
			{
				Name: "search", Service: stretch.WebSearch, Fraction: 0.6,
				SLO: stretch.SLOStrict,
				Spec: stretch.ArrivalSpec{Shape: stretch.Diurnal{
					HourLoad: stretch.WebSearchDay(),
					PeakRPS:  peakSearch * 12,
					Smooth:   true,
				}, Poisson: true},
			},
			{
				Name: "video", Service: stretch.MediaStreaming, Fraction: 0.4,
				SLO: stretch.SLORelaxed,
				Spec: stretch.ArrivalSpec{Shape: stretch.Diurnal{
					HourLoad: stretch.VideoDay(),
					PeakRPS:  peakVideo * 6,
					Smooth:   true,
				}, Poisson: true},
			},
		},
	}
	template := stretch.FleetConfig{
		Servers: maxServers, CoresPerServer: cores,
		Traffic:       traffic,
		BatchSpeedupB: 0.13, LSSlowdownB: 0.07,
		WindowRequests: 400, Seed: 1,
		Scheduler: stretch.Scheduler{Policy: stretch.PolicyFeedback},
	}

	// How many servers does this day of traffic need? Size the fleet twice
	// — once per window engine — to show the planner's headline win: every
	// bisection probe replays the full day, so routing steady windows
	// through the analytic solver (EngineAuto) cuts each probe's cost
	// while the discrete-grade accuracy contract keeps the answer honest.
	planWith := func(engine stretch.EngineMode) (stretch.CapacityPlan, time.Duration) {
		cfg := template
		cfg.Engine = engine
		start := time.Now()
		p, err := stretch.PlanCapacity(stretch.CapacitySpec{
			Config:              cfg,
			MinServers:          1,
			MaxViolationWindows: budget,
		})
		if err != nil {
			log.Fatal(err)
		}
		return p, time.Since(start)
	}
	plan, discreteWall := planWith(stretch.EngineDiscrete)
	fmt.Printf("== sizing: ≤ %d violating core-windows over 24h, %d-%d servers × %d cores ==\n",
		plan.Budget, plan.MinServers, plan.MaxServers, cores)
	for i, pt := range plan.Probes {
		met := "over budget"
		if pt.Met {
			met = "ok"
		}
		fmt.Printf("  probe %d: %d servers (%2d cores) -> %3d violations, p99 %6.1f ms  [%s]\n",
			i+1, pt.Servers, pt.Cores, pt.ViolationWindows, pt.FleetP99Ms, met)
	}
	if !plan.Feasible {
		log.Fatalf("no fleet up to %d servers meets the budget", plan.MaxServers)
	}
	fmt.Printf("minimum capacity: %d servers = %d cores (%d violations ≤ %d)\n\n",
		plan.Servers, plan.Cores, plan.ViolationWindows, plan.Budget)

	// The same sizing on the analytic fast path: the auto engine answers
	// steady core-windows in closed form and must land on a capacity the
	// discrete plan corroborates.
	autoPlan, autoWall := planWith(stretch.EngineAuto)
	fmt.Printf("== engine speedup: planning wall-clock, discrete vs auto ==\n")
	fmt.Printf("discrete: %d servers in %.2fs   auto: %d servers in %.2fs   speedup %.1f×\n\n",
		plan.Servers, discreteWall.Seconds(),
		autoPlan.Servers, autoWall.Seconds(),
		discreteWall.Seconds()/autoWall.Seconds())

	// Deploy the planned fleet with the util autoscaler: off-peak, whole
	// servers park (their cores stop serving and harvesting alike) and pay
	// a one-window warm-up migration penalty when they rejoin.
	deployed := template
	deployed.Servers = plan.Servers
	deployed.Autoscale = stretch.Autoscale{Policy: stretch.AutoscaleUtil}
	res, err := stretch.Fleet(deployed)
	if err != nil {
		log.Fatal(err)
	}
	coreWindows := res.Cores * res.Windows
	fmt.Printf("== deployed %d servers with autoscale %s ==\n", plan.Servers, res.Autoscale)
	fmt.Printf("parked %d of %d core-windows (%.0f%% of the planned fleet off-peak), %d warm-up migrations\n",
		res.ParkedCoreWindows, coreWindows,
		100*float64(res.ParkedCoreWindows)/float64(coreWindows), res.Migrations)
	fmt.Printf("violations %d (budget %d), engaged %.0f of %.0f core-hours, batch gained %.0f core-hours\n",
		res.ViolationWindows, budget, res.EngagedCoreHours, res.TotalCoreHours, res.BatchCoreHoursGained)
}
