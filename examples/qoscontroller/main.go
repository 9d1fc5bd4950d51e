// QoS controller demo: a Web Search service rides a synthetic diurnal load
// while the §IV-C software monitor watches windowed tail latency (from the
// queueing model) and drives the Stretch mode bits. Prints one line per
// monitoring window group showing load, tail latency, and the engaged mode.
package main

import (
	"fmt"
	"log"

	"stretch/internal/core"
	"stretch/internal/fleet"
	"stretch/internal/monitor"
	"stretch/internal/queueing"
	"stretch/internal/workload"
)

func main() {
	svc := workload.Services()[workload.WebSearch]
	qc := queueing.Config{
		Workers:       svc.Workers,
		MeanServiceMs: svc.MeanServiceMs,
		ServiceCV:     svc.ServiceCV,
		BurstProb:     svc.BurstProb,
		BurstLen:      svc.BurstLen,
		QoSQuantile:   svc.QoSQuantile,
		QoSTargetMs:   svc.QoSTargetMs,
	}
	const nReq = 20000
	peak, err := queueing.PeakLoad(qc, nReq, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("peak sustainable load: %.0f req/s (p99 <= %gms)\n\n", peak, svc.QoSTargetMs)

	ctl, err := monitor.New(monitor.DefaultConfig(svc.QoSTargetMs))
	if err != nil {
		log.Fatal(err)
	}
	// The controller acts on the QoS tail alone, so each window asks the
	// simulator for just that (Tail), not the full Simulate summary.
	sim, err := queueing.NewSimulator(qc)
	if err != nil {
		log.Fatal(err)
	}

	// B-mode costs the service ~7% single-thread performance (measured
	// B-mode LS slowdown); the controller must only engage it when the
	// queueing slack absorbs that.
	const bModeSlowdown = 0.07

	day := fleet.WebSearchTrace()
	fmt.Println("hour  load   p99(ms)  mode      action")
	for h, load := range day.HourLoad {
		perf := 1.0
		if ctl.Mode() == core.ModeB {
			perf = 1 - bModeSlowdown
		}
		tail, err := sim.Tail(peak*load, nReq, perf, uint64(100+h))
		if err != nil {
			log.Fatal(err)
		}
		act := ctl.Observe(monitor.Observation{TailMs: tail})
		// Apply hysteresis: feed a second window per hour so streaks build.
		tail2, err := sim.Tail(peak*load, nReq, perf, uint64(200+h))
		if err != nil {
			log.Fatal(err)
		}
		if a2 := ctl.Observe(monitor.Observation{TailMs: tail2}); a2 != monitor.ActionNone {
			act = a2
		}
		fmt.Printf("%02d    %3.0f%%  %7.1f  %-9s %s\n",
			h, 100*load, tail, ctl.Mode(), act)
	}
	fmt.Printf("\nmode switches over the day: %d (hysteresis keeps flips rare;\n", ctl.Switches())
	fmt.Println("each switch costs one drain + 12-cycle flush on both threads)")
}
