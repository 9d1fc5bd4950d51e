package main

import (
	"fmt"
	"time"

	"stretch/internal/fleet"
	"stretch/internal/loadgen"
	"stretch/internal/stats"
	"stretch/internal/tracefile"
	"stretch/internal/workload"
)

// The stretchsim CLI's named "mixed" and "failover" traffic specs live in
// package main of cmd/stretchsim, so the benchmark rebuilds them here
// through the engine's exported API. TestRebuiltSpecsMatchGoldens holds
// the rebuilt configs to the CLI's committed golden reports.

// fleetShape is the part of a stretchsim -fleet invocation a workload
// fixes: fleet size, policy, engine and the simulation budget.
type fleetShape struct {
	servers, cores int
	policy         fleet.Policy
	engine         fleet.Engine
	hours          float64
	wph, windowReq int
}

// setupTimes splits one set-up into the phases the per-layer report names.
type setupTimes struct {
	peakAnchor, traceLoad, validate time.Duration
}

func (s *setupTimes) add(o setupTimes) {
	s.peakAnchor += o.peakAnchor
	s.traceLoad += o.traceLoad
	s.validate += o.validate
}

// mixedClients rebuilds the CLI's mixed client population for a fleet of
// nCores: strict-SLO search, relaxed video and a bursty ramping kvstore,
// each anchored at its service's peak sustainable per-core rate.
func mixedClients(nCores, windows, wph int, seed uint64, st *setupTimes) ([]loadgen.Client, error) {
	t0 := time.Now()
	peaks := map[string]float64{}
	for _, svc := range []string{workload.WebSearch, workload.MediaStreaming, workload.DataServing} {
		pk, err := fleet.PeakRPSPerCore(svc, 4000, seed)
		if err != nil {
			return nil, fmt.Errorf("peak anchoring %s: %w", svc, err)
		}
		peaks[svc] = pk
	}
	st.peakAnchor += time.Since(t0)

	windowsPerDay := 24 * wph
	diurnal := func(svc string, day [24]float64, coreShare float64) loadgen.Spec {
		return loadgen.Spec{Shape: loadgen.Diurnal{
			HourLoad: day, PeakRPS: peaks[svc] * coreShare, Smooth: true, WindowsPerDay: windowsPerDay,
		}, Poisson: true}
	}
	burstLen := wph / 2
	if burstLen < 1 {
		burstLen = 1
	}
	burstEvery := windows / 3
	if burstEvery <= burstLen {
		burstEvery = 0
	}
	dsCores := float64(nCores) / 5
	return []loadgen.Client{
		{Name: "search", Service: workload.WebSearch, Batch: workload.Zeusmp, Fraction: 0.5,
			SLO: loadgen.SLOStrict, Spec: diurnal(workload.WebSearch, loadgen.WebSearchDay(), float64(nCores)/2)},
		{Name: "video", Service: workload.MediaStreaming, Batch: "libquantum", Fraction: 0.3,
			SLO: loadgen.SLORelaxed, Spec: diurnal(workload.MediaStreaming, loadgen.VideoDay(), float64(nCores)*3/10)},
		{Name: "kvstore", Service: workload.DataServing, Batch: "mcf", Fraction: 0.2,
			Spec: loadgen.Spec{Shape: loadgen.Burst{
				Base: loadgen.Ramp{
					StartRPS:  0.3 * peaks[workload.DataServing] * dsCores,
					TargetRPS: 0.7 * peaks[workload.DataServing] * dsCores,
				},
				Start: windows / 3, Length: burstLen, Every: burstEvery, Magnitude: 1.8,
			}, Poisson: true}},
	}, nil
}

// failoverScenario is the failover spec's default event list: a quarter
// of the servers drains at a third of the horizon and restores at two
// thirds, search takes a 1.3× surge meanwhile, and the last quarter of
// the fleet is an older generation at 0.85 performance.
func failoverScenario(servers, windows int) loadgen.Scenario {
	failed := servers / 4
	if failed < 1 {
		failed = 1
	}
	down, up := windows/3, 2*windows/3
	var evs []loadgen.Event
	for s := 0; s < failed; s++ {
		evs = append(evs,
			loadgen.Event{Kind: loadgen.EventDrain, Window: down, Server: s},
			loadgen.Event{Kind: loadgen.EventRestore, Window: up, Server: s},
		)
	}
	if down < up {
		evs = append(evs, loadgen.Event{
			Kind: loadgen.EventSurge, Window: down, Until: up, Client: "search", Factor: 1.3,
		})
	}
	for s := servers - servers/4; s < servers; s++ {
		evs = append(evs, loadgen.Event{Kind: loadgen.EventPerf, Server: s, Factor: 0.85})
	}
	return loadgen.Scenario{Events: evs}
}

// baseConfig carries the CLI's default simulation knobs: histogram tail
// estimator, uniform B-mode scalars, no calibration table.
func baseConfig(sh fleetShape, seed uint64, workers int) fleet.Config {
	return fleet.Config{
		Servers: sh.servers, CoresPerServer: sh.cores,
		BatchSpeedupB: 0.13, LSSlowdownB: 0.07,
		WindowRequests: sh.windowReq, Workers: workers, Seed: seed,
		TailEstimator: stats.EstimatorHistogram,
		Engine:        sh.engine,
		Scheduler:     fleet.SchedulerConfig{Policy: sh.policy},
	}
}

// namedConfig rebuilds `stretchsim -fleet -trace mixed|failover` for the
// given shape and seed, and validates it.
func namedConfig(name string, sh fleetShape, seed uint64, workers int, st *setupTimes) (fleet.Config, error) {
	windows := int(sh.hours * float64(sh.wph))
	if windows <= 0 {
		return fleet.Config{}, fmt.Errorf("non-positive horizon")
	}
	clients, err := mixedClients(sh.servers*sh.cores, windows, sh.wph, seed, st)
	if err != nil {
		return fleet.Config{}, err
	}
	cfg := baseConfig(sh, seed, workers)
	cfg.Traffic = loadgen.Traffic{Clients: clients, Windows: windows, WindowSec: 3600.0 / float64(sh.wph)}
	switch name {
	case "mixed":
	case "failover":
		cfg.Scenario = failoverScenario(sh.servers, windows)
	default:
		return fleet.Config{}, fmt.Errorf("unknown named spec %q", name)
	}
	return cfg, validate(cfg, st)
}

// traceConfig loads a recorded trace file (strict parse) and replays it
// on the given shape, adopting the file's horizon and embedded events.
func traceConfig(path string, sh fleetShape, seed uint64, workers int, st *setupTimes) (fleet.Config, error) {
	t0 := time.Now()
	t, err := tracefile.Load(path)
	if err != nil {
		return fleet.Config{}, err
	}
	traffic, err := t.Traffic()
	if err != nil {
		return fleet.Config{}, err
	}
	st.traceLoad += time.Since(t0)
	cfg := baseConfig(sh, seed, workers)
	cfg.Traffic = traffic
	cfg.Scenario = t.Events
	return cfg, validate(cfg, st)
}

func validate(cfg fleet.Config, st *setupTimes) error {
	t0 := time.Now()
	err := cfg.Validate()
	st.validate += time.Since(t0)
	return err
}
