package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stretch/internal/fleet"
	"stretch/internal/sampling"
	"stretch/internal/workload"
)

// toyScale runs every workload in well under a second per job.
var toyScale = scale{
	day:           fleetShape{servers: 4, cores: 4, policy: fleet.PolicyFeedback, engine: fleet.EngineDiscrete, hours: 24, wph: 4, windowReq: 150},
	failover:      fleetShape{servers: 4, cores: 4, policy: fleet.PolicyFeedback, engine: fleet.EngineAuto, hours: 24, wph: 1, windowReq: 60},
	search:        fleetShape{servers: 2, cores: 2, policy: fleet.PolicyStatic, engine: fleet.EngineDiscrete, hours: 6, wph: 1, windowReq: 20},
	calibSpec:     sampling.Spec{Samples: 1, Warmup: 1000, Measure: 1000, Seed: 1},
	calibServices: []string{workload.WebSearch},
}

func toyOptions() options { return options{seed: 1, root: "..", scale: toyScale} }

// TestWorkloadsReportEveryMetric runs each workload at a toy size, untraced
// and traced, and checks that every job passes and every named metric is
// reported with its unit.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	e2e := map[string]string{"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB", "alloc_mb": "MB"}
	t.Cleanup(func() { os.RemoveAll(filepath.Join("..", ".bench_build", "spans")) })
	for _, name := range strings.Split(workloadList(), "|") {
		def := workloads[name]
		t.Run(name, func(t *testing.T) {
			rep, err := runUntraced(def, toyOptions(), time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, e2e)

			rep, err = runTraced(def, toyOptions(), time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			for _, pl := range perLayer {
				want[pl.name] = pl.unit
			}
			checkReport(t, rep, want)
			if rep.Attempted < 3 {
				t.Errorf("traced run attempted %d operations, want an untraced job, a traced job and the fidelity check", rep.Attempted)
			}
		})
	}
}

func checkReport(t *testing.T, rep report, want map[string]string) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("report: correct %v, %d of %d failed", rep.Correct, rep.Failed, rep.Attempted)
	}
	if len(rep.Metrics) != len(want) {
		t.Errorf("reported %d metrics, want %d", len(rep.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := rep.Metrics[name]
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s unit %q, want %q", name, m.Unit, unit)
		}
		if !finite(m.Value) {
			t.Errorf("metric %s = %v", name, m.Value)
		}
	}
}

// doctored is a workload whose job breaks a Result invariant before the
// check sees it.
type doctored struct {
	cfg    fleet.Config
	doctor func(*fleet.Result)
}

func (d doctored) run(*tracer) (outcome, error) {
	res, err := fleet.Run(d.cfg)
	if err != nil {
		return outcome{}, err
	}
	d.doctor(&res)
	return outcome{digest: digestResult(res)}, checkResult(res)
}

// TestDoctoredResultCountsAsFailed feeds the invariant checker Results
// with conservation broken and with a NaN tail, and checks that the run
// counts each job as failed.
func TestDoctoredResultCountsAsFailed(t *testing.T) {
	cases := map[string]func(*fleet.Result){
		"conservation": func(r *fleet.Result) { r.WindowTrace[3].IdleCores++ },
		"client-sum":   func(r *fleet.Result) { r.Clients[1].CoreWindows++ },
		"violations":   func(r *fleet.Result) { r.Clients[0].ViolationWindows = r.Clients[0].CoreWindows + 1 },
		"nan-tail":     func(r *fleet.Result) { r.Clients[2].P99Ms = math.NaN() },
		"nan-window":   func(r *fleet.Result) { r.WindowTrace[5].Clients[0].TailP99Ms = math.NaN() },
		"inf-gain":     func(r *fleet.Result) { r.BatchGain = math.Inf(1) },
	}
	for name, doctor := range cases {
		t.Run(name, func(t *testing.T) {
			def := workloadDef{name: "doctored-" + name, setup: func(o options, st *setupTimes) (instance, error) {
				cfg, err := namedConfig("mixed", o.scale.day, o.seed, 1, st)
				return doctored{cfg, doctor}, err
			}}
			rep, err := runUntraced(def, toyOptions(), time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Correct || rep.Failed != 1 || rep.Attempted != 1 {
				t.Errorf("doctored job: correct %v, %d of %d failed; want 1 of 1", rep.Correct, rep.Failed, rep.Attempted)
			}
		})
	}
}

// TestFidelityErrors pins the two fidelity formulas on hand-made Results.
func TestFidelityErrors(t *testing.T) {
	disc := fleet.Result{Clients: []fleet.ClientMetrics{
		{Client: "a", P99Ms: 100, ViolationWindows: 10, CoreWindows: 100},
		{Client: "b", P99Ms: 50, ViolationWindows: 0, CoreWindows: 100},
	}}
	auto := fleet.Result{Clients: []fleet.ClientMetrics{
		{Client: "a", P99Ms: 110, ViolationWindows: 5, CoreWindows: 100},
		{Client: "b", P99Ms: 40, ViolationWindows: 1, CoreWindows: 100},
	}}
	p99, viol, err := fidelityErrors(disc, auto)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p99-20) > 1e-9 || math.Abs(viol-60) > 1e-9 {
		t.Errorf("p99 error %v%%, violation-rate error %v%%; want 20%% and 60%%", p99, viol)
	}
	disc.Clients[0].ViolationWindows = 0
	if _, _, err := fidelityErrors(disc, auto); err == nil {
		t.Error("a reference without violations must be rejected")
	}
}

// TestRebuiltSpecsMatchGoldens runs the rebuilt mixed and failover configs
// at the committed CLI goldens' sizes and checks every client row's p99,
// p99.9, violations and core-windows against the golden file, which is
// read, never written.
func TestRebuiltSpecsMatchGoldens(t *testing.T) {
	cases := []struct {
		golden, spec string
		engine       fleet.Engine
		hours        float64
	}{
		{"mixed_feedback_histogram.golden", "mixed", fleet.EngineDiscrete, 6},
		{"failover_feedback_histogram_auto.golden", "failover", fleet.EngineAuto, 24},
	}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			sh := fleetShape{servers: 4, cores: 4, policy: fleet.PolicyFeedback, engine: tc.engine,
				hours: tc.hours, wph: 4, windowReq: 150}
			var st setupTimes
			cfg, err := namedConfig(tc.spec, sh, 1, 0, &st)
			if err != nil {
				t.Fatal(err)
			}
			res, err := fleet.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join("..", "cmd", "stretchsim", "testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			rows := map[string][]string{}
			for _, line := range strings.Split(string(data), "\n") {
				f := strings.Fields(line)
				if len(f) == 8 && strings.Contains(f[6], "/") {
					rows[f[0]] = f
				}
			}
			if len(rows) != len(res.Clients) {
				t.Fatalf("golden has %d client rows, run has %d clients", len(rows), len(res.Clients))
			}
			for _, c := range res.Clients {
				row, ok := rows[c.Client]
				if !ok {
					t.Errorf("client %s missing from %s", c.Client, tc.golden)
					continue
				}
				got := []string{
					fmt.Sprintf("%.1f", c.P99Ms), fmt.Sprintf("%.1f", c.P999Ms),
					fmt.Sprintf("%d/%d", c.ViolationWindows, c.CoreWindows),
				}
				want := []string{row[4], row[5], row[6]}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("client %s: got %v, golden %v", c.Client, got, want)
						break
					}
				}
			}
		})
	}
}
