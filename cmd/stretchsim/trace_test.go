package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"stretch/internal/fleet"
	"stretch/internal/stats"
)

// weekTracePath is the committed 7-day trace: the mixed spec realised at
// the golden fleet scale with gamma-overdispersed arrivals, one window
// per hour. TestSynthGolden regenerates it under -update; the replay
// goldens below consume it, so synthesis is locked before replay is.
const weekTracePath = "testdata/week_mixed.trace.csv"

func weekSynthParams() synthParams {
	return synthParams{
		spec: "mixed", servers: 4, cores: 4,
		hours: 168, wph: 1, seed: 1,
		arrival: "gamma:1.5", format: "csv",
	}
}

// checkGolden compares got against the committed golden at path,
// rewriting it under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestSynthGolden locks the synthesizer's output byte-for-byte: the 7-day
// mixed CSV trace the replay goldens run on, and a small failover JSONL
// trace with cohort expansion and the remapped surge annotations.
func TestSynthGolden(t *testing.T) {
	t.Run("week_mixed_csv", func(t *testing.T) {
		tr, err := buildSynthTrace(weekSynthParams())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, weekTracePath, buf.Bytes())
	})
	t.Run("failover_cohort_jsonl", func(t *testing.T) {
		p := synthParams{
			spec: "failover", servers: 4, cores: 4,
			hours: 6, wph: 2, seed: 1,
			cohorts: "2:1:2", format: "jsonl",
		}
		tr, err := buildSynthTrace(p)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, filepath.Join("testdata", "failover_cohort.trace.jsonl"), buf.Bytes())
	})
}

// replayParams is the 7-day replay configuration: the committed week
// trace on the golden fleet scale. The horizon comes from the trace file,
// not the hours field.
func replayParams(policy string) fleetParams {
	return fleetParams{
		servers: 4, cores: 4, trace: weekTracePath, policy: policy,
		estimator: "histogram",
		hours:     0, wph: 4, windowReq: 150, seed: 1,
		bSpeedup: 0.13, lsSlowdown: 0.07,
	}
}

// TestTraceReplayGolden locks the week-long replay report for the
// feedback and proportional policies on the identical trace — the
// policy-comparison-on-recorded-traffic workflow the trace subsystem
// exists for.
func TestTraceReplayGolden(t *testing.T) {
	for _, policy := range []string{"feedback", "proportional"} {
		t.Run(policy, func(t *testing.T) {
			p := replayParams(policy)
			cfg, err := buildFleetConfig(&p)
			if err != nil {
				t.Fatal(err)
			}
			if p.hours != 168 {
				t.Fatalf("replay adopted %v hours from the trace, want 168", p.hours)
			}
			res, err := fleet.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := formatFleetResult(p, cfg, res)
			checkGolden(t, filepath.Join("testdata", "replay_"+policy+".golden"), []byte(got))
		})
	}
}

// TestTraceReplayWorkerIndependence: the 7-day replay result is
// bit-identical regardless of the worker pool size (the -race CI job runs
// this, covering the determinism contract under the race detector).
func TestTraceReplayWorkerIndependence(t *testing.T) {
	run := func(workers int) fleet.Result {
		p := replayParams("feedback")
		p.windowReq = 60
		cfg, err := buildFleetConfig(&p)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = workers
		res, err := fleet.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	for _, workers := range []int{5, 16} {
		if got := run(workers); !reflect.DeepEqual(base, got) {
			t.Fatalf("replay with %d workers diverged from 1 worker", workers)
		}
	}
}

// TestTraceReplayAutoMatchesDiscrete is the analytic fast path's accuracy
// contract on recorded traffic: replaying the committed week trace under
// the auto engine must answer a substantial share of serving core-windows
// analytically, land the fleet-wide tail quantiles within the histogram's
// bucket resolution of the discrete reference, and stay bit-identical
// across worker pool sizes (the -race CI job runs this too).
func TestTraceReplayAutoMatchesDiscrete(t *testing.T) {
	run := func(engine string, workers int) fleet.Result {
		t.Helper()
		p := replayParams("feedback")
		p.windowReq = 60
		p.engine = engine
		cfg, err := buildFleetConfig(&p)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = workers
		res, err := fleet.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	disc := run("discrete", 1)
	auto := run("auto", 1)
	if auto.AnalyticCoreWindows == 0 {
		t.Fatal("auto engine answered no windows analytically; the comparison is vacuous")
	}
	// A steady window's analytic answer can move its tail reading by at
	// most a histogram bucket, and the fleet-wide quantile over all
	// readings by at most one more: allow a two-bucket ratio either way.
	bound := math.Pow(2, 2*stats.NewTailHistogram().Resolution())
	check := func(name string, a, d float64) {
		t.Helper()
		if a > d*bound || d > a*bound {
			t.Errorf("fleet %s: auto %.2f ms vs discrete %.2f ms exceeds the %.3f× bucket-resolution bound",
				name, a, d, bound)
		}
	}
	check("p99", auto.FleetP99Ms, disc.FleetP99Ms)
	check("p99.9", auto.FleetP999Ms, disc.FleetP999Ms)
	for _, workers := range []int{5, 16} {
		if got := run("auto", workers); !reflect.DeepEqual(auto, got) {
			t.Fatalf("auto replay with %d workers diverged from 1 worker", workers)
		}
	}
}

// TestTraceReplayUsesEmbeddedEvents: a replayed trace's annotations reach
// the fleet scenario, and -events still overrides them.
func TestTraceReplayUsesEmbeddedEvents(t *testing.T) {
	dir := t.TempDir()
	p := synthParams{
		spec: "failover", servers: 4, cores: 4,
		hours: 6, wph: 2, seed: 1, format: "csv",
	}
	tr, err := buildSynthTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "failover.trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fp := replayParams("feedback")
	fp.trace = path
	cfg, err := buildFleetConfig(&fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Scenario.Events) != len(tr.Events.Events) || len(cfg.Scenario.Events) == 0 {
		t.Fatalf("embedded events lost: %d in trace, %d in config",
			len(tr.Events.Events), len(cfg.Scenario.Events))
	}

	fp = replayParams("feedback")
	fp.trace = path
	fp.events = "drain:2:0,restore:4:0"
	cfg, err = buildFleetConfig(&fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Scenario.Events) != 2 {
		t.Fatalf("-events override lost: got %d events", len(cfg.Scenario.Events))
	}
}

// TestTraceReplayRejectsBadSource: a trace value that is neither a named
// spec nor a readable trace file fails with a helpful error.
func TestTraceReplayRejectsBadSource(t *testing.T) {
	for _, trace := range []string{"nope", "testdata/definitely-missing.trace.csv"} {
		p := replayParams("static")
		p.trace = trace
		if _, err := buildFleetConfig(&p); err == nil {
			t.Errorf("trace %q accepted", trace)
		}
	}
	// A real file that is not a trace also fails, with a parse error.
	p := replayParams("static")
	p.trace = "testdata/mixed_static.golden"
	if _, err := buildFleetConfig(&p); err == nil {
		t.Error("non-trace file accepted")
	}
}

// TestSynthRejectsBadInput mirrors the -fleet validation test for the
// synth flag set.
func TestSynthRejectsBadInput(t *testing.T) {
	bad := []func(*synthParams){
		func(p *synthParams) { p.spec = "nope" },
		func(p *synthParams) { p.hours = 0 },
		func(p *synthParams) { p.arrival = "gaussian" },
		func(p *synthParams) { p.arrival = "gamma:-1" },
		func(p *synthParams) { p.cohorts = "0" },
		func(p *synthParams) { p.cohorts = "2:x" },
		func(p *synthParams) { p.cohorts = "2:1:1:1" },
		func(p *synthParams) { p.events = "drain:banana" },
	}
	for i, mutate := range bad {
		p := weekSynthParams()
		p.hours = 2 // keep the valid-path check cheap if a mutation is a no-op
		mutate(&p)
		if _, err := buildSynthTrace(p); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}
