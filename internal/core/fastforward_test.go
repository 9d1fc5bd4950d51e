package core

import (
	"testing"

	"stretch/internal/trace"
	"stretch/internal/workload"
)

// runStepwise is Run with one c.step() per cycle and no idle skipping: the
// reference the fast-forward must match bit for bit. It also returns how
// many stepped cycles changed no pipeline state.
func runStepwise(c *Core, spec RunSpec) ([]ThreadMetrics, int) {
	idle := 0
	for end := spec.cycleCap(); c.cycle < end; {
		if !c.step() {
			idle++
		}
		if c.markWindows(spec) {
			break
		}
	}
	return c.runMetrics(), idle
}

// runCyclesStepwise is RunCycles with one c.step() per cycle.
func runCyclesStepwise(c *Core, n int64) []uint64 {
	for end := c.cycle + n; c.cycle < end; {
		c.step()
	}
	out := make([]uint64, c.nthreads)
	for i, t := range c.threads {
		out[i] = t.committed
	}
	return out
}

// workloadStreams returns a factory of fresh generators for the named
// workloads, seeded 1, 2, ...
func workloadStreams(t *testing.T, names ...string) func() []Stream {
	return func() []Stream {
		var out []Stream
		for i, name := range names {
			p, err := workload.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			g, err := trace.NewGenerator(p, uint64(i+1))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, g)
		}
		return out
	}
}

// ffCase is one configuration the fast-forward is checked on: optional
// RunCycles chunks, each followed by a SetPartition (skew 0 = none), then
// a Run.
type ffCase struct {
	name    string
	cfg     Config
	streams func() []Stream
	chunks  []int64
	skews   []int
	spec    RunSpec
}

// checkFastForward runs tc through the fast-forwarding loops and through
// the stepwise reference on fresh cores and requires identical results.
func checkFastForward(t *testing.T, tc ffCase) {
	t.Helper()
	fast, err := New(tc.cfg, tc.streams()...)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(tc.cfg, tc.streams()...)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range tc.chunks {
		got, want := fast.RunCycles(n), runCyclesStepwise(ref, n)
		for tid := range want {
			if got[tid] != want[tid] {
				t.Fatalf("chunk %d: committed %v, stepwise %v", i, got, want)
			}
		}
		if tc.skews[i] == 0 {
			continue
		}
		if err := fast.SetPartition(tc.skews[i]); err != nil {
			t.Fatal(err)
		}
		if err := ref.SetPartition(tc.skews[i]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := fast.Run(tc.spec)
	if err != nil {
		t.Fatal(err)
	}
	want, idle := runStepwise(ref, tc.spec)
	if idle == 0 {
		t.Fatal("reference run had no idle cycle: nothing to fast-forward")
	}
	if fast.Cycle() != ref.Cycle() {
		t.Errorf("Cycle() = %d, stepwise %d", fast.Cycle(), ref.Cycle())
	}
	if fast.ModeSwitches() != ref.ModeSwitches() {
		t.Errorf("ModeSwitches() = %d, stepwise %d", fast.ModeSwitches(), ref.ModeSwitches())
	}
	for tid := range want {
		if got[tid] != want[tid] {
			t.Errorf("thread %d metrics differ:\n fast     %+v\n stepwise %+v", tid, got[tid], want[tid])
		}
	}
}

func TestFastForwardMatchesStepwise(t *testing.T) {
	spec := RunSpec{WarmupInstr: 3000, MeasureInstr: 12000}
	pair := workloadStreams(t, workload.WebSearch, workload.Zeusmp)
	skewed := func(rob0 int) Config {
		cfg := Default()
		if err := cfg.SetSkew(rob0); err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	with := func(cfg Config, mut func(*Config)) Config {
		mut(&cfg)
		return cfg
	}
	cases := []ffCase{
		{name: "solo", cfg: Solo(), streams: workloadStreams(t, workload.WebSearch)},
		{name: "solo-mcf-noprefetch", cfg: with(Solo(), func(c *Config) { c.Prefetch = false }),
			streams: workloadStreams(t, "mcf")},
		{name: "solo-mispredicts", cfg: Solo(),
			streams: func() []Stream { return []Stream{&branchyStream{burst: 12}} }},
		{name: "equal", cfg: Default(), streams: pair},
		{name: "skew-24", cfg: skewed(24), streams: pair},
		{name: "skew-56", cfg: skewed(56), streams: pair},
		{name: "skew-136", cfg: skewed(136), streams: pair},
		{name: "dynamic", cfg: with(Default(), func(c *Config) { c.ROBPolicy = ROBDynamic }), streams: pair},
		{name: "private", cfg: with(Default(), func(c *Config) { c.ROBPolicy = ROBPrivate }), streams: pair},
		{name: "private-structures", cfg: with(Default(), func(c *Config) {
			c.SharedL1I, c.SharedL1D, c.SharedBP = false, false, false
		}), streams: pair},
		{name: "private-l1d-only", cfg: with(Default(), func(c *Config) { c.SharedL1D = false }), streams: pair},
		{name: "no-prefetch", cfg: with(Default(), func(c *Config) { c.Prefetch = false }),
			streams: workloadStreams(t, workload.DataServing, "mcf")},
		{name: "throttle-1:3", cfg: with(Default(), func(c *Config) {
			c.FetchThrottle, c.ThrottledThread = 3, 1
		}), streams: pair},
		{name: "throttle-1:8-dynamic", cfg: with(Default(), func(c *Config) {
			c.ROBPolicy, c.FetchThrottle, c.ThrottledThread = ROBDynamic, 8, 0
		}), streams: pair},
		{name: "strict-icount", cfg: with(Default(), func(c *Config) { c.StrictICount = true }), streams: pair},
		{name: "mispredicts-pair", cfg: Default(), streams: func() []Stream {
			return append(workloadStreams(t, "libquantum")(), &branchyStream{burst: 9})
		}},
		{name: "mode-switches", cfg: Default(), streams: pair,
			chunks: []int64{1500, 700, 1, 2200, 900}, skews: []int{56, 136, 0, 96, 56}},
		{name: "mode-switches-mispredicts", cfg: Default(), streams: func() []Stream {
			return []Stream{&branchyStream{burst: 7}, &branchyStream{burst: 15, state: 3}}
		}, chunks: []int64{333, 333, 334}, skews: []int{140, 40, 96}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.spec == (RunSpec{}) {
				tc.spec = spec
			}
			checkFastForward(t, tc)
		})
	}
}

// TestFastForwardCapInsideIdleSpan places MaxCycles strictly inside an idle
// span, so the cap, not an event, ends the skip.
func TestFastForwardCapInsideIdleSpan(t *testing.T) {
	streams := workloadStreams(t, workload.WebSearch, workload.Zeusmp)
	probe, err := New(Default(), streams()...)
	if err != nil {
		t.Fatal(err)
	}
	// Find a cycle x whose own step and the two before it are idle: an
	// idle step at x-2 skips from x-1, and the span cannot end by x.
	var capAt int64
	idleRun := 0
	for capAt == 0 && probe.cycle < 200_000 {
		x := probe.cycle
		if probe.step() {
			idleRun = 0
			continue
		}
		if idleRun++; idleRun >= 3 && x > 5000 {
			capAt = x
		}
	}
	if capAt == 0 {
		t.Fatal("no idle span found")
	}
	checkFastForward(t, ffCase{
		cfg:     Default(),
		streams: streams,
		spec:    RunSpec{WarmupInstr: 1000, MeasureInstr: 1 << 30, MaxCycles: capAt},
	})
}
