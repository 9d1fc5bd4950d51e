package fleet

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestSearchGridContainsHandTuned(t *testing.T) {
	grid := SearchGrid()
	if len(grid) != 21 {
		t.Fatalf("grid has %d candidates, want 21 (4 policies + 17 feedback tunings)", len(grid))
	}
	baseline := false
	seen := map[SchedulerConfig]bool{}
	for _, cand := range grid {
		if cand == (SchedulerConfig{Policy: PolicyFeedback}) {
			baseline = true
		}
		// No two candidates may resolve to the same effective scheduler,
		// or the sweep wastes runs and the ranking shows twins.
		eff := cand.withDefaults()
		if seen[eff] {
			t.Fatalf("duplicate effective candidate %+v", eff)
		}
		seen[eff] = true
		if err := cand.Validate(); err != nil {
			t.Fatalf("grid candidate invalid: %+v: %v", cand, err)
		}
	}
	if !baseline {
		t.Fatal("hand-tuned feedback baseline missing from the grid")
	}
}

func TestSearchSchedulersRanksAndConserves(t *testing.T) {
	suite := []Config{planConfig(PolicyStatic), planConfig(PolicyFeedback)}
	// The search must force tracing off per run, so suite entries carrying
	// their own levels are harmless.
	suite[1].DecisionTrace = TraceFull
	suite[1].CounterfactualK = 2
	cands := []SchedulerConfig{
		{Policy: PolicyStatic},
		{Policy: PolicyProportional},
		{Policy: PolicyFeedback},
		{Policy: PolicyFeedback, FeedbackGain: 3, Hysteresis: 0.05},
	}
	w := DefaultFitnessWeights()
	outs, err := SearchSchedulers(suite, cands, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(cands) {
		t.Fatalf("%d outcomes for %d candidates", len(outs), len(cands))
	}
	var handTuned *SearchOutcome
	for i := range outs {
		o := &outs[i]
		if i > 0 && outs[i-1].Fitness < o.Fitness {
			t.Fatalf("ranking not descending at %d: %v < %v", i, outs[i-1].Fitness, o.Fitness)
		}
		if len(o.PerTrace) != len(suite) {
			t.Fatalf("outcome %d has %d per-trace terms", i, len(o.PerTrace))
		}
		sum := 0.0
		for _, f := range o.PerTrace {
			sum += f
		}
		if math.Abs(sum-o.Fitness) > 1e-9 {
			t.Fatalf("outcome %d fitness %v != per-trace sum %v", i, o.Fitness, sum)
		}
		if o.Fairness < 0 || o.Fairness > 1 {
			t.Fatalf("outcome %d mean fairness %v outside [0, 1]", i, o.Fairness)
		}
		// Defaults are resolved for the report.
		if o.Scheduler.Policy == PolicyFeedback && (o.Scheduler.FeedbackGain == 0 || o.Scheduler.FeedbackDecay == 0) {
			t.Fatalf("outcome %d reports unresolved gains: %+v", i, o.Scheduler)
		}
		if o.Scheduler == (SchedulerConfig{Policy: PolicyFeedback}).WithDefaults() {
			handTuned = o
		}
	}
	if handTuned == nil {
		t.Fatal("hand-tuned feedback candidate missing from the outcomes")
	}
	// The winner is at least as fit as the hand-tuned baseline — the
	// acceptance guarantee the grid construction provides.
	if outs[0].Fitness < handTuned.Fitness {
		t.Fatalf("winner %v less fit than a participant %v", outs[0].Fitness, handTuned.Fitness)
	}
	// Deterministic: the same sweep reproduces the same ranking exactly.
	again, err := SearchSchedulers(suite, cands, w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outs, again) {
		t.Fatal("repeated search produced a different ranking")
	}
}

func TestSearchSchedulersValidation(t *testing.T) {
	suite := []Config{planConfig(PolicyStatic)}
	cands := []SchedulerConfig{{Policy: PolicyStatic}}
	if _, err := SearchSchedulers(nil, cands, DefaultFitnessWeights()); err == nil {
		t.Error("empty suite accepted")
	}
	if _, err := SearchSchedulers(suite, nil, DefaultFitnessWeights()); err == nil {
		t.Error("empty candidate list accepted")
	}
	if _, err := SearchSchedulers(suite, cands, FitnessWeights{Violations: -1}); err == nil {
		t.Error("negative weights accepted")
	}
	bad := []SchedulerConfig{{Policy: Policy(9)}}
	if _, err := SearchSchedulers(suite, bad, DefaultFitnessWeights()); err == nil {
		t.Error("invalid candidate accepted")
	}
}

// sequentialSearch is the reference sweep: one run at a time, candidate
// by candidate, folded as it goes.
func sequentialSearch(suite []Config, cands []SchedulerConfig, w FitnessWeights) ([]SearchOutcome, error) {
	outs := make([]SearchOutcome, 0, len(cands))
	for _, cand := range cands {
		out := SearchOutcome{
			Scheduler: cand.withDefaults(),
			PerTrace:  make([]float64, len(suite)),
		}
		for ti, cfg := range suite {
			cfg.Scheduler = cand
			cfg.DecisionTrace = TraceOff
			cfg.CounterfactualK = 0
			res, err := Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("fleet: search candidate %s on suite entry %d: %w",
					cand.Policy, ti, err)
			}
			f := w.Score(res)
			out.PerTrace[ti] = f
			out.Fitness += f
			out.Violations += res.ViolationWindows
			out.Migrations += res.Migrations
			out.BatchCoreHoursGained += res.BatchCoreHoursGained
			out.Fairness += res.FairnessIndex
		}
		out.Fairness /= float64(len(suite))
		outs = append(outs, out)
	}
	sort.SliceStable(outs, func(a, b int) bool { return outs[a].Fitness > outs[b].Fitness })
	return outs, nil
}

// TestSearchSchedulersWorkerIndependent: the concurrent sweep DeepEquals
// the sequential reference whatever CPU budget the suite grants — many
// single-worker runs at once, or one run with the whole pool — and a
// failing sweep always reports the first failing candidate in grid order,
// however the runs interleave. The -race CI job runs it.
func TestSearchSchedulersWorkerIndependent(t *testing.T) {
	auto := planConfig(PolicyFeedback)
	auto.Engine = EngineAuto
	suite := []Config{planConfig(PolicyStatic), auto}
	cands := []SchedulerConfig{
		{Policy: PolicyStatic},
		{Policy: PolicyP2C},
		{Policy: PolicyFeedback},
		{Policy: PolicyFeedback, FeedbackGain: 3, Hysteresis: 0.05},
	}
	w := DefaultFitnessWeights()
	withWorkers := func(suite []Config, n int) []Config {
		out := append([]Config(nil), suite...)
		for i := range out {
			out[i].Workers = n
		}
		return out
	}
	ref, err := sequentialSearch(suite, cands, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 5} {
		got, err := SearchSchedulers(withWorkers(suite, n), cands, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("search at %d workers diverged from the sequential reference", n)
		}
	}
	// A single job keeps the whole budget for its one run.
	one, err := sequentialSearch(suite[1:], cands[2:3], w)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := SearchSchedulers(withWorkers(suite[1:], 5), cands[2:3], w); err != nil || !reflect.DeepEqual(one, got) {
		t.Fatalf("single-job search diverged (err %v)", err)
	}

	failing := append([]SchedulerConfig(nil), cands...)
	failing[1] = SchedulerConfig{Policy: Policy(7)}
	failing[3] = SchedulerConfig{Policy: Policy(9)}
	_, want := sequentialSearch(suite, failing, w)
	if want == nil || !strings.Contains(want.Error(), "candidate Policy(7) on suite entry 0") {
		t.Fatalf("reference error %v does not name candidate 1", want)
	}
	for _, n := range []int{1, 2, 5} {
		for rep := 0; rep < 5; rep++ {
			_, err := SearchSchedulers(withWorkers(suite, n), failing, w)
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("%d workers: error %v, want %v", n, err, want)
			}
		}
	}
}
