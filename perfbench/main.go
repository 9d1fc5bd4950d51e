// Command perfbench is the repository benchmark. It runs one workload as a
// closed loop — one caller issuing one simulation job at a time, the next
// only after the previous returns — for a fixed host-time budget, checks
// every job's outputs, and prints its metrics as one JSON object on the
// last line of standard output.
//
//	perfbench --workload day-discrete|failover-auto|search-grid|calib-mixed
//	          [--seed 1] [--seconds 10] [--trace 0|1] [--root .]
//
// --trace 0 reports the end-to-end metrics, measured with tracing off.
// --trace 1 alternates untraced and traced jobs, records spans around every
// call into a layer's public function, replays unit-cost calls at the
// workload's operating points, and reports the per-layer metrics; the spans
// are written to .bench_build/spans under --root.
//
// run.py builds and runs this program from the repository root; see
// README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A run builds its workload at least minSetups times and until setupBudget
// is spent (at most maxSetups times); setup_s is the median, so a one-off
// stall does not read as a set-up regression, and a set-up of a few
// milliseconds is still timed over many repeats.
const (
	minSetups   = 5
	maxSetups   = 101
	setupBudget = 500 * time.Millisecond
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadList())
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "host-time budget of the measured loop")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		root    = flag.String("root", ".", "repository root (holds cmd/ and internal/)")
	)
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	if !(*seconds > 0) {
		fail(fmt.Errorf("--seconds must be positive"))
	}
	def, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (want %s)", *name, workloadList()))
	}
	opts := options{seed: *seed, root: *root, scale: fullScale}
	budget := time.Duration(*seconds * float64(time.Second))
	var (
		rep report
		err error
	)
	if *traced == 1 {
		rep, err = runTraced(def, opts, budget)
	} else {
		rep, err = runUntraced(def, opts, budget)
	}
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// loop runs jobs back to back until the budget is spent, always at least
// minJobs. A job is not started when the previous one's duration says it
// would overrun the budget, so a run lasts about the budget, not up to one
// job longer.
func loop(budget time.Duration, minJobs int, job func() time.Duration) {
	start := time.Now()
	var last time.Duration
	for n := 0; n < minJobs || time.Since(start)+last <= budget; n++ {
		last = job()
	}
}

// setupMedian builds the workload repeatedly and returns the last
// instance, the median set-up time and the mean phase split.
func setupMedian(def workloadDef, o options) (instance, time.Duration, setupTimes, error) {
	var (
		w     instance
		durs  []float64
		split setupTimes
		spent time.Duration
	)
	for len(durs) < minSetups || (spent < setupBudget && len(durs) < maxSetups) {
		var st setupTimes
		runtime.GC() // no earlier set-up's garbage is collected on this one's clock
		t0 := time.Now()
		inst, err := def.setup(o, &st)
		d := time.Since(t0)
		if err != nil {
			return nil, 0, split, fmt.Errorf("set-up: %w", err)
		}
		spent += d
		durs = append(durs, d.Seconds())
		split.add(st)
		w = inst
	}
	n := time.Duration(len(durs))
	split = setupTimes{split.peakAnchor / n, split.traceLoad / n, split.validate / n}
	return w, time.Duration(median(durs) * float64(time.Second)), split, nil
}

// runUntraced measures the end-to-end metrics.
func runUntraced(def workloadDef, o options, budget time.Duration) (report, error) {
	w, setup, _, err := setupMedian(def, o)
	if err != nil {
		return report{}, err
	}
	var (
		jobS, allocMB []float64
		attempted     int
		failed        int
		digest        string
	)
	loop(budget, 1, func() time.Duration {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		out, jerr := w.run(nil)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		attempted++
		jobS = append(jobS, d.Seconds())
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		switch {
		case jerr != nil:
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: job failed: %v\n", jerr)
		case digest != "" && out.digest != digest:
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: job digest %s differs from the run's first %s at the same seed\n", out.digest, digest)
		default:
			digest = out.digest
		}
		return d
	})
	fmt.Printf("digest %s %s\n", def.name, digest)
	return report{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metric{
			"setup_s":     {setup.Seconds(), "s"},
			"job_s":       {median(jobS), "s"},
			"peak_rss_mb": {maxRSSMB(), "MB"},
			"alloc_mb":    {median(allocMB), "MB"},
		},
	}, nil
}

// maxRSSMB is the process's peak resident set so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median of a non-empty slice (the slice is sorted in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of a non-empty slice
// (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// spanDir is where traced runs write their spans, under the repository
// root; it is inside the build directory the benchmark already owns.
func spanDir(root string) string { return filepath.Join(root, ".bench_build", "spans") }
