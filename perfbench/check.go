package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"

	"stretch/internal/calib"
	"stretch/internal/fleet"
)

// checkResult enforces the fleet invariants every job's Result must hold.
// A violation fails the job.
func checkResult(r fleet.Result) error {
	if len(r.WindowTrace) != r.Windows {
		return fmt.Errorf("window trace holds %d windows, run had %d", len(r.WindowTrace), r.Windows)
	}
	serving := 0
	for _, o := range r.WindowTrace {
		if got := o.ServingCores + o.DrainedCores + o.ParkedCores + o.IdleCores; got != r.Cores {
			return fmt.Errorf("window %d: serving+drained+parked+idle = %d, fleet has %d cores", o.Window, got, r.Cores)
		}
		serving += o.ServingCores
		for ci, c := range o.Clients {
			for _, v := range []float64{c.MeanTailMs, c.MaxTailMs, c.TailP99Ms, c.OfferedRPS} {
				if !finiteNonNeg(v) {
					return fmt.Errorf("window %d client %d: tail or rate %v is not finite and non-negative", o.Window, ci, v)
				}
			}
		}
	}
	cw := 0
	for _, c := range r.Clients {
		cw += c.CoreWindows
		if c.ViolationWindows < 0 || c.ViolationWindows > c.CoreWindows {
			return fmt.Errorf("client %s: %d violations over %d core-windows", c.Client, c.ViolationWindows, c.CoreWindows)
		}
		for _, v := range []float64{c.P99Ms, c.P999Ms, c.EngagedCoreHours} {
			if !finiteNonNeg(v) {
				return fmt.Errorf("client %s: tail or hours %v is not finite and non-negative", c.Client, v)
			}
		}
		if !finite(c.BatchCoreHoursGained) {
			return fmt.Errorf("client %s: batch core-hours gained %v is not finite", c.Client, c.BatchCoreHoursGained)
		}
	}
	if cw != serving {
		return fmt.Errorf("client core-windows sum to %d, serving cores over the windows to %d", cw, serving)
	}
	for _, v := range []float64{r.FleetP99Ms, r.FleetP999Ms, r.EngagedCoreHours} {
		if !finiteNonNeg(v) {
			return fmt.Errorf("fleet tail or hours %v is not finite and non-negative", v)
		}
	}
	if !finite(r.BatchGain) || !finite(r.BatchCoreHoursGained) {
		return fmt.Errorf("batch gain %v is not finite", r.BatchGain)
	}
	if !(r.FairnessIndex > 0 && r.FairnessIndex <= 1) {
		return fmt.Errorf("fairness index %v outside (0, 1]", r.FairnessIndex)
	}
	return nil
}

// checkSearch checks a ranking: every candidate is present with a finite
// fitness, the order is best first, and the hand-tuned feedback baseline
// is among the candidates.
func checkSearch(outs []fleet.SearchOutcome, cands int) error {
	if len(outs) != cands {
		return fmt.Errorf("search ranked %d of %d candidates", len(outs), cands)
	}
	baseline := fleet.SchedulerConfig{Policy: fleet.PolicyFeedback}.WithDefaults()
	found := false
	for i, o := range outs {
		if !finite(o.Fitness) || !finite(o.BatchCoreHoursGained) {
			return fmt.Errorf("candidate %d: fitness %v or batch hours %v not finite", i, o.Fitness, o.BatchCoreHoursGained)
		}
		if !(o.Fairness > 0 && o.Fairness <= 1) {
			return fmt.Errorf("candidate %d: fairness %v outside (0, 1]", i, o.Fairness)
		}
		if i > 0 && o.Fitness > outs[i-1].Fitness {
			return fmt.Errorf("ranking out of order at %d", i)
		}
		if o.Scheduler == baseline {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("hand-tuned feedback candidate missing from the ranking")
	}
	return nil
}

// matchCommitted requires every cell and solo IPC of t to equal the
// committed table's bit for bit.
func matchCommitted(t, committed *calib.Table) error {
	for s, row := range t.Pairs {
		for b, p := range row {
			want, ok := committed.Pair(s, b)
			if !ok {
				return fmt.Errorf("committed table has no %s × %s pair", s, b)
			}
			if p != want {
				return fmt.Errorf("%s × %s: built %+v, committed %+v", s, b, p, want)
			}
		}
	}
	for n, ipc := range t.SoloIPC {
		want, ok := committed.SoloIPC[n]
		if !ok || math.Float64bits(ipc) != math.Float64bits(want) {
			return fmt.Errorf("solo IPC of %s: built %v, committed %v", n, ipc, want)
		}
	}
	return nil
}

func finite(v float64) bool       { return !math.IsNaN(v) && !math.IsInf(v, 0) }
func finiteNonNeg(v float64) bool { return finite(v) && v >= 0 }

// servingCW is the serving core-windows of a run.
func servingCW(r fleet.Result) int {
	n := 0
	for _, o := range r.WindowTrace {
		n += o.ServingCores
	}
	return n
}

// The digests hash every simulated statistic a job reports, rendered with
// full float precision, so a speed-only change can show they are unchanged.

func digestResult(r fleet.Result) string {
	var b strings.Builder
	for _, c := range r.Clients {
		fmt.Fprintf(&b, "client %s p99 %x p999 %x viol %d cw %d engaged %x batch %x\n", c.Client,
			math.Float64bits(c.P99Ms), math.Float64bits(c.P999Ms), c.ViolationWindows, c.CoreWindows,
			math.Float64bits(c.EngagedCoreHours), math.Float64bits(c.BatchCoreHoursGained))
	}
	fmt.Fprintf(&b, "fleet p99 %x p999 %x switches %d migrations %d batch %x\n",
		math.Float64bits(r.FleetP99Ms), math.Float64bits(r.FleetP999Ms), r.Switches, r.Migrations,
		math.Float64bits(r.BatchCoreHoursGained))
	return hashString(b.String())
}

func digestSearch(outs []fleet.SearchOutcome) string {
	var b strings.Builder
	for _, o := range outs {
		fmt.Fprintf(&b, "%+v fitness %x viol %d migr %d batch %x fair %x\n", o.Scheduler,
			math.Float64bits(o.Fitness), o.Violations, o.Migrations,
			math.Float64bits(o.BatchCoreHoursGained), math.Float64bits(o.Fairness))
	}
	return hashString(b.String())
}

func digestTable(t *calib.Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "hash %s\n", t.Hash)
	var keys []string
	for s, row := range t.Pairs {
		for bt := range row {
			keys = append(keys, s+"\x00"+bt)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		s, bt, _ := strings.Cut(k, "\x00")
		p := t.Pairs[s][bt]
		fmt.Fprintf(&b, "%s %s %x %x %x %x %x %x\n", s, bt,
			math.Float64bits(p.B.LSSlowdown), math.Float64bits(p.B.BatchSpeedup),
			math.Float64bits(p.Q.LSSlowdown), math.Float64bits(p.Q.BatchSpeedup),
			math.Float64bits(p.EqualLSIPC), math.Float64bits(p.EqualBatchIPC))
	}
	names := make([]string, 0, len(t.SoloIPC))
	for n := range t.SoloIPC {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "solo %s %x\n", n, math.Float64bits(t.SoloIPC[n]))
	}
	return hashString(b.String())
}

func hashString(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}
