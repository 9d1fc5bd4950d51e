package core

import (
	"fmt"
	"sort"
)

// RunSpec bounds one simulation run. Instruction counts are per thread,
// mirroring the SimFlex methodology (§V-C): warm up, then measure.
type RunSpec struct {
	// WarmupInstr µops retire per thread before measurement starts.
	WarmupInstr uint64
	// MeasureInstr µops are measured per thread.
	MeasureInstr uint64
	// MaxCycles caps the run (0 = derive a generous default).
	MaxCycles int64
}

// ThreadMetrics summarises one hardware thread's measured window.
type ThreadMetrics struct {
	// IPC is µops committed per cycle inside the measurement window
	// (the paper's UIPC figure of merit).
	IPC float64
	// Cycles and Instructions delimit the measured window.
	Cycles       int64
	Instructions uint64
	// MispredictRate is mispredicts per branch over the whole run.
	MispredictRate float64
	// L1DMissRate and L1IMissRate are per-access miss ratios attributed
	// to this thread over the whole run.
	L1DMissRate float64
	L1IMissRate float64
	// MLPTail[k] is the fraction of measured time with >= k demand
	// misses in flight (k = 0..5); MLPTail[2] is the paper's "exhibits
	// MLP" statistic from Fig. 7.
	MLPTail [6]float64
	// AvgOutstanding is the mean number of demand misses in flight.
	AvgOutstanding float64
	// Stall diagnostics (event counts over the whole run): cycles the
	// thread's fetch was blocked, and dispatch-blocking events by cause.
	StallFetchBlocked uint64
	StallBranchRec    uint64
	StallROBFull      uint64
	StallLSQFull      uint64
	StallEmptyFB      uint64
}

// cycleCap is the run's cycle limit.
func (spec RunSpec) cycleCap() int64 {
	if spec.MaxCycles != 0 {
		return spec.MaxCycles
	}
	// At worst IPC ~0.005 per thread (pathological throttling).
	return int64(spec.WarmupInstr+spec.MeasureInstr) * 200
}

// Run executes the core until every thread has retired
// WarmupInstr+MeasureInstr µops (or MaxCycles elapses) and returns
// per-thread metrics. It may be called once per Core.
func (c *Core) Run(spec RunSpec) ([]ThreadMetrics, error) {
	if spec.MeasureInstr == 0 {
		return nil, fmt.Errorf("core: zero measurement length")
	}
	c.advance(spec.cycleCap(), func() bool { return c.markWindows(spec) })
	return c.runMetrics(), nil
}

// advance runs the core up to cycle end, or until done (called after every
// stepped cycle; nil never stops) reports true. Idle cycles are skipped in
// bulk (see skipIdle) with the same results as stepping each one.
func (c *Core) advance(end int64, done func() bool) {
	var before [2]stallCounters
	for c.cycle < end {
		for i, t := range c.threads {
			before[i] = t.stall
		}
		busy := c.step()
		if done != nil && done() {
			return
		}
		if !busy {
			c.skipIdle(end, &before)
		}
	}
}

// markWindows opens and closes the threads' measurement windows as their
// commit counts cross the spec's bounds, and reports whether every
// thread's window has closed.
func (c *Core) markWindows(spec RunSpec) bool {
	target := spec.WarmupInstr + spec.MeasureInstr
	doneAll := true
	for _, t := range c.threads {
		if t.measStartCycle == 0 && t.committed >= spec.WarmupInstr {
			t.measStartCycle = c.cycle
			t.measStartN = t.committed
		}
		if t.measEndCycle == 0 && t.committed >= target {
			t.measEndCycle = c.cycle
			t.measEndN = t.committed
		}
		if t.measEndCycle == 0 {
			doneAll = false
		}
	}
	return doneAll
}

// runMetrics closes any window the cycle cap left open and summarises
// every thread.
func (c *Core) runMetrics() []ThreadMetrics {
	out := make([]ThreadMetrics, c.nthreads)
	for i, t := range c.threads {
		if t.measStartCycle == 0 {
			t.measStartCycle, t.measStartN = 1, 0
		}
		if t.measEndCycle == 0 { // hit the cycle cap: measure what ran
			t.measEndCycle, t.measEndN = c.cycle, t.committed
		}
		out[i] = c.threadMetrics(t)
	}
	return out
}

// RunCycles advances the core by n cycles without measurement windows;
// used by the closed-loop controller experiments. It returns per-thread
// committed-instruction counts since the start of the run.
func (c *Core) RunCycles(n int64) []uint64 {
	c.advance(c.cycle+n, nil)
	out := make([]uint64, c.nthreads)
	for i, t := range c.threads {
		out[i] = t.committed
	}
	return out
}

// Committed returns the lifetime committed µop count of thread tid.
func (c *Core) Committed(tid int) uint64 { return c.threads[tid].committed }

// ROBOccupancy returns thread tid's current window occupancy (testing and
// introspection).
func (c *Core) ROBOccupancy(tid int) int { return c.threads[tid].robOcc }

// ROBLimit returns thread tid's current limit register value.
func (c *Core) ROBLimit(tid int) int { return c.threads[tid].robLimit }

func (c *Core) threadMetrics(t *thread) ThreadMetrics {
	m := ThreadMetrics{
		Cycles:       t.measEndCycle - t.measStartCycle,
		Instructions: t.measEndN - t.measStartN,
	}
	if m.Cycles > 0 {
		m.IPC = float64(m.Instructions) / float64(m.Cycles)
	}
	if t.branches > 0 {
		m.MispredictRate = float64(t.mispredicts) / float64(t.branches)
	}
	if t.dAccesses > 0 {
		m.L1DMissRate = float64(t.dMisses) / float64(t.dAccesses)
	}
	if t.iAccesses > 0 {
		m.L1IMissRate = float64(t.iMisses) / float64(t.iAccesses)
	}
	m.MLPTail, m.AvgOutstanding = mlpCensus(t.missEvents, t.measStartCycle, t.measEndCycle)
	m.StallFetchBlocked = t.stall.fetchBlocked
	m.StallBranchRec = t.stall.branchRec
	m.StallROBFull = t.stall.robFull
	m.StallLSQFull = t.stall.lsqFull
	m.StallEmptyFB = t.stall.emptyFB
	return m
}

// mlpCensus integrates the demand-miss interval events over the window and
// returns the fraction of time with >= k misses outstanding, for k = 0..5,
// plus the time-average outstanding count. It clamps and sorts evs in
// place: Run runs once per Core and nothing reads the events afterwards.
func mlpCensus(evs []missEvent, start, end int64) (tail [6]float64, avg float64) {
	if end <= start || len(evs) == 0 {
		tail[0] = 1
		return tail, 0
	}
	for i := range evs {
		evs[i].at = min(max(evs[i].at, start), end)
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].at < evs[j].at })

	var timeAt [16]int64
	level := 0
	prev := start
	area := int64(0)
	for _, e := range evs {
		if e.at > prev {
			l := level
			if l > 15 {
				l = 15
			}
			if l < 0 {
				l = 0
			}
			timeAt[l] += e.at - prev
			area += int64(level) * (e.at - prev)
			prev = e.at
		}
		level += int(e.delta)
	}
	if end > prev {
		l := level
		if l > 15 {
			l = 15
		}
		if l < 0 {
			l = 0
		}
		timeAt[l] += end - prev
		area += int64(level) * (end - prev)
	}
	total := float64(end - start)
	cum := int64(0)
	for k := 15; k >= 0; k-- {
		cum += timeAt[k]
		if k < 6 {
			tail[k] = float64(cum) / total
		}
	}
	return tail, float64(area) / total
}
