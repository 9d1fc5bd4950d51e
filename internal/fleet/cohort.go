// The window walk: the engine's one execution path, under every engine.
//
// In a homogeneous fleet almost every in-service core is bit-identical to
// its neighbours: same client, same perf generation, same settled mode,
// same per-core rate. Paying per-core cost for each of them — a
// work-claim, a solve-cache probe, a histogram Add, a controller Observe —
// a million times per window is waste. Instead each window is walked once,
// in core order, as run-length spans of the plan keyed by (client, rate,
// perf bits, migrated, controller class). A span whose window is answered
// without simulation — an analytic steady window under auto, or a
// zero-rate window under either engine — is answered once: one tail, one
// Histogram.AddN deposit of the span's whole count, a bulk fill of the
// window slices, and one representative controller per equivalence
// class. Every other span forks to the discrete residue, which the worker
// pool simulates core by core. The discrete engine is the walk's
// degenerate case: nothing is steady, so every span with load forks.
//
// Controller equivalence is exact, not approximate: monitor.Controller is
// a deterministic all-scalar function of its observation stream, so cores
// that have observed identical tail histories hold identical controller
// values. The engine tracks that sharing as lazily-split classes: a class
// forks a core out (copying its by-value controller) the moment the core
// diverges — a discrete window, a migration, a drain/park/handover
// transition — and re-merges classes whose post-observation states collide
// (after a shared steady window every member has observed the same tail,
// so formerly distinct classes often collapse back together; the merge map
// is what keeps the class population proportional to the number of
// distinct histories, not the number of cores).
//
// The class table never holds more than nCores + len(clients) slots: at
// most one non-empty class per core, plus at most one emptied class per
// client born this window (its freshFor cold-start class), which later
// handovers may still rejoin and so waits for the end-of-window sweep. A
// class born in an earlier window is unreachable once empty — no freshFor
// or mergeMap entry points at it — so its slot is freed the moment it
// empties, and a span's old class is shrunk before its replacements are
// minted, letting them reuse the slot.
//
// Discrete-residue cores keep their per-core (seed, core, window) rng
// streams, so results are fixed by the seed and DeepEqual across worker
// counts; the equivalence suite in cohort_test.go holds the walk to an
// independent per-core reference.
package fleet

import (
	"sync"
	"sync/atomic"

	"stretch/internal/core"
	"stretch/internal/monitor"
	"stretch/internal/queueing"
	"stretch/internal/stats"
)

// claimChunk caps the number of work units a pool worker claims per atomic
// increment. One atomic per core made the claim counter the hottest cache
// line in a million-core window; block claims amortise it 128×. The block
// actually claimed is claimSize's: claimChunk on large windows, smaller
// on small ones so no worker idles at the barrier.
const claimChunk = 128

// cohortClass is one controller-equivalence class: the controller value
// shared — by construction, not by assumption — by every core whose
// observation history matches. size counts current members; born is the
// window the class was created in (−2 marks a freed table slot awaiting
// reuse), which guards the in-place singleton advance, the early release
// of emptied classes and the double-free check in retire sweeps.
type cohortClass struct {
	ctl      monitor.Controller
	client   int16
	lastMode int8
	born     int32
	size     int32
}

// mergeKey identifies classes that become indistinguishable after a
// coalesced window: identical controller value (all-scalar, so directly
// comparable), identical owner and identical settled mode. Classes mapping
// to the same key are re-merged rather than kept apart forever.
type mergeKey struct {
	ctl      monitor.Controller
	client   int16
	lastMode int8
}

// workItem is one discrete-residue core-window handed to the pool: the
// core keeps its own derived seed, its forked class holds its controller.
type workItem struct {
	core       int32
	class      int32
	rate, perf float64
}

// claimSize is the block a worker claims from a worklist of work items
// shared by workers: about eight blocks per worker, capped at claimChunk
// and at least one item. A 16-core window on two workers thus splits
// across both instead of landing whole in one worker's first claim, while
// a million-core window still claims claimChunk items at a time.
func claimSize(work, workers int) int {
	return min(claimChunk, max(1, work/(8*workers)))
}

// workerPool is the persistent pool the engine reuses across all windows.
// The caller's goroutine is worker 0: run calls fn(0) inline and hands
// indices 1..n−1 to the n−1 helper goroutines over jobs, so a one-worker
// pool starts no goroutine at all. The fn store before each send and the
// WaitGroup join give the race detector (and the memory model) the
// happens-before edges the barrier needs.
type workerPool struct {
	fn   func(wk int)
	jobs chan int
	wg   sync.WaitGroup
}

func newWorkerPool(n int) *workerPool {
	p := &workerPool{jobs: make(chan int, max(0, n-1))}
	for i := 1; i < n; i++ {
		go func() {
			for wk := range p.jobs {
				p.fn(wk)
				p.wg.Done()
			}
		}()
	}
	return p
}

// run calls fn(wk) for each worker index and blocks until all return.
func (p *workerPool) run(n int, fn func(wk int)) {
	p.fn = fn
	p.wg.Add(n - 1)
	for wk := 1; wk < n; wk++ {
		p.jobs <- wk
	}
	fn(0)
	p.wg.Wait()
}

func (p *workerPool) close() { close(p.jobs) }

// initCohorts wires the walk's state. The class table is sized once to its
// nCores + nClients bound (see the package note above); freed slots recycle
// through freeClass, so a discrete window's forks reuse the slots the
// previous window's merges and departures released. The worklist is sized
// to the fleet: under the discrete engine every serving core lands on it.
func (e *engine) initCohorts(nClients int) {
	e.classOf = make([]int32, e.nCores)
	for c := range e.classOf {
		e.classOf[c] = -1
	}
	e.classes = make([]cohortClass, 0, e.nCores+nClients)
	e.swBase = make([]uint64, e.nCores)
	e.mergeMap = make(map[mergeKey]int32)
	e.freshFor = make([]int32, nClients)
	e.worklist = make([]workItem, 0, e.nCores)
}

// newClass allocates a class table slot, recycling freed ones.
func (e *engine) newClass(cl cohortClass) int32 {
	if n := len(e.freeClass); n > 0 {
		k := e.freeClass[n-1]
		e.freeClass = e.freeClass[:n-1]
		e.classes[k] = cl
		return k
	}
	e.classes = append(e.classes, cl)
	return int32(len(e.classes) - 1)
}

// shrinkClass drops m members from class k. An emptied class born before
// window w is unreachable and its slot is freed at once (born −2 marks a
// freed slot); one born in w may still be rejoined through freshFor, so it
// waits for the end-of-window sweep.
func (e *engine) shrinkClass(k, m int32, w int) {
	cl := &e.classes[k]
	cl.size -= m
	if cl.size > 0 {
		return
	}
	if cl.born < int32(w) {
		cl.born = -2
		e.freeClass = append(e.freeClass, k)
	} else {
		e.retired = append(e.retired, k)
	}
}

// leaveClass removes core c from class k, banking the class controller's
// switch count into the core's own base: the class controller may be
// reused or merged away before the core's next cold start.
func (e *engine) leaveClass(c int, k int32, w int) {
	e.swBase[c] += e.classes[k].ctl.Switches()
	e.shrinkClass(k, 1, w)
	e.classOf[c] = -1
}

// walkWindow executes one window: the serial walk answers the coalesced
// spans and queues the discrete residue, the pool simulates the residue,
// claiming work in claimSize blocks, and the first per-core error in core
// order is returned once the pool has joined.
func (e *engine) walkWindow(w int, asg Assignment) error {
	e.coalesceWindow(w, asg)
	if work := len(e.worklist); work > 0 {
		workers := len(e.sims)
		chunk := claimSize(work, workers)
		var next atomic.Int64
		e.pool.run(workers, func(wk int) {
			sim := e.sims[wk]
			var shard []*stats.Histogram
			if e.shards != nil {
				shard = e.shards[wk]
			}
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= work {
					return
				}
				for _, it := range e.worklist[lo:min(lo+chunk, work)] {
					e.runWorkItem(it, w, sim, shard)
				}
			}
		})
	}
	for _, err := range e.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// coalesceWindow is phase one of a window: a single serial walk over the
// plan that answers every coalesced span at once and queues the discrete
// residue for the pool. Serial is deliberate — span handling mutates the
// shared class table and merge map, and the walk is O(spans +
// cores·(slice fills)) with no simulation inside, so it is never the
// bottleneck; the expensive residue runs on the pool in phase two.
func (e *engine) coalesceWindow(w int, asg Assignment) {
	e.worklist = e.worklist[:0]
	e.retired = e.retired[:0]
	for ci := range e.freshFor {
		e.freshFor[ci] = -1
	}
	clear(e.mergeMap)

	spanStart := -1
	var spanClass int32
	var spanCi int16
	var spanRate, spanPerf float64
	var spanMig bool
	flush := func(end int) {
		if spanStart >= 0 {
			e.subRun(w, spanClass, spanStart, end, spanCi, spanRate, spanPerf, spanMig)
			spanStart = -1
		}
	}

	for c := 0; c < e.nCores; c++ {
		ci := asg.Client[c]
		if ci < 0 {
			flush(c)
			if k := e.classOf[c]; k >= 0 {
				e.leaveClass(c, k, w)
			}
			continue
		}
		k := e.classOf[c]
		if k < 0 || e.classes[k].client != ci {
			// Handover (or return from a sentinel state): a cold start with
			// a freshly reset controller, shared by every core handed to
			// the same client this window.
			flush(c)
			if k >= 0 {
				e.leaveClass(c, k, w)
			}
			k = e.freshFor[ci]
			if k < 0 {
				k = e.newClass(cohortClass{client: ci, lastMode: -1, born: int32(w)})
				if err := e.classes[k].ctl.Reset(e.monCfg(e.targets[ci])); err != nil {
					e.errs[c] = err
					continue
				}
				e.freshFor[ci] = k
			}
			e.classOf[c] = k
			e.classes[k].size++
		}
		rate, mig, perf := asg.Rate[c], asg.Migrated[c], e.perf[c]
		if spanStart >= 0 && (k != spanClass || rate != spanRate || perf != spanPerf || mig != spanMig) {
			flush(c)
		}
		if spanStart < 0 {
			spanStart, spanClass, spanCi = c, k, ci
			spanRate, spanPerf, spanMig = rate, perf, mig
		}
	}
	flush(e.nCores)

	// Reclaim this window's cold-start classes that stayed empty. born ==
	// -2 marks a slot already freed, guarding against duplicate retire
	// entries; a class that emptied mid-walk but was rejoined later has
	// size > 0 again and survives.
	for _, k := range e.retired {
		if e.classes[k].size == 0 && e.classes[k].born >= 0 {
			e.classes[k].born = -2
			e.freeClass = append(e.freeClass, k)
		}
	}
}

// subRun executes one maximal run of cores sharing (class, client, rate,
// perf, migrated) — the cohort key. The mode, effective perf factor,
// batch credit and classification are computed once for the whole run:
// identical inputs would give every member core the identical answer.
func (e *engine) subRun(w int, k int32, a, b int, ci int16, rate, rawPerf float64, mig bool) {
	m := int32(b - a)
	mode := e.classes[k].ctl.Mode()
	perf := rawPerf
	// The engaged mode's calibrated LS delta: positive slows the service
	// (B-mode), negative speeds it up (a calibrated Q-mode cell). Guarded
	// so disengaged modes multiply nothing and stay bit-identical to the
	// pre-calibration arithmetic.
	if s := e.lsSlowMode[ci][mode]; s != 0 {
		perf *= 1 - s
	}
	if mig {
		perf *= 1 - e.migPenalty
	}
	modeB := mode == core.ModeB
	var bRel float64
	if modeB && mig && e.migPenalty > 0 {
		// Warming the new client's working set eats the bonus.
		bRel = 1
	} else {
		bRel = e.batchRelMode[ci][mode]
	}
	for c := a; c < b; c++ {
		e.batchRel[c] = bRel
		e.modeB[c] = modeB
	}

	// Classification. An idle window — a Poisson draw of zero arrivals, or
	// a window the scheduler routed no load to — skips the queueing
	// simulation under every engine and reads as zero tail: maximal slack.
	// This is deliberate: a core with nothing to serve cannot violate its
	// target, its controller sees the deepest possible headroom (driving it
	// toward B-mode), and the zero is recorded like any other tail under
	// both estimators, so idle windows pull the measured quantiles down
	// rather than being silently dropped. Under auto, a steady span —
	// settled mode, no migration cold-start, no burst/surge turbulence,
	// utilization inside the guard band — takes the analytic answer; a
	// solver refusal drops it to the discrete residue, never errors the run.
	tail, analytic, coalesced := 0.0, false, false
	if rate <= 0 {
		coalesced = true
	} else if e.engineSel == EngineAuto && e.analyticOK[ci] &&
		rate*e.utilCoef[ci]/perf <= autoSteadyMaxUtil && int8(mode) == e.classes[k].lastMode &&
		!mig && !e.unsteady[ci][w] {
		tail, analytic = e.analyticTail(ci, rate, perf)
		coalesced = analytic
	}

	if coalesced {
		// Answer the whole cohort at once. Every member observes the same
		// tail, so the post-observation controller is one shared value:
		// look it up in the merge map and fold the members into whichever
		// class already carries that exact state (or mint one).
		cand := e.classes[k].ctl
		cand.Observe(monitor.Observation{TailMs: tail})
		e.shrinkClass(k, m, w)
		mk := mergeKey{ctl: cand, client: ci, lastMode: int8(mode)}
		tgt, ok := e.mergeMap[mk]
		if !ok {
			tgt = e.newClass(cohortClass{ctl: cand, client: ci, lastMode: int8(mode), born: int32(w)})
			e.mergeMap[mk] = tgt
		}
		for c := a; c < b; c++ {
			e.tails[c] = tail
			e.classOf[c] = tgt
		}
		e.classes[tgt].size += m
		if analytic {
			e.analyticCores += int(m)
		}
		if e.engineSel == EngineAuto {
			e.cohortCores += int(m)
		}
		// The walk runs before the pool starts, so worker 0's shard can
		// take the span's deposit; integer bucket counts merge in any
		// order.
		if e.shards != nil {
			e.shards[0][ci].AddN(tail, uint64(m))
		}
		return
	}

	// Discrete residue: each member diverges through its own rng stream,
	// so each forks out into a singleton class the pool can advance
	// independently. A sole surviving member of an old class advances in
	// place — the steady state of a settled discrete fleet, paying no
	// table traffic at all.
	if m == 1 && e.classes[k].size == 1 && e.classes[k].born < int32(w) {
		e.classes[k].lastMode = int8(mode)
		e.worklist = append(e.worklist, workItem{core: int32(a), class: k, rate: rate, perf: perf})
		return
	}
	base := e.classes[k].ctl
	e.shrinkClass(k, m, w)
	for c := a; c < b; c++ {
		sk := e.newClass(cohortClass{ctl: base, client: ci, lastMode: int8(mode), born: int32(w), size: 1})
		e.classOf[c] = sk
		e.worklist = append(e.worklist, workItem{core: int32(c), class: sk, rate: rate, perf: perf})
	}
}

// runWorkItem is phase two's unit of work: one discrete-residue
// core-window, simulated on the core's own (seed, core, window)-derived
// stream with the worker's reused Simulator, its tail deposited in the
// worker's shard and observed by the core's singleton class. Items touch
// disjoint cores and classes, so the pool needs no locking beyond the
// claim counter.
func (e *engine) runWorkItem(it workItem, w int, sim *queueing.Simulator, shard []*stats.Histogram) {
	c := int(it.core)
	ci := e.classes[it.class].client
	seed := e.streams[c].Derive(uint64(w)).Uint64()
	if err := sim.Reset(e.qcfgs[ci]); err != nil {
		e.errs[c] = err
		return
	}
	tail, err := sim.Tail(it.rate, e.windowReq, it.perf, seed)
	if err != nil {
		e.errs[c] = err
		return
	}
	e.tails[c] = tail
	if shard != nil {
		shard[ci].Add(tail)
	}
	e.classes[it.class].ctl.Observe(monitor.Observation{TailMs: tail})
}
