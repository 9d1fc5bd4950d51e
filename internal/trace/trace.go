// Package trace generates synthetic micro-op streams with controlled
// statistical properties: instruction mix, code/data locality tiers,
// dependence density (ILP), pointer-chasing fraction (MLP suppression),
// streaming fraction (prefetchability), and branch predictability.
//
// The generator substitutes for the full-system CloudSuite/SPEC traces the
// paper feeds its Flexus simulator. Each workload is described by a Profile;
// a Generator deterministically expands a Profile into an unbounded µop
// stream that the core model consumes. The properties the paper's argument
// rests on — latency-sensitive services have large instruction footprints
// and dependent (serialised) misses, batch workloads have independent
// misses that a large window can overlap — are first-class profile knobs.
//
// Invariant: a Generator's stream is a pure function of (Profile, seed) —
// all randomness comes from its own rng.Stream — so any measurement built
// on it reproduces bit-identically.
//
// Memory locality is expressed as three address tiers sized to the cache
// hierarchy: a hot region (L1-resident), a warm region (LLC-resident) and a
// cold region (the full footprint, mostly memory-resident). The core still
// simulates real caches over these addresses, so SMT capacity contention
// emerges from the arrays rather than from the profile.
package trace

import (
	"fmt"

	"stretch/internal/isa"
	"stretch/internal/rng"
)

// Class distinguishes the two workload families in the paper.
type Class uint8

// Workload classes.
const (
	LatencySensitive Class = iota
	Batch
)

// String returns the class name.
func (c Class) String() string {
	if c == LatencySensitive {
		return "latency-sensitive"
	}
	return "batch"
}

// Mix gives the fraction of each micro-op kind in the dynamic stream. The
// remainder after Load+Store+Branch+FP+Mul is integer ALU work.
type Mix struct {
	Load, Store, Branch, FP, Mul float64
}

// Valid reports whether the fractions are sane.
func (m Mix) Valid() bool {
	sum := m.Load + m.Store + m.Branch + m.FP + m.Mul
	return m.Load >= 0 && m.Store >= 0 && m.Branch >= 0 && m.FP >= 0 && m.Mul >= 0 && sum <= 1.0001
}

// Profile is the statistical description of one workload.
type Profile struct {
	// Name identifies the workload (e.g. "web-search", "zeusmp").
	Name string
	// Class marks the workload latency-sensitive or batch.
	Class Class
	// Mix is the dynamic instruction mix.
	Mix Mix

	// HotCodeBytes is the L1-I-resident part of the code working set;
	// HotCodeProb is the probability a control transfer stays inside it.
	// The remainder of CodeFootprint is touched uniformly (cold code,
	// LLC-resident). Server workloads have multi-MB cold code.
	CodeFootprint int64
	HotCodeBytes  int64
	HotCodeProb   float64
	// BlockLen is the mean basic-block length in instructions.
	BlockLen float64

	// Data tiers: scatter/chase accesses hit the hot region with
	// HotDataProb, the warm region with WarmDataProb, and the cold
	// region (DataFootprint) otherwise.
	DataFootprint int64
	HotDataBytes  int64
	WarmDataBytes int64
	HotDataProb   float64
	WarmDataProb  float64

	// StreamFrac is the fraction of loads/stores that walk sequential
	// cold addresses (stride-prefetchable); StreamSites is the number of
	// concurrent independent stream walkers.
	StreamFrac  float64
	StreamSites int
	// ChaseFrac is the fraction of loads whose address depends on the
	// value of the previous load (pointer chasing): these serialise and
	// yield no MLP regardless of window size.
	ChaseFrac float64

	// DepProb is the probability a µop has a register input; DepMean is
	// the mean dependence distance (larger = more ILP); DepTwoFrac adds
	// a second input.
	DepProb    float64
	DepMean    float64
	DepTwoFrac float64

	// BranchNoise is the probability a branch outcome is inherently
	// unpredictable (flips against its bias); sets the mispredict floor.
	BranchNoise float64
	// TakenBias is the mean probability a conditional branch is taken.
	TakenBias float64
}

// Validate checks the profile for obviously broken parameters.
func (p *Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("trace: profile missing name")
	case !p.Mix.Valid():
		return fmt.Errorf("trace: profile %s has invalid mix", p.Name)
	case p.CodeFootprint < 1024 || p.DataFootprint < 1024:
		return fmt.Errorf("trace: profile %s has degenerate footprints", p.Name)
	case p.HotCodeBytes <= 0 || p.HotDataBytes <= 0 || p.WarmDataBytes <= 0:
		return fmt.Errorf("trace: profile %s has empty locality tiers", p.Name)
	case p.HotCodeProb < 0 || p.HotCodeProb > 1:
		return fmt.Errorf("trace: profile %s has invalid hot-code probability", p.Name)
	case p.HotDataProb < 0 || p.WarmDataProb < 0 || p.HotDataProb+p.WarmDataProb > 1:
		return fmt.Errorf("trace: profile %s has invalid data tier probabilities", p.Name)
	case p.BlockLen < 2:
		return fmt.Errorf("trace: profile %s has block length < 2", p.Name)
	case p.StreamFrac < 0 || p.ChaseFrac < 0 || p.StreamFrac+p.ChaseFrac > 1:
		return fmt.Errorf("trace: profile %s has invalid load behaviour fractions", p.Name)
	case p.StreamFrac > 0 && p.StreamSites <= 0:
		return fmt.Errorf("trace: profile %s streams without stream sites", p.Name)
	case p.DepMean < 1 || p.DepProb < 0 || p.DepProb > 1:
		return fmt.Errorf("trace: profile %s has invalid dependence model", p.Name)
	}
	return nil
}

const (
	lineBytes  = 64
	instrBytes = 4
	// Address-space layout. Code and the three data tiers live in
	// disjoint ranges; the core salts addresses per thread when
	// structures are shared.
	codeBase     = uint64(0x0000_4000_0000)
	hotDataBase  = uint64(0x0008_0000_0000)
	warmDataBase = uint64(0x0010_0000_0000)
	coldDataBase = uint64(0x0020_0000_0000)

	streamStride = 16 // bytes between consecutive stream accesses
	maxDep       = 255
)

// Generator expands a Profile into a deterministic µop stream. It
// implements the core's Stream interface.
type Generator struct {
	prof Profile
	src  *rng.Stream
	dep  rng.GeometricDist // register dependence distance, mean prof.DepMean

	hotBlocks, coldBlocks int
	block                 int    // current static block id
	blockPC               uint64 // start PC of the current block
	pcCursor              uint64 // PC of the next µop
	blockLeft             int
	takenProb             float64

	hotLines, warmLines, coldLines int64

	streamPtrs []uint64
	streamNext int

	sinceLoad int32
	emitted   uint64
}

// NewGenerator builds a generator for profile p seeded by seed. The same
// (profile, seed) pair always produces the identical stream.
func NewGenerator(p Profile, seed uint64) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	blockBytes := 2 * int64(p.BlockLen) * instrBytes // block spacing
	g := &Generator{
		prof:       p,
		src:        rng.New(seed).Derive(0xace),
		dep:        rng.NewGeometric(p.DepMean),
		hotBlocks:  atLeast(int(p.HotCodeBytes/blockBytes), 2),
		coldBlocks: atLeast(int(p.CodeFootprint/blockBytes), 4),
		hotLines:   atLeast64(p.HotDataBytes/lineBytes, 2),
		warmLines:  atLeast64(p.WarmDataBytes/lineBytes, 2),
		coldLines:  atLeast64(p.DataFootprint/lineBytes, 4),
	}
	sites := p.StreamSites
	if sites <= 0 {
		sites = 1
	}
	g.streamPtrs = make([]uint64, sites)
	span := uint64(g.coldLines) * lineBytes / uint64(sites)
	for i := range g.streamPtrs {
		g.streamPtrs[i] = coldDataBase + uint64(i)*span
	}
	g.newBlock()
	return g, nil
}

func atLeast(v, min int) int {
	if v < min {
		return min
	}
	return v
}

func atLeast64(v, min int64) int64 {
	if v < min {
		return min
	}
	return v
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prof }

// newBlock jumps to a fresh basic block: hot pool with HotCodeProb, cold
// pool otherwise.
func (g *Generator) newBlock() {
	if g.src.Bernoulli(g.prof.HotCodeProb) {
		g.enterBlock(g.src.Intn(g.hotBlocks))
	} else {
		g.enterBlock(g.hotBlocks + g.src.Intn(g.coldBlocks))
	}
}

// fallthrough advances to the sequentially next block in the same pool (a
// not-taken terminator falls into adjacent code).
func (g *Generator) fallThrough() {
	b := g.block + 1
	if g.block < g.hotBlocks {
		b %= g.hotBlocks
	} else if b >= g.hotBlocks+g.coldBlocks {
		b = g.hotBlocks
	}
	g.enterBlock(b)
}

// enterBlock positions the generator at the start of static block b. Block
// length and branch bias are deterministic properties of the block, so
// every visit ends at the same terminator PC with the same direction;
// BranchNoise flips individual executions. Stable sites are what makes
// real branches learnable — predictor accuracy then degrades only through
// noise and through table aliasing/capacity pressure, which is exactly the
// contention the BTB+BP sharing studies measure.
func (g *Generator) enterBlock(b int) {
	g.block = b
	spacing := 2 * int64(g.prof.BlockLen) * instrBytes
	g.blockPC = codeBase + uint64(b)*uint64(spacing)
	g.pcCursor = g.blockPC
	h := rng.New(uint64(b)).Derive(7)
	// Length in [2, 2*BlockLen-1], mean ≈ BlockLen, bounded by the block
	// spacing so code never overruns into the next block's range.
	n := 2 + h.Intn(int(2*g.prof.BlockLen)-2)
	g.blockLeft = n
	if h.Float64() < g.prof.TakenBias {
		g.takenProb = 1
	} else {
		g.takenProb = 0
	}
}

// tieredLine returns a data address in the hot/warm/cold tiers.
func (g *Generator) tieredLine() uint64 {
	r := g.src.Float64()
	switch {
	case r < g.prof.HotDataProb:
		return hotDataBase + uint64(g.src.Intn(int(g.hotLines)))*lineBytes + uint64(g.src.Intn(8))*8
	case r < g.prof.HotDataProb+g.prof.WarmDataProb:
		return warmDataBase + uint64(g.src.Intn(int(g.warmLines)))*lineBytes + uint64(g.src.Intn(8))*8
	default:
		line := uint64(g.src.Uint64() % uint64(g.coldLines))
		return coldDataBase + line*lineBytes + uint64(g.src.Intn(8))*8
	}
}

// Next produces the next micro-op in program order.
func (g *Generator) Next() isa.MicroOp {
	pc := g.pcCursor
	g.pcCursor += instrBytes
	g.blockLeft--

	var op isa.MicroOp
	op.PC = pc
	op.Site = uint32(pc >> 2)

	if g.blockLeft <= 0 {
		// Terminate the block with a branch.
		op.Kind = isa.OpBranch
		taken := g.src.Bernoulli(g.takenProb)
		if g.src.Bernoulli(g.prof.BranchNoise) {
			taken = !taken
		}
		op.Taken = taken
		if taken {
			g.newBlock()
		} else {
			g.fallThrough()
		}
		op.Target = g.blockPC
		// Most branch conditions test values computed well in advance
		// (loop counters, flags); only some depend on recent data. This
		// keeps mispredict resolution mostly fast — if every branch
		// waited on an in-flight load, the front end would serialise on
		// the memory system, which real traces do not show.
		if g.src.Bernoulli(0.4) {
			op.Dep1 = g.depDistance()
		}
		g.sinceLoad++
		g.emitted++
		return op
	}

	// The kind of the instruction at a given PC is a deterministic
	// property of the static code (real programs never morph an add into
	// a load at the same address); only operands, addresses and branch
	// outcomes vary across executions. Stable kinds keep the branch-site
	// set small and learnable and give loads stable PCs.
	m := g.prof.Mix
	r := rng.New(pc).Derive(3).Float64()
	switch {
	case r < m.Load:
		op.Kind = isa.OpLoad
		g.loadAddr(&op)
	case r < m.Load+m.Store:
		op.Kind = isa.OpStore
		op.Addr = g.storeAddr(&op)
	case r < m.Load+m.Store+m.FP:
		op.Kind = isa.OpFP
	case r < m.Load+m.Store+m.FP+m.Mul:
		op.Kind = isa.OpIntMul
	case r < m.Load+m.Store+m.FP+m.Mul+m.Branch:
		// Intra-block branch (call/unconditional): predictable.
		op.Kind = isa.OpBranch
		op.Taken = false
		op.Target = pc + instrBytes
	default:
		op.Kind = isa.OpIntAlu
	}

	if op.Dep1 == 0 && g.src.Bernoulli(g.prof.DepProb) {
		op.Dep1 = g.depDistance()
	}
	if g.src.Bernoulli(g.prof.DepTwoFrac) {
		op.Dep2 = g.depDistance()
	}
	if op.Kind == isa.OpLoad {
		g.sinceLoad = 0
	} else {
		g.sinceLoad++
	}
	g.emitted++
	return op
}

// loadAddr selects the load behaviour: stream, pointer chase, or tiered
// scatter. Chase loads carry a dependence on the previous load.
func (g *Generator) loadAddr(op *isa.MicroOp) {
	r := g.src.Float64()
	switch {
	case r < g.prof.StreamFrac:
		i := g.streamNext
		g.streamNext = (g.streamNext + 1) % len(g.streamPtrs)
		g.streamPtrs[i] += streamStride
		span := uint64(g.coldLines) * lineBytes / uint64(len(g.streamPtrs))
		base := coldDataBase + uint64(i)*span
		if g.streamPtrs[i] >= base+span {
			g.streamPtrs[i] = base
		}
		op.Addr = g.streamPtrs[i]
		// Stable site id per walker lets the PC-indexed stride
		// prefetcher latch the stream, as a fixed load PC would in
		// real code.
		op.Site = uint32(0x5000_0000 + i)
	case r < g.prof.StreamFrac+g.prof.ChaseFrac:
		d := g.sinceLoad + 1
		if d > maxDep {
			d = maxDep
		}
		op.Dep1 = d
		op.Addr = g.tieredLine()
	default:
		op.Addr = g.tieredLine()
	}
}

func (g *Generator) storeAddr(op *isa.MicroOp) uint64 {
	if g.src.Bernoulli(g.prof.StreamFrac) {
		i := g.streamNext
		g.streamPtrs[i] += streamStride
		span := uint64(g.coldLines) * lineBytes / uint64(len(g.streamPtrs))
		base := coldDataBase + uint64(i)*span
		if g.streamPtrs[i] >= base+span {
			g.streamPtrs[i] = base
		}
		op.Site = uint32(0x5000_0000 + i)
		return g.streamPtrs[i]
	}
	return g.tieredLine()
}

// depDistance draws a register dependence distance in [1, maxDep].
func (g *Generator) depDistance() int32 {
	d := int32(g.dep.Draw(g.src))
	if d > maxDep {
		d = maxDep
	}
	if max := int32(g.emitted); d > max && max > 0 {
		d = max
	}
	return d
}

// Emitted returns the number of µops generated so far.
func (g *Generator) Emitted() uint64 { return g.emitted }
