package compiler

import (
	"fmt"

	"neu10/internal/arch"
	"neu10/internal/isa"
)

// UTopSpec is the performance-simulator skeleton of one µTOp: how many
// busy cycles it needs on each engine class and how much HBM traffic it
// carries. The functional encoding of µTOps lives in internal/isa; the
// performance experiments schedule these specs (paper §III-G: the
// simulator replays µTOp traces).
type UTopSpec struct {
	Kind     isa.UTopKind
	MECycles uint64 // busy cycles on the one ME this µTOp binds (0 for VE µTOps)
	VECycles uint64 // VE work carried by this µTOp (epilogue for ME µTOps)
	HBMBytes int64
}

// GroupSpec is one µTOp group: its µTOps may run concurrently; groups of
// an operator execute in order.
type GroupSpec struct {
	UTops []UTopSpec
}

// CompiledOp is an operator lowered to µTOp groups.
type CompiledOp struct {
	Name string
	Kind OpKind
	// Groups run sequentially; µTOps within a group concurrently.
	Groups []GroupSpec
	// ReductionSplit marks the NeuISA-overhead case (paper §III-D): the
	// operator was partitioned on the reduction dimension, so the final
	// summation runs as a separate VE µTOp group and cannot pipeline with
	// the ME µTOps.
	ReductionSplit bool
}

// CompiledGraph is a whole workload lowered to µTOp groups. Ops that
// lowered from equal operators share one Groups array (see Compile), so
// a compiled graph's groups and µTOps are read-only.
type CompiledGraph struct {
	Model     string
	BatchSize int
	Target    arch.CoreConfig
	ISA       ISAKind
	Ops       []CompiledOp
	Footprint int64
}

// ISAKind distinguishes the two compilation targets.
type ISAKind int

const (
	// ISANeu is NeuISA: operators split into per-ME µTOps that hardware
	// binds to engines at runtime.
	ISANeu ISAKind = iota
	// ISAVLIW is the traditional coupled VLIW target: the operator's ME
	// count is baked in at compile time.
	ISAVLIW
)

func (k ISAKind) String() string {
	if k == ISANeu {
		return "NeuISA"
	}
	return "VLIW"
}

// Compiler lowers operator graphs for a target core.
type Compiler struct {
	cm   *CostModel
	core arch.CoreConfig
}

// New returns a compiler for the core configuration.
func New(core arch.CoreConfig) (*Compiler, error) {
	if err := core.Validate(); err != nil {
		return nil, err
	}
	return &Compiler{cm: NewCostModel(core), core: core}, nil
}

// Compile lowers a graph. For ISANeu, each MatMul is partitioned into up
// to core.MEs ME µTOps along its independent output tiles; when the
// output is too small to split, the reduction dimension is split instead
// and a separate VE-µTOp summation group is appended (the Fig. 16
// overhead case). Vector operators become single VE µTOps. For ISAVLIW,
// the operator keeps one group whose ME µTOps must launch together
// (enforced by the scheduler, not the data) and reduction summation
// pipelines with the MEs, matching the paper's observation that the
// traditional ISA can pipeline what NeuISA must serialize.
//
// An op equal to an earlier op of the graph in every field but Name
// lowers once: it gets that op's Groups, shared, and its
// ReductionSplit. Layered models repeat a few operator shapes (the LLM
// phase graphs are 40 identical transformer layers), so most ops of a
// serving graph share; the groups are read-only.
func (c *Compiler) Compile(g *Graph, kind ISAKind) (*CompiledGraph, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	out := &CompiledGraph{
		Model:     g.Model,
		BatchSize: g.BatchSize,
		Target:    c.core,
		ISA:       kind,
		Footprint: g.HBMFootprint,
		Ops:       make([]CompiledOp, len(g.Ops)),
	}
	// Every distinct op's groups and µTOps are carved from two
	// graph-wide backing arrays sized up front, so a compile allocates a
	// fixed handful of times however many ops the graph has. The sizing
	// pass parks each op's first occurrence in its compiled Kind, which
	// the lowering pass reads and then overwrites.
	var nGroups, nUTops int
	var seen repeats
	for i := range g.Ops {
		j := seen.find(g.Ops, i)
		out.Ops[i].Kind = OpKind(j)
		if j == i {
			groups, utops := c.shape(&g.Ops[i], kind)
			nGroups += groups
			nUTops += utops
		}
	}
	a := arena{groups: make([]GroupSpec, nGroups), utops: make([]UTopSpec, nUTops)}
	for i := range g.Ops {
		op := &g.Ops[i]
		co := &out.Ops[i]
		j := int(co.Kind)
		co.Name, co.Kind = op.Name, op.Kind
		if j < i {
			co.Groups, co.ReductionSplit = out.Ops[j].Groups, out.Ops[j].ReductionSplit
			continue
		}
		cost := c.cm.Cost(op)
		if op.Kind.IsME() {
			c.compileMatMul(co, op, cost, kind, &a)
			continue
		}
		co.Groups = a.take(1)
		co.Groups[0].UTops[0] = UTopSpec{
			Kind:     isa.VEUTop,
			VECycles: cost.VECycles,
			HBMBytes: cost.HBMBytes,
		}
	}
	return out, nil
}

// repeats finds ops equal to an earlier op of their graph in every
// field but Name through an open-addressed table of op indices, with no
// map and no allocation, so a graph without repeats pays a hash per op.
// Once the table is full, further distinct ops lower afresh: that costs
// time, never a wrong share.
type repeats [256]int32 // op index + 1; 0 is an empty slot

// find returns the index of the first op equal to ops[i] but for its
// name: i itself when ops[i] is the first, which it then records.
func (r *repeats) find(ops []Op, i int) int {
	op := &ops[i]
	// Independent products, so the hash costs a few cycles; fields it
	// leaves out only lengthen a probe.
	h := uint64(op.M)*0x9e3779b97f4a7c15 ^ uint64(op.K)*0xc2b2ae3d27d4eb4f ^
		uint64(op.N)*0x165667b19e3779f9 ^ uint64(op.Elems)*0x27d4eb2f165667c5 ^
		uint64(op.WeightBytes+op.IOBytes)*0x94d049bb133111eb ^ uint64(op.Kind)
	start := int((h * 0x9e3779b97f4a7c15) >> 56)
	for n := range len(r) {
		slot := &r[(start+n)%len(r)]
		if *slot == 0 {
			*slot = int32(i + 1)
			break
		}
		if j := int(*slot - 1); sameOp(&ops[j], op) {
			return j
		}
	}
	return i
}

// sameOp reports whether a and b are equal in every field but Name.
// TestCompileSharesOnlyEqualOps changes each field in turn, so a field
// added to Op and missed here fails it.
func sameOp(a, b *Op) bool {
	return a.Kind == b.Kind && a.M == b.M && a.K == b.K && a.N == b.N && a.Elems == b.Elems &&
		a.Passes == b.Passes && a.FusedVE == b.FusedVE && a.WeightBytes == b.WeightBytes &&
		a.IOBytes == b.IOBytes
}

// arena hands out windows of a compile's backing arrays. Each window is
// capacity-capped, so appending to one op's slice reallocates instead
// of overwriting its neighbor.
type arena struct {
	groups []GroupSpec
	utops  []UTopSpec
}

// take returns len(sizes) groups whose µTOp slices hold sizes[i] µTOps.
func (a *arena) take(sizes ...int) []GroupSpec {
	n := len(sizes)
	gs := a.groups[:n:n]
	a.groups = a.groups[n:]
	for i, m := range sizes {
		gs[i].UTops = a.utops[:m:m]
		a.utops = a.utops[m:]
	}
	return gs
}

// split returns how many ME µTOps a MatMul is partitioned into and
// whether the partition cuts the reduction dimension.
func (c *Compiler) split(op *Op) (parts int, reduction bool) {
	dim := c.core.SystolicDim
	nx := c.core.MEs
	// Independent output tiles (M×N plane) can go to different MEs with
	// no cross-ME dependency.
	outTiles := ceilDiv(op.M, dim) * ceilDiv(op.N, dim)
	kTiles := ceilDiv(op.K, dim)

	parts = outTiles
	if parts > nx {
		parts = nx
	}
	if outTiles < nx && kTiles > 1 {
		// Not enough output parallelism: split the reduction dimension to
		// occupy all MEs (paper §III-D).
		parts = outTiles * kTiles
		if parts > nx {
			parts = nx
		}
		reduction = parts > outTiles
	}
	if parts < 1 {
		parts = 1
	}
	return parts, reduction
}

// shape returns the group and µTOp counts op compiles to.
func (c *Compiler) shape(op *Op, kind ISAKind) (groups, utops int) {
	if !op.Kind.IsME() {
		return 1, 1
	}
	parts, reduction := c.split(op)
	if kind == ISANeu && reduction {
		return 2, parts + 1
	}
	return 1, parts
}

func (c *Compiler) compileMatMul(co *CompiledOp, op *Op, cost OpCost, kind ISAKind, a *arena) {
	parts, reduction := c.split(op)
	switch {
	case kind == ISANeu && reduction:
		// ME µTOps produce partials; a separate VE µTOp group sums them.
		// The VE aggregation cannot pipeline with the MEs (the NeuISA
		// overhead): all VE cycles land in the second group.
		co.Groups = a.take(parts, 1)
		for p := range co.Groups[0].UTops {
			co.Groups[0].UTops[p] = UTopSpec{
				Kind:     isa.MEUTop,
				MECycles: shareCycles(cost.MECycles, parts, p),
				HBMBytes: shareBytes(cost.HBMBytes, parts, p),
			}
		}
		co.Groups[1].UTops[0] = UTopSpec{Kind: isa.VEUTop, VECycles: cost.VECycles}
		co.ReductionSplit = true
	default:
		// Output-parallel (or VLIW): the VE epilogue pipelines inside the
		// ME µTOps, split evenly.
		co.Groups = a.take(parts)
		for p := range co.Groups[0].UTops {
			co.Groups[0].UTops[p] = UTopSpec{
				Kind:     isa.MEUTop,
				MECycles: shareCycles(cost.MECycles, parts, p),
				VECycles: shareCycles(cost.VECycles, parts, p),
				HBMBytes: shareBytes(cost.HBMBytes, parts, p),
			}
		}
	}
}

// shareCycles is share i of total divided into n near-equal shares that
// sum exactly: the first total%n shares carry one extra cycle.
func shareCycles(total uint64, n, i int) uint64 {
	s := total / uint64(n)
	if uint64(i) < total%uint64(n) {
		s++
	}
	return s
}

// shareBytes is shareCycles for byte counts.
func shareBytes(total int64, n, i int) int64 {
	s := total / int64(n)
	if int64(i) < total%int64(n) {
		s++
	}
	return s
}

// Validate checks structural invariants of a compiled graph: cycle
// conservation against the cost model and group shapes (≤ MEs ME µTOps
// and ≤ 1 VE µTOp per group).
func (cg *CompiledGraph) Validate() error {
	if len(cg.Ops) == 0 {
		return fmt.Errorf("compiler: empty compiled graph")
	}
	for i := range cg.Ops {
		op := &cg.Ops[i]
		if len(op.Groups) == 0 {
			return fmt.Errorf("compiler: op %s has no groups", op.Name)
		}
		for gi, g := range op.Groups {
			if len(g.UTops) == 0 {
				return fmt.Errorf("compiler: op %s group %d empty", op.Name, gi)
			}
			meCount, veCount := 0, 0
			for _, u := range g.UTops {
				switch u.Kind {
				case isa.MEUTop:
					meCount++
					if u.MECycles == 0 {
						return fmt.Errorf("compiler: op %s: ME µTOp with zero ME cycles", op.Name)
					}
				case isa.VEUTop:
					veCount++
					if u.MECycles != 0 {
						return fmt.Errorf("compiler: op %s: VE µTOp with ME cycles", op.Name)
					}
				}
			}
			if meCount > cg.Target.MEs {
				return fmt.Errorf("compiler: op %s group %d has %d ME µTOps for %d MEs",
					op.Name, gi, meCount, cg.Target.MEs)
			}
			if veCount > 1 {
				return fmt.Errorf("compiler: op %s group %d has %d VE µTOps", op.Name, gi, veCount)
			}
		}
	}
	return nil
}
