package compiler

import (
	"math"

	"neu10/internal/arch"
)

// CostModel converts operator shapes into engine cycles for a core
// configuration. It follows systolic-array first principles:
//
//   - An ME retires SystolicDim² MACs/cycle once streaming; each weight
//     tile costs a fill/drain/load overhead proportional to SystolicDim.
//   - A VE retires VELanes×VESublanes FP32 lane-ops per cycle.
//   - Every MatMul output element passes through a VE at least once (the
//     VE aggregates systolic outputs — paper §III-D), plus one more pass
//     per fused epilogue.
//   - HBM traffic is weights + activation spill; SRAM reuse is already
//     reflected in the per-op byte counts provided by the model builders.
type CostModel struct {
	Core arch.CoreConfig
}

// NewCostModel builds a cost model for the core.
func NewCostModel(core arch.CoreConfig) *CostModel { return &CostModel{Core: core} }

// OpCost is the engine-cycle decomposition of one operator, before any
// partitioning into µTOps: totals across the whole operator, as if run on
// one ME and one VE.
type OpCost struct {
	MECycles uint64 // systolic busy cycles (single ME)
	VECycles uint64 // vector busy cycles (single VE)
	HBMBytes int64  // off-chip traffic
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// veLaunchCycles is the fixed cost of a standalone vector kernel
// invocation: launch, pipeline warmup, and the serial latency of
// cross-lane reduction trees that small tensors cannot hide. It is why
// small-batch workloads look relatively VE-heavier and drift ME-ward as
// batch grows (the paper's Fig. 4 trend).
const veLaunchCycles = 1536

// Cost computes the cost of one operator.
func (cm *CostModel) Cost(op *Op) OpCost {
	var c OpCost
	c.HBMBytes = op.WeightBytes + op.IOBytes
	dim := cm.Core.SystolicDim
	switch op.Kind {
	case MatMul:
		tilesK := ceilDiv(op.K, dim)
		tilesN := ceilDiv(op.N, dim)
		streaming := float64(op.MACs()) / cm.Core.MEMACsPerCycle()
		// Weight latching is double-buffered against compute, so the
		// exposed overhead is the pipeline fill per K-stripe and drain
		// per N-stripe, not a full reload per tile.
		overhead := float64(tilesK+tilesN) * float64(dim)
		c.MECycles = uint64(math.Ceil(streaming + overhead))
		// VE aggregation: one pass over outputs, plus one per fused op.
		passes := 1.0
		if op.FusedVE {
			passes = 2.0
		}
		outElems := float64(op.M) * float64(op.N) * float64(tilesK)
		c.VECycles = uint64(math.Ceil(outElems * passes / cm.Core.VEOpsPerCycle()))
	case EmbeddingLookup:
		// Gather: VE moves each element once; the real cost is HBM.
		c.VECycles = veLaunchCycles + uint64(math.Ceil(float64(op.Elems)*float64(op.Passes)/cm.Core.VEOpsPerCycle()))
	default:
		// Standalone vector kernels pay a fixed launch/pipeline-warmup
		// cost per invocation; it amortizes with batch size, which is why
		// workloads drift ME-ward as batch grows (Fig. 4).
		c.VECycles = veLaunchCycles + uint64(math.Ceil(float64(op.Elems)*float64(op.Passes)/cm.Core.VEOpsPerCycle()))
	}
	if c.MECycles == 0 && c.VECycles == 0 {
		c.VECycles = 1
	}
	return c
}

// HBMCycles converts op traffic into cycles at full bandwidth — the
// operator's minimum runtime when memory-bound.
func (cm *CostModel) HBMCycles(bytes int64) uint64 {
	if bytes <= 0 {
		return 0
	}
	return uint64(math.Ceil(float64(bytes) / cm.Core.HBMBytesPerCycle()))
}

// Profile is the compile-time profiling result the vNPU allocator
// consumes (paper §III-B): m and v are the ME and VE active-time
// fractions of the workload measured on one ME and one VE.
type Profile struct {
	Model     string
	BatchSize int
	M         float64 // ME active fraction, m
	V         float64 // VE active fraction, v
	// TotalCycles is the 1-ME/1-VE runtime with ME/VE overlap.
	TotalCycles uint64
	// MECycles/VECycles are the raw busy totals.
	MECycles uint64
	VECycles uint64
	// HBMBytes is total traffic; AvgBandwidth the implied mean demand.
	HBMBytes int64
}

// ProfileGraph computes (m, v) for a workload: per operator the ME and VE
// streams overlap (VLIW slots pipeline them), so the operator runtime on
// 1 ME + 1 VE is max(me, ve) and the active fractions follow. The paper's
// observation m+v ≥ 1 holds by construction.
func (cm *CostModel) ProfileGraph(g *Graph) Profile {
	return cm.ProfileRepeats(g, func(int) uint64 { return 1 })
}

// ProfileRepeats is ProfileGraph of the graph in which op i of g occurs
// repeats(i) times, in any order. Its totals are integer sums, so it
// equals that graph's ProfileGraph exactly.
func (cm *CostModel) ProfileRepeats(g *Graph, repeats func(i int) uint64) Profile {
	p := Profile{Model: g.Model, BatchSize: g.BatchSize}
	for i := range g.Ops {
		n := repeats(i)
		c := cm.Cost(&g.Ops[i])
		// A memory-bound operator cannot finish faster than its traffic.
		t := max(c.MECycles, c.VECycles, cm.HBMCycles(c.HBMBytes))
		p.TotalCycles += n * t
		p.MECycles += n * c.MECycles
		p.VECycles += n * c.VECycles
		p.HBMBytes += int64(n) * c.HBMBytes
	}
	if p.TotalCycles > 0 {
		p.M = min(float64(p.MECycles)/float64(p.TotalCycles), 1)
		p.V = min(float64(p.VECycles)/float64(p.TotalCycles), 1)
	}
	return p
}

// IntensityRatio returns the ME:VE execution-time ratio of a graph — the
// quantity plotted in the paper's Fig. 4 (0.001…100 across workloads).
func (cm *CostModel) IntensityRatio(g *Graph) float64 {
	p := cm.ProfileGraph(g)
	if p.VECycles == 0 {
		return math.Inf(1)
	}
	return float64(p.MECycles) / float64(p.VECycles)
}
