// Package compiler implements the ML-compiler substrate the paper relies
// on: a tensor-operator graph IR, a systolic-array cost model, operator
// tiling into NeuISA µTOps, fused-operator grouping, and the compile-time
// profiling (ME/VE active fractions m and v) that drives the vNPU
// allocator. A small backend also lowers matrix workloads to executable
// NeuISA binaries for the functional simulator.
package compiler

import "fmt"

// OpKind classifies tensor operators by which engine does their work.
type OpKind int

const (
	// MatMul covers dense matrix multiplication, including convolutions
	// after im2col rewriting (M=N·OH·OW, K=KH·KW·Cin, N=Cout) and batched
	// attention matmuls. ME-executed with a VE epilogue.
	MatMul OpKind = iota
	// VectorEW is elementwise vector work (add, mul, activation, scale…).
	VectorEW
	// Softmax is a multi-pass vector op (max, exp, sum, normalize).
	Softmax
	// LayerNorm is a multi-pass vector normalization.
	LayerNorm
	// Reduction reduces along an axis on the VEs.
	Reduction
	// EmbeddingLookup is the DLRM/NCF-style gather: tiny compute, large
	// HBM traffic; VE-executed.
	EmbeddingLookup
	// Pooling is window pooling; VE-executed.
	Pooling
)

func (k OpKind) String() string {
	switch k {
	case MatMul:
		return "MatMul"
	case VectorEW:
		return "VectorEW"
	case Softmax:
		return "Softmax"
	case LayerNorm:
		return "LayerNorm"
	case Reduction:
		return "Reduction"
	case EmbeddingLookup:
		return "Embedding"
	case Pooling:
		return "Pooling"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// IsME reports whether the operator's main work runs on matrix engines.
func (k OpKind) IsME() bool { return k == MatMul }

// Op is one tensor operator in a DNN execution graph.
type Op struct {
	Name string
	Kind OpKind

	// MatMul geometry (after im2col for convolutions). Unused otherwise.
	M, K, N int

	// Elems is the element count for vector-kind operators.
	Elems int64
	// Passes is how many read-modify-write sweeps a vector op makes over
	// its data (1 for elementwise, ~4 for softmax/layernorm).
	Passes int

	// FusedVE marks a fused VE epilogue on a MatMul (bias+activation):
	// the ReLU in the paper's running MatMul+ReLU example.
	FusedVE bool

	// Memory traffic in bytes. WeightBytes counts parameters streamed
	// from HBM (embedding tables included); IOBytes counts activation
	// reads+writes that miss SRAM.
	WeightBytes int64
	IOBytes     int64
}

// Validate checks the operator is well-formed.
func (o *Op) Validate() error {
	switch o.Kind {
	case MatMul:
		if o.M < 1 || o.K < 1 || o.N < 1 {
			return fmt.Errorf("compiler: %s: MatMul %dx%dx%d", o.Name, o.M, o.K, o.N)
		}
	default:
		if o.Elems < 1 {
			return fmt.Errorf("compiler: %s: %s with %d elements", o.Name, o.Kind, o.Elems)
		}
		if o.Passes < 1 {
			return fmt.Errorf("compiler: %s: %s with %d passes", o.Name, o.Kind, o.Passes)
		}
	}
	if o.WeightBytes < 0 || o.IOBytes < 0 {
		return fmt.Errorf("compiler: %s: negative traffic", o.Name)
	}
	return nil
}

// MACs returns the multiply-accumulate count of a MatMul op.
func (o *Op) MACs() int64 {
	if o.Kind != MatMul {
		return 0
	}
	return int64(o.M) * int64(o.K) * int64(o.N)
}

// Graph is a DNN inference program: a dependence-ordered operator list.
// Inference graphs on NPUs are static and (per the paper §III-G) replayed
// as traces, so a topologically sorted sequence is the natural form;
// operators at the same position in independent branches are simply
// adjacent in the order the compiler emitted them.
type Graph struct {
	Model     string
	BatchSize int
	Ops       []Op

	// HBMFootprint is the resident-set size of the model (weights +
	// peak activations), the Table I column.
	HBMFootprint int64
}

// Validate checks every operator.
func (g *Graph) Validate() error {
	if g.Model == "" {
		return fmt.Errorf("compiler: graph without model name")
	}
	if g.BatchSize < 1 {
		return fmt.Errorf("compiler: batch size %d", g.BatchSize)
	}
	if len(g.Ops) == 0 {
		return fmt.Errorf("compiler: %s: empty graph", g.Model)
	}
	for i := range g.Ops {
		if err := g.Ops[i].Validate(); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	return nil
}
