// Package model builds operator graphs for the DNN inference workloads
// the paper evaluates (Table I): BERT, Transformer, DLRM, NCF, Mask-RCNN,
// RetinaNet, ShapeMask, MNIST, ResNet, ResNet-RS, EfficientNet, plus the
// LLaMA2-13B case study of §V-F.
//
// The paper collects operator traces from real TPUv4 hardware; this
// package substitutes for them: graphs are constructed from the
// published model architectures, and their cost
// decomposition reproduces the paper's characterization — the HBM
// footprints of Table I, the ME:VE intensity spread of Fig. 4
// (0.001…100×), and the relative request latencies of Fig. 2/5.
package model

import (
	"fmt"
	"sort"
	"strings"

	"neu10/internal/compiler"
)

// Factory builds a workload graph for a batch size.
type Factory func(batch int) *compiler.Graph

// registry maps the paper's model abbreviations to builders.
var registry = map[string]Factory{
	"BERT":  BERT,
	"TFMR":  Transformer,
	"DLRM":  DLRM,
	"NCF":   NCF,
	"MRCNN": MaskRCNN,
	"RtNt":  RetinaNet,
	"SMask": ShapeMask,
	"MNIST": MNIST,
	"RsNt":  ResNet,
	"RNRS":  ResNetRS,
	"ENet":  EfficientNet,
	"LLaMA": func(batch int) *compiler.Graph { return LLaMA(batch, LLMLayers) },
}

// Names returns the registered model abbreviations, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Build constructs the named model's graph at the given batch size.
func Build(name string, batch int) (*compiler.Graph, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("model: unknown model %q (have %v)", name, Names())
	}
	if batch < 1 {
		return nil, fmt.Errorf("model: batch size %d", batch)
	}
	g := f(batch)
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("model: %s: %w", name, err)
	}
	return g, nil
}

// ---- graph-building helpers ----

const f32 = 4 // bytes per element

// gb and mb improve the readability of footprint constants.
const (
	kb = int64(1) << 10
	mb = int64(1) << 20
	gb = int64(1) << 30
)

// builder emits one graph's ops. A graph's body runs twice, under
// `for b.pass()`: the first pass only counts the ops and the bytes of
// their names, so the second writes the ops into a slice and their names
// into one string, each allocated once at its final size. A name is
// copied, never kept, so the names callers concatenate for it stay on
// their stack. The body must emit the same ops on both passes.
type builder struct {
	g *compiler.Graph
	// sramResident is the per-tensor activation working set the compiler
	// keeps in on-chip SRAM (Table II: 128 MB total, shared between
	// weights-in-flight, double buffers and activations). Only the
	// excess spills to HBM.
	sramResident int64

	passes         int // passes started; the first only counts
	ops, nameBytes int // what the counting pass counted
	names          strings.Builder
}

func newBuilder(name string, batch int) *builder {
	return &builder{
		g:            &compiler.Graph{Model: name, BatchSize: batch},
		sramResident: 32 * mb,
	}
}

// pass starts the next pass over a graph's body: true for the counting
// pass and then for the writing pass, which it sizes; false after both.
func (b *builder) pass() bool {
	b.passes++
	if b.passes == 2 {
		b.g.Ops = make([]compiler.Op, 0, b.ops)
		b.names.Grow(b.nameBytes)
	}
	return b.passes <= 2
}

// add appends op under name, or only counts it on the counting pass.
// Each name is a slice of the graph's one name string.
func (b *builder) add(name string, op compiler.Op) {
	if b.passes == 1 {
		b.ops++
		b.nameBytes += len(name)
		return
	}
	start := b.names.Len()
	b.names.WriteString(name)
	op.Name = b.names.String()[start:]
	b.g.Ops = append(b.g.Ops, op)
}

// spill returns the HBM traffic for one tensor: the part of it that does
// not fit the SRAM-resident working set.
func (b *builder) spill(bytes int64) int64 {
	if bytes > b.sramResident {
		return bytes - b.sramResident
	}
	return 0
}

// matmul appends a dense matrix multiply (weights streamed from HBM,
// activations spilled only beyond the SRAM-resident working set).
func (b *builder) matmul(name string, m, k, n int, fuse bool) {
	b.add(name, b.matmulOp(m, k, n, fuse, int64(k)*int64(n)*f32))
}

// actMatmul appends an activation×activation matmul (attention scores /
// context): no weights are streamed.
func (b *builder) actMatmul(name string, m, k, n int, fuse bool) {
	b.add(name, b.matmulOp(m, k, n, fuse, 0))
}

// matmulOp is the op of an m×k×n matmul that streams weights bytes.
func (b *builder) matmulOp(m, k, n int, fuse bool, weights int64) compiler.Op {
	in := int64(m) * int64(k) * f32
	out := int64(m) * int64(n) * f32
	return compiler.Op{
		Kind: compiler.MatMul, M: m, K: k, N: n, FusedVE: fuse,
		WeightBytes: weights,
		IOBytes:     b.spill(in) + b.spill(out),
	}
}

// vec appends a vector operator.
func (b *builder) vec(name string, kind compiler.OpKind, elems int64, passes int) {
	b.add(name, compiler.Op{
		Kind: kind, Elems: elems, Passes: passes,
		IOBytes: 2 * b.spill(elems*f32),
	})
}

// gather appends an embedding lookup of rows×dim with random-access
// amplification amp (wasted bandwidth from partial-line reads). The
// gather's VE cost models row-granular streaming: ~8 cycles per row
// regardless of row width, expressed through Passes.
func (b *builder) gather(name string, rows int64, dim int, amp float64) {
	elems := rows * int64(dim)
	// 8 VE cycles per row → passes such that elems*passes/1024 = rows*8.
	passes := int(float64(rows*8*1024) / float64(elems))
	if passes < 1 {
		passes = 1
	}
	b.add(name, compiler.Op{
		Kind: compiler.EmbeddingLookup, Elems: elems, Passes: passes,
		WeightBytes: int64(float64(elems*f32) * amp),
	})
}

// conv appends a convolution rewritten through im2col: for an input of
// hw×hw×cin at batch n with a kxk kernel, stride s, cout filters.
func (b *builder) conv(name string, batch, hw, cin, k, s, cout int, fuse bool) {
	out := hw / s
	b.matmul(name, batch*out*out, k*k*cin, cout, fuse)
}

// depthwise appends a depthwise convolution: per-channel filtering with
// no cross-channel reduction — systolic arrays run it at terrible
// efficiency, so production compilers map it to the VEs. k²-tap filter →
// k² multiply-accumulate passes over the activation.
func (b *builder) depthwise(name string, batch, hw, ch, k, s int) {
	out := hw / s
	elems := int64(batch) * int64(out) * int64(out) * int64(ch)
	b.vec(name, compiler.VectorEW, elems, k*k)
}

// sramPinThreshold: models whose entire parameter set fits comfortably
// in on-chip SRAM (Table II: 128 MB) keep weights resident and stream
// nothing from HBM per inference. Without this, a tiny model served at
// high request rates would fabricate enormous HBM traffic.
const sramPinThreshold = 48 * mb

func (b *builder) finish(footprint int64) *compiler.Graph {
	b.g.HBMFootprint = footprint
	var weightTotal int64
	for i := range b.g.Ops {
		if b.g.Ops[i].Kind != compiler.EmbeddingLookup {
			weightTotal += b.g.Ops[i].WeightBytes
		}
	}
	if weightTotal <= sramPinThreshold {
		for i := range b.g.Ops {
			if b.g.Ops[i].Kind != compiler.EmbeddingLookup {
				b.g.Ops[i].WeightBytes = 0
			}
		}
	}
	return b.g
}
