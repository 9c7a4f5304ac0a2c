package compiler

import (
	"reflect"
	"testing"
	"testing/quick"

	"neu10/internal/arch"
	"neu10/internal/isa"
)

func testCore() arch.CoreConfig { return arch.TPUv4Like() }

func TestCostModelMatMulCycles(t *testing.T) {
	cm := NewCostModel(testCore())
	op := Op{Name: "mm", Kind: MatMul, M: 1024, K: 1024, N: 1024}
	c := cm.Cost(&op)
	streaming := float64(op.MACs()) / cm.Core.MEMACsPerCycle()
	if float64(c.MECycles) < streaming {
		t.Fatalf("ME cycles %d below streaming bound %.0f", c.MECycles, streaming)
	}
	if float64(c.MECycles) > streaming*1.5 {
		t.Fatalf("ME cycles %d more than 1.5x streaming bound %.0f", c.MECycles, streaming)
	}
	// Output elements must each cross a VE once (aggregation).
	minVE := float64(op.M*op.N) / cm.Core.VEOpsPerCycle()
	if float64(c.VECycles) < minVE {
		t.Fatalf("VE cycles %d below aggregation bound %.0f", c.VECycles, minVE)
	}
}

func TestCostModelFusedEpilogueCostsMore(t *testing.T) {
	cm := NewCostModel(testCore())
	plain := Op{Name: "mm", Kind: MatMul, M: 512, K: 512, N: 512}
	fused := plain
	fused.FusedVE = true
	if cm.Cost(&fused).VECycles <= cm.Cost(&plain).VECycles {
		t.Fatal("fused epilogue did not increase VE cycles")
	}
	if cm.Cost(&fused).MECycles != cm.Cost(&plain).MECycles {
		t.Fatal("fusion changed ME cycles")
	}
}

func TestCostModelVectorOp(t *testing.T) {
	cm := NewCostModel(testCore())
	op := Op{Name: "ln", Kind: LayerNorm, Elems: 1 << 20, Passes: 4}
	c := cm.Cost(&op)
	streaming := uint64(float64(op.Elems) * 4 / cm.Core.VEOpsPerCycle())
	if c.MECycles != 0 {
		t.Fatalf("vector op has ME cycles %d", c.MECycles)
	}
	if c.VECycles < streaming || c.VECycles > streaming+8192 {
		t.Fatalf("VE cycles %d outside [%d, %d+launch]", c.VECycles, streaming, streaming)
	}
}

func TestCostModelGEMVIsMemoryBound(t *testing.T) {
	// A decode-shaped GEMV (tiny M, huge K×N) must be HBM-bound, the
	// paper's LLaMA observation.
	cm := NewCostModel(testCore())
	op := Op{Name: "gemv", Kind: MatMul, M: 8, K: 5120, N: 13824,
		WeightBytes: 5120 * 13824 * 4}
	c := cm.Cost(&op)
	if hbm := cm.HBMCycles(c.HBMBytes); hbm <= c.MECycles || hbm <= c.VECycles {
		t.Fatalf("GEMV not memory bound: me=%d ve=%d hbm=%d", c.MECycles, c.VECycles, hbm)
	}
}

func TestProfileComputeBoundSumsAtLeastOne(t *testing.T) {
	// For compute-bound graphs the paper's m+v >= 1 assumption must hold.
	g := &Graph{Model: "toy", BatchSize: 1, Ops: []Op{
		{Name: "mm", Kind: MatMul, M: 2048, K: 2048, N: 2048},
		{Name: "act", Kind: VectorEW, Elems: 2048 * 2048, Passes: 1},
	}}
	cm := NewCostModel(testCore())
	p := cm.ProfileGraph(g)
	if p.M+p.V < 1 {
		t.Fatalf("m+v = %.3f < 1 for compute-bound graph", p.M+p.V)
	}
	if p.M <= p.V {
		t.Fatalf("matmul-heavy graph has m=%.3f <= v=%.3f", p.M, p.V)
	}
}

func TestCompileNeuOutputParallelMatMul(t *testing.T) {
	c, err := New(testCore())
	if err != nil {
		t.Fatal(err)
	}
	g := &Graph{Model: "toy", BatchSize: 1, Ops: []Op{
		{Name: "big", Kind: MatMul, M: 4096, K: 1024, N: 1024},
	}}
	cg, err := c.Compile(g, ISANeu)
	if err != nil {
		t.Fatal(err)
	}
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
	op := cg.Ops[0]
	if len(op.Groups) != 1 {
		t.Fatalf("output-parallel matmul compiled to %d groups", len(op.Groups))
	}
	if got := len(op.Groups[0].UTops); got != testCore().MEs {
		t.Fatalf("got %d µTOps, want %d", got, testCore().MEs)
	}
	if op.ReductionSplit {
		t.Fatal("output-parallel matmul marked reduction-split")
	}
	// Cycle conservation.
	cost := NewCostModel(testCore()).Cost(&g.Ops[0])
	var me, ve uint64
	var hbm int64
	for _, u := range op.Groups[0].UTops {
		me, ve, hbm = me+u.MECycles, ve+u.VECycles, hbm+u.HBMBytes
	}
	if me != cost.MECycles || ve != cost.VECycles || hbm != cost.HBMBytes {
		t.Fatalf("cycles or bytes not conserved: ME %d vs %d, VE %d vs %d, HBM %d vs %d",
			me, cost.MECycles, ve, cost.VECycles, hbm, cost.HBMBytes)
	}
}

func TestCompileNeuReductionSplit(t *testing.T) {
	c, err := New(testCore())
	if err != nil {
		t.Fatal(err)
	}
	// One output tile (M,N ≤ 128) but a deep K: must split the reduction
	// and pay the separate VE summation group — the Fig. 16 overhead.
	g := &Graph{Model: "toy", BatchSize: 1, Ops: []Op{
		{Name: "deep", Kind: MatMul, M: 64, K: 8192, N: 64},
	}}
	cg, err := c.Compile(g, ISANeu)
	if err != nil {
		t.Fatal(err)
	}
	op := cg.Ops[0]
	if !op.ReductionSplit {
		t.Fatal("deep-K matmul not reduction-split under NeuISA")
	}
	if len(op.Groups) != 2 {
		t.Fatalf("reduction split has %d groups, want 2", len(op.Groups))
	}
	last := op.Groups[1].UTops
	if len(last) != 1 || last[0].Kind != isa.VEUTop {
		t.Fatal("summation group is not a single VE µTOp")
	}

	// The same op under VLIW pipelines the summation: one group, no split.
	vg, err := c.Compile(g, ISAVLIW)
	if err != nil {
		t.Fatal(err)
	}
	if vg.Ops[0].ReductionSplit || len(vg.Ops[0].Groups) != 1 {
		t.Fatal("VLIW compilation should pipeline the reduction")
	}
}

func TestCompileVectorOp(t *testing.T) {
	c, _ := New(testCore())
	g := &Graph{Model: "toy", BatchSize: 1, Ops: []Op{
		{Name: "sm", Kind: Softmax, Elems: 1 << 16, Passes: 4},
	}}
	cg, err := c.Compile(g, ISANeu)
	if err != nil {
		t.Fatal(err)
	}
	op := cg.Ops[0]
	if len(op.Groups) != 1 || len(op.Groups[0].UTops) != 1 {
		t.Fatal("vector op should compile to a single VE µTOp")
	}
	if op.Groups[0].UTops[0].Kind != isa.VEUTop {
		t.Fatal("vector op compiled to an ME µTOp")
	}
}

func TestCompileRejectsInvalidGraph(t *testing.T) {
	c, _ := New(testCore())
	if _, err := c.Compile(&Graph{Model: "x", BatchSize: 1}, ISANeu); err == nil {
		t.Fatal("empty graph compiled")
	}
	bad := &Graph{Model: "x", BatchSize: 1, Ops: []Op{{Name: "m", Kind: MatMul}}}
	if _, err := c.Compile(bad, ISANeu); err == nil {
		t.Fatal("zero-dim matmul compiled")
	}
}

func TestShareConservesProperty(t *testing.T) {
	f := func(total uint32, nRaw uint8) bool {
		n := int(nRaw%16) + 1
		var sum uint64
		var maxP, minP uint64 = 0, ^uint64(0)
		for i := 0; i < n; i++ {
			p := shareCycles(uint64(total), n, i)
			// The byte split hands out the same shares.
			if b := shareBytes(int64(total), n, i); b != int64(p) {
				return false
			}
			sum += p
			if p > maxP {
				maxP = p
			}
			if p < minP {
				minP = p
			}
		}
		return sum == uint64(total) && maxP-minP <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestIntensityRatioOrdering(t *testing.T) {
	cm := NewCostModel(testCore())
	meHeavy := &Graph{Model: "me", BatchSize: 1, Ops: []Op{
		{Name: "mm", Kind: MatMul, M: 4096, K: 4096, N: 4096},
	}}
	veHeavy := &Graph{Model: "ve", BatchSize: 1, Ops: []Op{
		{Name: "ew", Kind: VectorEW, Elems: 1 << 24, Passes: 8},
		{Name: "mm", Kind: MatMul, M: 128, K: 128, N: 128},
	}}
	if cm.IntensityRatio(meHeavy) <= 1 {
		t.Fatal("matmul graph not ME-intensive")
	}
	if cm.IntensityRatio(veHeavy) >= 1 {
		t.Fatal("vector graph not VE-intensive")
	}
}

// TestCompileSharesOnlyEqualOps changes each field of an op but its
// name in turn: the changed op gets its own groups, and a renamed copy
// of the original shares the original's. A table whose every slot holds
// the original makes find compare the changed op with it whatever its
// hash, so a field sameOp skips fails here too.
func TestCompileSharesOnlyEqualOps(t *testing.T) {
	c, err := New(testCore())
	if err != nil {
		t.Fatal(err)
	}
	base := Op{Name: "a", Kind: MatMul, M: 64, K: 512, N: 256, Elems: 4096,
		Passes: 2, FusedVE: true, WeightBytes: 1 << 20, IOBytes: 1 << 16}
	renamed := base
	renamed.Name = "b"
	for f := 0; f < reflect.TypeOf(base).NumField(); f++ {
		changed := base
		v := reflect.ValueOf(&changed).Elem().Field(f)
		switch v.Kind() {
		case reflect.String:
			continue
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			v.SetInt(v.Int() + 1)
		}
		name := reflect.TypeOf(base).Field(f).Name
		cg, err := c.Compile(&Graph{Model: "m", BatchSize: 1, Ops: []Op{base, changed, renamed}}, ISANeu)
		if err != nil {
			t.Fatal(err)
		}
		if &cg.Ops[1].Groups[0] == &cg.Ops[0].Groups[0] {
			t.Errorf("ops differing in %s share groups", name)
		}
		if &cg.Ops[2].Groups[0] != &cg.Ops[0].Groups[0] {
			t.Errorf("with a %s-changed op between them, equal ops do not share groups", name)
		}
		var full repeats
		for k := range full {
			full[k] = 1 // op 0
		}
		if j := full.find([]Op{base, changed}, 1); j != 1 {
			t.Errorf("find takes an op differing in %s for a repeat of op %d", name, j)
		}
		if j := full.find([]Op{base, renamed}, 1); j != 0 {
			t.Errorf("find misses a renamed repeat (got op %d)", j)
		}
	}
}
