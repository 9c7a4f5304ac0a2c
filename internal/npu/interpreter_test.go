package npu

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"neu10/internal/isa"
)

func newGoldenCore(t *testing.T) *Core {
	t.Helper()
	cfg := DefaultConfig()
	cfg.SRAMWords = 1 << 18
	cfg.HBMWords = 1 << 14
	c, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic non-trivial memory contents.
	for i := range c.SRAM {
		c.SRAM[i] = float32(i%251) * 0.5
	}
	for i := range c.HBM {
		c.HBM[i] = float32(i % 17)
	}
	return c
}

// vliwGoldenProgram assembles a program exercising every slot class:
// DMA in, vector arithmetic across multiple VE slots, ME tile multiply
// on two engines, a scalar loop with a backward branch, and stores.
func vliwGoldenProgram(t *testing.T) *isa.Program {
	t.Helper()
	f := isa.Format{MESlots: 2, VESlots: 2}
	b := isa.NewBuilder(f)
	// Latch an 8x8 weight tile (SRAM base r1=0) on both MEs.
	b.Misc(isa.SMovI(1, 0)).End()
	b.ME(isa.MELoadW(1, 8, 8)).ME(isa.MELoadW(1, 8, 8)).End()
	// DMA 256 words of HBM into SRAM at 1024.
	b.Misc(isa.SMovI(2, 1024)).End()
	b.Misc(isa.SMovI(3, 0)).End()
	b.Misc(isa.DMALoad(2, 3, 256)).End()
	// Push a row through both MEs and pop with VE postprocessing.
	b.Misc(isa.SMovI(4, 1024)).End()
	b.ME(isa.MEPush(4, 8)).ME(isa.MEPush(4, 8)).End()
	b.ME(isa.MEPop(1)).ME(isa.Operation{Op: isa.OpMEPopA, Dst: 1}).End()
	b.VE(isa.V1(isa.OpVRelu, 2, 1)).
		VE(isa.Operation{Op: isa.OpVAddS, Dst: 3, A: 1, Imm: 7}).
		LS(isa.Operation{Op: isa.OpVLoad, Dst: 4, A: 1, Imm: 128}).End()
	b.VE(isa.Operation{Op: isa.OpVAdd, Dst: 5, A: 2, B: 3}).VE(isa.Operation{Op: isa.OpVMax, Dst: 6, A: 2, B: 4}).End()
	b.LS(isa.VStore(1, 5, 2048)).LS(isa.VStore(1, 4, 2304)).End()
	// Scalar loop: r10 counts 0..4 with a backward BNE.
	b.Misc(isa.SMovI(10, 0)).End()
	b.Misc(isa.SMovI(11, 5)).End()
	loop := b.PC()
	b.Misc(isa.SAddI(10, 10, 1)).End()
	b.VE(isa.Operation{Op: isa.OpVMulS, Dst: 6, A: 5, Imm: 2}).End()
	brPC := b.PC()
	b.Misc(isa.Branch(isa.OpBNE, 10, 11, int32(loop-brPC))).End()
	// Reduce, DMA results back out, halt.
	b.VE(isa.V1(isa.OpVRsum, 14, 5)).End()
	b.Misc(isa.SMovI(12, 4096)).End()
	b.Misc(isa.SMovI(13, 2048)).End()
	b.Misc(isa.DMAStore(12, 13, 128)).End()
	b.Misc(isa.Halt()).End()
	code, err := b.Code()
	if err != nil {
		t.Fatal(err)
	}
	p := &isa.Program{Format: f, Code: code}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// buildExecNeuProgram assembles a NeuISA kernel through the text
// toolchain: two ME µTOps computing a fused MatMul+ReLU over shared
// snippets, exercising uTop.index, scalar loops and branches.
func buildExecNeuProgram(t *testing.T) *isa.NeuProgram {
	t.Helper()
	const src = `
.neuisa veslots=4
.utop me tile
    uTop.index %r2
    s.movi %r3, #8
    s.mul %r4, %r2, %r3
    s.movi %r5, #16384
    me.loadw [%r5], 64, 128
    s.movi %r8, #64
    s.mul %r6, %r4, %r8
    s.movi %r9, #128
    s.mul %r7, %r4, %r9
    s.addi %r7, %r7, #65536
    s.movi %r10, #8
LOOP:
    me.push [%r6], 64
    me.pop %v0 | v.relu %v0, %v0
    ls.store [%r7+0], %v0
    s.addi %r6, %r6, #64
    s.addi %r7, %r7, #128
    s.addi %r10, %r10, #-1
    bne %r10, %r0, @LOOP
    uTop.finish
.group tile tile
`
	prog, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// coreDigest hashes everything a program run can change on a core:
// the retired-instruction count and both memories, bit for bit.
func coreDigest(c *Core) string {
	b := binary.LittleEndian.AppendUint64(nil, c.Instructions)
	for _, mem := range [][]float32{c.SRAM, c.HBM} {
		for _, v := range mem {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestInterpreterGolden pins the run statistics and the resulting core
// state of the golden VLIW program, and of the NeuISA kernel on 1, 2
// and 4 MEs. The interpreter keeps no clock, so the kernel must leave
// the same state on every ME count.
func TestInterpreterGolden(t *testing.T) {
	t.Run("vliw", func(t *testing.T) {
		c := newGoldenCore(t)
		st, err := c.RunVLIW(vliwGoldenProgram(t))
		if err != nil {
			t.Fatal(err)
		}
		if want := (RunStats{Instructions: 33}); st != want {
			t.Errorf("stats %+v, want %+v", st, want)
		}
		if got, want := coreDigest(c), "b2f14f2a85a0ec77652fa143bf2473684e4dac87853cb75b535d934849a5f91e"; got != want {
			t.Errorf("core digest %s, want %s", got, want)
		}
	})

	t.Run("neu", func(t *testing.T) {
		p := buildExecNeuProgram(t)
		want := RunStats{Instructions: 136, UTopsRun: 2, GroupsRun: 1}
		const digest = "5845dba52eb8dcae6cc9b11e9fba80471328a48b841620ddc49b9260b8ffadf2"
		for _, mes := range [][]int{{0}, {0, 1}, {0, 1, 2, 3}} {
			c := newGoldenCore(t)
			st, err := c.RunNeu(p, mes)
			if err != nil {
				t.Fatalf("mes=%v: %v", mes, err)
			}
			if st != want {
				t.Errorf("mes=%v: stats %+v, want %+v", mes, st, want)
			}
			if got := coreDigest(c); got != digest {
				t.Errorf("mes=%v: core digest %s, want %s", mes, got, digest)
			}
		}
	})
}

// TestInterpreterAllocBudget is the allocation budget for the
// interpreter inner loop: steady-state re-execution of a NeuISA program
// on a warmed core must not allocate (the systolic arena refills count
// amortize to ~0 and are tolerated up to a small budget).
func TestInterpreterAllocBudget(t *testing.T) {
	p := buildExecNeuProgram(t)
	c := newGoldenCore(t)
	mes := []int{0, 1}
	if _, err := c.RunNeu(p, mes); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := c.RunNeu(p, mes); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("interpreter allocates %.1f objects per program run, want ≤ 2", allocs)
	}
}
