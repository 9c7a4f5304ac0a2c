package npu

import (
	"strings"
	"testing"

	"neu10/internal/isa"
	"neu10/internal/tensor"
)

func newTestCore(t *testing.T) *Core {
	t.Helper()
	cfg := DefaultConfig()
	cfg.SRAMWords = 1 << 18
	cfg.HBMWords = 1 << 18
	c, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := good
	bad.MEs = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("0-ME config validated")
	}
}

func TestSystolicArrayMatchesReference(t *testing.T) {
	const k, n, rows = 96, 128, 8
	a := tensor.New(rows, k)
	b := tensor.New(k, n)
	for i := range a.Data {
		a.Data[i] = float32(i%17) - 8
	}
	for i := range b.Data {
		b.Data[i] = float32(i%13)/4 - 1.5
	}
	want := tensor.MatMul(a, b)

	s := NewSystolicArray(128)
	if err := s.LoadWeights(b.Data, k, n); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		if err := s.Push(a.Data[r*k : (r+1)*k]); err != nil {
			t.Fatal(err)
		}
	}
	if s.Pending() != rows {
		t.Fatalf("pending = %d, want %d", s.Pending(), rows)
	}
	got := tensor.New(rows, n)
	for r := 0; r < rows; r++ {
		row, err := s.Pop()
		if err != nil {
			t.Fatal(err)
		}
		copy(got.Data[r*n:], row)
	}
	if d := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Fatalf("systolic result differs from reference by %v", d)
	}
}

func TestSystolicArrayErrors(t *testing.T) {
	s := NewSystolicArray(128)
	if err := s.Push(make([]float32, 8)); err == nil {
		t.Fatal("push with no weights accepted")
	}
	if _, err := s.Pop(); err == nil {
		t.Fatal("pop with no outputs accepted")
	}
	if err := s.LoadWeights(make([]float32, 300*300), 300, 300); err == nil {
		t.Fatal("oversized tile accepted")
	}
	if err := s.LoadWeights(make([]float32, 4), 2, 3); err == nil {
		t.Fatal("short weight buffer accepted")
	}
	if err := s.LoadWeights(make([]float32, 16), 4, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(make([]float32, 3)); err == nil {
		t.Fatal("wrong-length row accepted")
	}
}

// buildMatMulReluNeu compiles (by hand) a fused MatMul+ReLU over
// A [rows×k] · B [k×128] into `nutops` ME µTOps sharing one snippet that
// uses uTop.index to find its row range — the paper's Fig. 8/13 shape.
// Layout (SRAM words): A at aBase, B at bBase, C at cBase.
func buildMatMulReluNeu(t *testing.T, rows, k, nutops int, aBase, bBase, cBase int32) *isa.NeuProgram {
	t.Helper()
	const n = isa.VectorLanes
	if rows%nutops != 0 {
		t.Fatalf("rows %d not divisible by %d µTOps", rows, nutops)
	}
	per := rows / nutops

	b := isa.NewBuilder(isa.Format{MESlots: 1, VESlots: 4})
	// r2 = µTOp index; r3 = rows-per-µTOp; r4 = first row of my range.
	b.Misc(isa.UTopIndex(2)).End()
	b.Misc(isa.SMovI(3, int32(per))).End()
	b.Misc(isa.Operation{Op: isa.OpSMul, Dst: 4, A: 2, B: 3}).End()
	// r5 = B base; latch weights.
	b.Misc(isa.SMovI(5, bBase)).End()
	b.ME(isa.MELoadW(5, k, n)).End()
	// r6 = A row pointer = aBase + r4*k ; r7 = C row pointer = cBase + r4*n.
	b.Misc(isa.SMovI(8, int32(k))).End()
	b.Misc(isa.Operation{Op: isa.OpSMul, Dst: 6, A: 4, B: 8}).End()
	b.Misc(isa.SAddI(6, 6, aBase)).End()
	b.Misc(isa.SMovI(9, int32(n))).End()
	b.Misc(isa.Operation{Op: isa.OpSMul, Dst: 7, A: 4, B: 9}).End()
	b.Misc(isa.SAddI(7, 7, cBase)).End()
	// Loop over my rows: r10 counts down from per.
	b.Misc(isa.SMovI(10, int32(per))).End()
	loopTop := b.PC()
	b.ME(isa.MEPush(6, k)).End()
	b.ME(isa.MEPop(0)).VE(isa.V1(isa.OpVRelu, 0, 0)).End()
	b.LS(isa.VStore(7, 0, 0)).End()
	b.Misc(isa.SAddI(6, 6, int32(k))).End()
	b.Misc(isa.SAddI(7, 7, int32(n))).End()
	b.Misc(isa.SAddI(10, 10, -1)).End()
	bPC := b.PC()
	b.Misc(isa.Branch(isa.OpBNE, 10, 0, int32(loopTop-bPC))).End()
	b.Misc(isa.UTopFinish()).End()
	code, err := b.Code()
	if err != nil {
		t.Fatal(err)
	}

	utops := make([]isa.UTop, nutops)
	mes := make([]int, nutops)
	for i := range utops {
		utops[i] = isa.UTop{Kind: isa.MEUTop, Start: 0}
		mes[i] = i
	}
	p := &isa.NeuProgram{
		VESlots: 4,
		MECode:  code,
		UTops:   utops,
		Groups:  []isa.Group{{ME: mes, VE: isa.NullUTop}},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func runMatMulRelu(t *testing.T, c *Core, meCount, nutops int) *tensor.Tensor {
	t.Helper()
	const rows, k, n = 16, 64, isa.VectorLanes
	a := tensor.New(rows, k)
	bm := tensor.New(k, n)
	for i := range a.Data {
		a.Data[i] = float32(i%23) - 11
	}
	for i := range bm.Data {
		bm.Data[i] = float32(i%19)/8 - 1
	}
	const aBase, bBase, cBase = 0, 4096, 32768
	copy(c.SRAM[aBase:], a.Data)
	copy(c.SRAM[bBase:], bm.Data)

	p := buildMatMulReluNeu(t, rows, k, nutops, aBase, bBase, cBase)
	mes := make([]int, meCount)
	for i := range mes {
		mes[i] = i
	}
	st, err := c.RunNeu(p, mes)
	if err != nil {
		t.Fatal(err)
	}
	if st.UTopsRun != uint64(nutops) || st.GroupsRun != 1 {
		t.Fatalf("stats %+v, want %d µTOps / 1 group", st, nutops)
	}

	got := tensor.New(rows, n)
	copy(got.Data, c.SRAM[cBase:cBase+rows*n])
	return got
}

func TestNeuMatMulReluMatchesReference(t *testing.T) {
	const rows, k, n = 16, 64, isa.VectorLanes
	a := tensor.New(rows, k)
	bm := tensor.New(k, n)
	for i := range a.Data {
		a.Data[i] = float32(i%23) - 11
	}
	for i := range bm.Data {
		bm.Data[i] = float32(i%19)/8 - 1
	}
	want := tensor.ReLU(tensor.MatMul(a, bm))

	c := newTestCore(t)
	got := runMatMulRelu(t, c, 4, 4)
	if d := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Fatalf("NeuISA matmul differs from reference by %v", d)
	}
}

// The defining property of NeuISA: the same binary runs on any number of
// MEs without recompilation and produces identical results.
func TestNeuProgramRunsOnAnyMECount(t *testing.T) {
	ref := runMatMulRelu(t, newTestCore(t), 4, 4)
	for _, meCount := range []int{1, 2, 3} {
		got := runMatMulRelu(t, newTestCore(t), meCount, 4)
		if d := tensor.MaxAbsDiff(ref, got); d != 0 {
			t.Fatalf("result on %d MEs differs by %v", meCount, d)
		}
	}
}

func TestNeuNextGroupLoop(t *testing.T) {
	// Paper Fig. 15: a loop across µTOp groups driven by a counter in
	// SRAM. Groups 0 and 1 do work; group 2 increments the counter and
	// redirects to group 0 until the counter reaches 4.
	const workA, workB, counter = 100, 101, 102
	b := isa.NewBuilder(isa.Format{MESlots: 0, VESlots: 4})

	snippetAcc := func(addr int32, inc int32) int {
		start := b.PC()
		b.Misc(isa.Operation{Op: isa.OpSLoad, Dst: 2, A: 0, Imm: addr}).End()
		b.Misc(isa.SAddI(2, 2, inc)).End()
		b.Misc(isa.Operation{Op: isa.OpSStore, A: 0, B: 2, Imm: addr}).End()
		b.Misc(isa.UTopFinish()).End()
		return start
	}
	sA := snippetAcc(workA, 1)
	sB := snippetAcc(workB, 2)

	// Group 2 snippet (paper Fig. 15 shape: one finish at the end, the
	// conditional nextGroup branched over when the loop is done):
	// counter++; if counter >= 4 skip the nextGroup; finish.
	sC := b.PC()
	b.Misc(isa.Operation{Op: isa.OpSLoad, Dst: 2, A: 0, Imm: counter}).End()
	b.Misc(isa.SAddI(2, 2, 1)).End()
	b.Misc(isa.Operation{Op: isa.OpSStore, A: 0, B: 2, Imm: counter}).End()
	b.Misc(isa.SMovI(3, 3)).End()
	b.Misc(isa.Branch(isa.OpBLT, 3, 2, 2)).End()               // counter > 3: skip nextGroup
	b.Misc(isa.Operation{Op: isa.OpUTopNextGroup, A: 0}).End() // %r0 == 0: loop to group 0
	b.Misc(isa.UTopFinish()).End()
	code, err := b.Code()
	if err != nil {
		t.Fatal(err)
	}

	p := &isa.NeuProgram{
		VESlots: 4,
		VECode:  code,
		UTops: []isa.UTop{
			{Kind: isa.VEUTop, Start: sA},
			{Kind: isa.VEUTop, Start: sB},
			{Kind: isa.VEUTop, Start: sC},
		},
		Groups: []isa.Group{{VE: 0}, {VE: 1}, {VE: 2}},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}

	c := newTestCore(t)
	st, err := c.RunNeu(p, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.SRAM[workA]; got != 4 {
		t.Errorf("workA = %v, want 4 iterations", got)
	}
	if got := c.SRAM[workB]; got != 8 {
		t.Errorf("workB = %v, want 8", got)
	}
	if got := c.SRAM[counter]; got != 4 {
		t.Errorf("counter = %v, want 4", got)
	}
	if st.GroupsRun != 12 {
		t.Errorf("groups run = %d, want 12 (3 groups × 4 iterations)", st.GroupsRun)
	}
}

// TestNeuGroupIndexSkipsNullEntries checks the order RunNeu runs a group
// in: its ME entries, then its VE entry, with uTop.index numbering only
// the populated ones. Each µTOp stores index+1 at word 100+index.
func TestNeuGroupIndexSkipsNullEntries(t *testing.T) {
	const body = "    uTop.index %r2\n    s.addi %r3, %r2, #1\n    s.store [%r2+100], %r3\n    uTop.finish\n"
	p, err := isa.Assemble(".neuisa veslots=1\n.utop me a\n" + body + ".utop me b\n" + body +
		".utop ve v\n" + body + ".group a b | v\n")
	if err != nil {
		t.Fatal(err)
	}
	g := &p.Groups[0]
	g.ME = []int{g.ME[0], isa.NullUTop, g.ME[1]}
	c := newTestCore(t)
	st, err := c.RunNeu(p, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.UTopsRun != 3 {
		t.Fatalf("ran %d µTOps, want 3", st.UTopsRun)
	}
	if got := c.SRAM[100:104]; got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 0 {
		t.Fatalf("words 100..103 = %v, want [1 2 3 0]", got)
	}
}

func TestNeuConflictingNextGroupErrors(t *testing.T) {
	b := isa.NewBuilder(isa.Format{MESlots: 0, VESlots: 1})
	s0 := b.PC()
	b.Misc(isa.SMovI(2, 0)).End()
	b.Misc(isa.Operation{Op: isa.OpUTopNextGroup, A: 2}).End()
	b.Misc(isa.UTopFinish()).End()
	s1 := b.PC()
	b.Misc(isa.SMovI(2, 1)).End()
	b.Misc(isa.Operation{Op: isa.OpUTopNextGroup, A: 2}).End()
	b.Misc(isa.UTopFinish()).End()
	code, err := b.Code()
	if err != nil {
		t.Fatal(err)
	}
	// Two VE µTOps can't share a group, so wrap one as an "ME" µTOp — but
	// ME cells must hold ME µTOps. Instead use two groups' worth of ME
	// µTOps: rebuild in ME format.
	mb := isa.NewBuilder(isa.Format{MESlots: 1, VESlots: 1})
	m0 := mb.PC()
	mb.Misc(isa.SMovI(2, 0)).End()
	mb.Misc(isa.Operation{Op: isa.OpUTopNextGroup, A: 2}).End()
	mb.Misc(isa.UTopFinish()).End()
	m1 := mb.PC()
	mb.Misc(isa.SMovI(2, 1)).End()
	mb.Misc(isa.Operation{Op: isa.OpUTopNextGroup, A: 2}).End()
	mb.Misc(isa.UTopFinish()).End()
	meCode, err := mb.Code()
	if err != nil {
		t.Fatal(err)
	}
	_ = code
	_, _ = s0, s1
	p := &isa.NeuProgram{
		VESlots: 1,
		MECode:  meCode,
		UTops: []isa.UTop{
			{Kind: isa.MEUTop, Start: m0},
			{Kind: isa.MEUTop, Start: m1},
		},
		Groups: []isa.Group{{ME: []int{0, 1}, VE: isa.NullUTop}},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	c := newTestCore(t)
	if _, err := c.RunNeu(p, []int{0, 1}); err == nil {
		t.Fatal("conflicting uTop.nextGroup did not error")
	} else if !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestVLIWMatMulAndStaticCoupling(t *testing.T) {
	// A 2-ME VLIW program: each ME multiplies its own 2×k tile.
	const k, n = 32, isa.VectorLanes
	c := newTestCore(t)
	a := tensor.New(4, k) // rows 0-1 → ME0, rows 2-3 → ME1
	bm := tensor.New(k, n)
	for i := range a.Data {
		a.Data[i] = float32(i % 7)
	}
	for i := range bm.Data {
		bm.Data[i] = float32(i%5) - 2
	}
	const aBase, bBase, cBase = 0, 2048, 16384
	copy(c.SRAM[aBase:], a.Data)
	copy(c.SRAM[bBase:], bm.Data)

	b := isa.NewBuilder(isa.Format{MESlots: 2, VESlots: 4})
	b.Misc(isa.SMovI(5, bBase)).End()
	b.ME(isa.MELoadW(5, k, n)).ME(isa.MELoadW(5, k, n)).End()
	b.Misc(isa.SMovI(6, aBase)).End()     // ME0 row ptr
	b.Misc(isa.SMovI(7, aBase+2*k)).End() // ME1 row ptr
	b.Misc(isa.SMovI(8, cBase)).End()     // ME0 out ptr
	b.Misc(isa.SMovI(9, cBase+2*n)).End() // ME1 out ptr
	for r := 0; r < 2; r++ {
		b.ME(isa.MEPush(6, k)).ME(isa.MEPush(7, k)).End()
		b.ME(isa.MEPop(0)).ME(isa.MEPop(1)).End()
		b.LS(isa.VStore(8, 0, int32(r*n))).LS(isa.VStore(9, 1, int32(r*n))).End()
		b.Misc(isa.SAddI(6, 6, k)).End()
		b.Misc(isa.SAddI(7, 7, k)).End()
	}
	b.Misc(isa.Halt()).End()
	code, err := b.Code()
	if err != nil {
		t.Fatal(err)
	}
	p := &isa.Program{Format: isa.Format{MESlots: 2, VESlots: 4}, Code: code}

	if _, err := c.RunVLIW(p); err != nil {
		t.Fatal(err)
	}
	want := tensor.MatMul(a, bm)
	got := tensor.New(4, n)
	copy(got.Data, c.SRAM[cBase:cBase+4*n])
	if d := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Fatalf("VLIW matmul differs by %v", d)
	}

	// Static coupling (paper Fig. 9): the same binary refuses to run on a
	// core with fewer MEs than its format demands.
	small := DefaultConfig()
	small.MEs = 1
	small.SRAMWords = 1 << 18
	small.HBMWords = 1 << 12
	sc, err := NewCore(small)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.RunVLIW(p); err == nil {
		t.Fatal("2-ME VLIW binary ran on 1-ME core")
	}
}

func TestDMARoundTrip(t *testing.T) {
	c := newTestCore(t)
	src := make([]float32, 512)
	for i := range src {
		src[i] = float32(i) * 1.5
	}
	if err := c.WriteHBM(1000, src); err != nil {
		t.Fatal(err)
	}
	b := isa.NewBuilder(isa.Format{MESlots: 1, VESlots: 1})
	b.Misc(isa.SMovI(2, 64)).End()   // SRAM dst
	b.Misc(isa.SMovI(3, 1000)).End() // HBM src
	b.Misc(isa.DMALoad(2, 3, 512)).End()
	b.Misc(isa.SMovI(4, 5000)).End() // HBM dst
	b.Misc(isa.DMAStore(4, 2, 512)).End()
	b.Misc(isa.Halt()).End()
	code, err := b.Code()
	if err != nil {
		t.Fatal(err)
	}
	p := &isa.Program{Format: isa.Format{MESlots: 1, VESlots: 1}, Code: code}
	if _, err := c.RunVLIW(p); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadHBM(5000, 512)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("DMA roundtrip [%d] = %v, want %v", i, got[i], src[i])
		}
	}
}

func TestFaultOnOutOfRangeAccess(t *testing.T) {
	c := newTestCore(t)
	b := isa.NewBuilder(isa.Format{MESlots: 1, VESlots: 1})
	b.Misc(isa.SMovI(2, int32(len(c.SRAM)))).End()
	b.LS(isa.Operation{Op: isa.OpVLoad, A: 2}).End()
	b.Misc(isa.Halt()).End()
	code, err := b.Code()
	if err != nil {
		t.Fatal(err)
	}
	p := &isa.Program{Format: isa.Format{MESlots: 1, VESlots: 1}, Code: code}
	_, err = c.RunVLIW(p)
	if err == nil {
		t.Fatal("out-of-range load did not fault")
	}
	var f *Fault
	if !errorsAs(err, &f) {
		t.Fatalf("error %T is not a Fault: %v", err, err)
	}
}

// TestMalformedProgramReturnsError runs programs that would index past a
// register file or slice SRAM with a negative length. Binaries carry
// register fields as raw bytes, and the assembler accepts the negative
// lengths, so a guest can submit any of them; each must come back as an
// error.
func TestMalformedProgramReturnsError(t *testing.T) {
	c := newTestCore(t)
	f := isa.Format{MESlots: 1, VESlots: 1}
	for _, tc := range []struct {
		name string
		set  func(in *isa.Instruction)
	}{
		{"misc register 40", func(in *isa.Instruction) { in.Misc = isa.SMovI(40, 1) }},
		{"VE register 40", func(in *isa.Instruction) { in.VE[0] = isa.Operation{Op: isa.OpVAdd, Dst: 40} }},
		{"LS register 40", func(in *isa.Instruction) { in.LS[0] = isa.Operation{Op: isa.OpVLoad, A: 40} }},
		{"negative push length", func(in *isa.Instruction) { in.ME[0] = isa.MEPush(1, -4) }},
		{"negative weight-tile rows", func(in *isa.Instruction) { in.ME[0] = isa.MELoadW(1, -1, 4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in, halt := isa.NewInstruction(f), isa.NewInstruction(f)
			tc.set(&in)
			halt.Misc = isa.Halt()
			p := &isa.Program{Format: f, Code: []isa.Instruction{in, halt}}
			if _, err := c.RunVLIW(p); err == nil {
				t.Fatal("malformed program ran without error")
			}
		})
	}
}

// pushFloodAsm latches a weight tile and then pushes rows forever
// without popping one.
const pushFloodAsm = `.neuisa veslots=1
.utop me flood
    me.loadw [%r0], 8, 8
L:
    me.push [%r0], 8
    beq %r0, %r0, @L
    uTop.finish
.group flood
`

// TestPushWithoutPopFaults runs a guest loop that pushes rows and never
// pops them. The bounded output FIFO must fault it after maxPendingRows
// pushes, not let it run to the instruction cap holding every row.
func TestPushWithoutPopFaults(t *testing.T) {
	p, err := isa.Assemble(pushFloodAsm)
	if err != nil {
		t.Fatal(err)
	}
	st, err := newTestCore(t).RunNeu(p, []int{0})
	var f *Fault
	if !errorsAs(err, &f) || !strings.Contains(f.Reason, "FIFO full") {
		t.Fatalf("push flood ended with %v, want an output-FIFO-full fault", err)
	}
	if st.Instructions > 2*maxPendingRows+2 {
		t.Fatalf("push flood ran %d instructions, want at most %d", st.Instructions, 2*maxPendingRows+2)
	}
}

func errorsAs(err error, target **Fault) bool {
	f, ok := err.(*Fault)
	if ok {
		*target = f
	}
	return ok
}

func TestScalarRegZeroHardwired(t *testing.T) {
	c := newTestCore(t)
	b := isa.NewBuilder(isa.Format{MESlots: 1, VESlots: 1})
	b.Misc(isa.SMovI(0, 42)).End() // write to %r0 must be discarded
	b.Misc(isa.Operation{Op: isa.OpSStore, A: 0, B: 0, Imm: 10}).End()
	b.Misc(isa.Halt()).End()
	code, err := b.Code()
	if err != nil {
		t.Fatal(err)
	}
	p := &isa.Program{Format: isa.Format{MESlots: 1, VESlots: 1}, Code: code}
	if _, err := c.RunVLIW(p); err != nil {
		t.Fatal(err)
	}
	if c.SRAM[10] != 0 {
		t.Fatalf("SRAM[10] = %v; %%r0 is writable", c.SRAM[10])
	}
}

func TestInfiniteLoopGuard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SRAMWords = 2048
	cfg.HBMWords = 2048
	c, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := isa.NewBuilder(isa.Format{MESlots: 1, VESlots: 1})
	b.Misc(isa.Branch(isa.OpBEQ, 0, 0, 0)).End() // jump to self forever
	b.Misc(isa.Halt()).End()
	code, err := b.Code()
	if err != nil {
		t.Fatal(err)
	}
	p := &isa.Program{Format: isa.Format{MESlots: 1, VESlots: 1}, Code: code}
	if _, err := c.RunVLIW(p); err == nil {
		t.Fatal("infinite loop did not trip the guard")
	}
}
