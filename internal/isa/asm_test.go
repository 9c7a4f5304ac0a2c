package isa

import (
	"os"
	"strings"
	"testing"
)

// matmulAsm is testdata/matmul.s, a fused MatMul+ReLU kernel that
// neu10-asm's test assembles too.
var matmulAsm = func() string {
	src, err := os.ReadFile("testdata/matmul.s")
	if err != nil {
		panic(err)
	}
	return string(src)
}()

func TestAssembleMatMulKernel(t *testing.T) {
	p, err := Assemble(matmulAsm)
	if err != nil {
		t.Fatal(err)
	}
	if p.VESlots != 4 {
		t.Fatalf("veslots %d", p.VESlots)
	}
	if len(p.UTops) != 2 || p.UTops[0].Kind != MEUTop || p.UTops[1].Kind != VEUTop {
		t.Fatalf("µTOps %+v", p.UTops)
	}
	if len(p.Groups) != 2 {
		t.Fatalf("groups %d", len(p.Groups))
	}
	if len(p.Groups[0].ME) != 2 || p.Groups[0].VE != NullUTop {
		t.Fatalf("group 0 %+v", p.Groups[0])
	}
	if p.Groups[1].VE != 1 || len(p.Groups[1].ME) != 0 {
		t.Fatalf("group 1 %+v", p.Groups[1])
	}
	// The branch must have resolved to a negative offset landing on LOOP.
	var branch *Operation
	for i := range p.MECode {
		if p.MECode[i].Misc.Op == OpBNE {
			branch = &p.MECode[i].Misc
		}
	}
	if branch == nil {
		t.Fatal("no branch assembled")
	}
	if branch.Imm >= 0 || branch.Imm < -10 {
		t.Fatalf("branch offset %d implausible", branch.Imm)
	}
	// Round-trip through the binary encoder.
	q, err := DecodeNeuProgram(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if DumpNeuProgram(p) != DumpNeuProgram(q) {
		t.Fatal("assembled program does not survive encode/decode")
	}
}

func TestAssembleParallelSlots(t *testing.T) {
	p, err := Assemble(`
.neuisa veslots=2
.utop me k
    me.pop %v0 | v.relu %v0, %v0 | v.mov %v1, %v0 | ls.store [%r1+0], %v0
    uTop.finish
.group k
`)
	if err != nil {
		t.Fatal(err)
	}
	in := p.MECode[p.UTops[0].Start]
	if in.ME[0].Op != OpMEPop || in.VE[0].Op != OpVRelu || in.VE[1].Op != OpVMov ||
		in.LS[0].Op != OpVStore {
		t.Fatalf("parallel slots misassembled: %s", Disassemble(&in, 0))
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"no header", ".utop me x\nuTop.finish\n.group x", ".neuisa"},
		{"dup header", ".neuisa veslots=2\n.neuisa veslots=2", "duplicate"},
		{"bad veslots", ".neuisa veslots=99", "veslots"},
		{"unknown mnemonic", ".neuisa veslots=2\n.utop me x\nfrobnicate %r1\nuTop.finish\n.group x", "mnemonic"},
		{"missing finish", ".neuisa veslots=2\n.utop me x\nme.pop %v0\n.group x", "finish"},
		{"undefined label", ".neuisa veslots=2\n.utop me x\nbne %r1, %r0, @nope\nuTop.finish\n.group x", "label"},
		{"dup utop", ".neuisa veslots=2\n.utop me x\nuTop.finish\n.utop me x\nuTop.finish\n.group x", "duplicate"},
		{"unknown utop in group", ".neuisa veslots=2\n.utop me x\nuTop.finish\n.group y", "unknown"},
		{"ve op in me position", ".neuisa veslots=2\n.utop ve x\nme.pop %v0\nuTop.finish\n.group | x", "ME slot"},
		{"bad register", ".neuisa veslots=2\n.utop me x\ns.movi %q1, #5\nuTop.finish\n.group x", "s.movi"},
		{"two ve in group", ".neuisa veslots=2\n.utop ve a\nuTop.finish\n.utop ve b\nuTop.finish\n.group | a b", "two VE"},
		{"instr outside utop", ".neuisa veslots=2\ns.movi %r1, #5", "outside"},
		{"empty group", ".neuisa veslots=2\n.utop me x\nuTop.finish\n.group |", "empty"},
		{"immediate past int32", ".neuisa veslots=2\n.utop me x\ns.movi %r3, #4294967297\nuTop.finish\n.group x", "s.movi"},
		{"columns past 16 bits", ".neuisa veslots=2\n.utop me x\nme.loadw [%r5], 64, 65600\nuTop.finish\n.group x", "me.loadw"},
		{"rows past 16 bits", ".neuisa veslots=2\n.utop me x\nme.loadw [%r5], 32768, 64\nuTop.finish\n.group x", "me.loadw"},
		{"offset on an ME address", ".neuisa veslots=2\n.utop me x\nme.push [%r1+4], 8\nuTop.finish\n.group x", "me.push"},
		{"empty label", ".neuisa veslots=2\n.utop me x\nbne %r1, %r0, @\nuTop.finish\n.group x", "bne"},
		{"code after finish", ".neuisa veslots=2\n.utop me x\nuTop.finish\nhalt\nuTop.finish\n.group x", "only uTop.finish"},
	}
	for _, c := range cases {
		_, err := Assemble(c.src)
		if err == nil {
			t.Errorf("%s: assembled without error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestAssembleCommentsAndBlankLines(t *testing.T) {
	p, err := Assemble(`
; leading comment
.neuisa veslots=2   ; trailing comment

.utop ve v          ; the µTOp
    v.bcast %v0, %r1
    v.rsum %r2, %v0 ; reduce
    uTop.finish

.group | v
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.VECode) != 3 {
		t.Fatalf("expected 3 instructions, got %d", len(p.VECode))
	}
}

func TestAssembleNextGroupLoop(t *testing.T) {
	// The paper's Fig. 15 loop, in assembler form.
	p, err := Assemble(`
.neuisa veslots=1
.utop ve body
    s.load %r2, [%r0+100]
    s.addi %r2, %r2, #1
    s.store [%r0+100], %r2
    uTop.finish
.utop ve check
    s.load %r2, [%r0+101]
    s.addi %r2, %r2, #1
    s.store [%r0+101], %r2
    s.movi %r3, #3
    blt %r3, %r2, @DONE
    uTop.nextGroup %r0
DONE:
    uTop.finish
.group | body
.group | check
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Groups) != 2 {
		t.Fatalf("groups %d", len(p.Groups))
	}
}
