// Package isa defines the NPU instruction set used throughout the
// repository: the traditional VLIW format that production NPUs expose to
// their compilers, and NeuISA, the paper's extension that reorganizes a
// VLIW program into independently schedulable micro tensor operators
// (µTOps) so the hardware can re-bind work to matrix engines at runtime.
//
// The package is shared by the compiler (which emits programs), the
// functional simulator in internal/npu (which executes them), and the
// performance simulator (which schedules their µTOp skeletons).
package isa

import "fmt"

// Opcode identifies an operation within an instruction slot. Opcodes are
// grouped by the slot type they are legal in; Legal() enforces this.
type Opcode uint8

const (
	// Universal.
	OpNop Opcode = iota

	// ME slot operations (matrix engine / systolic array).
	OpMELoadW // latch a 128×128 weight tile from SRAM: dst=ME-local, A=sreg(base addr), Imm=rows<<16|cols
	OpMEPush  // push one activation row into the array: A=sreg(SRAM addr of row), Imm=row length
	OpMEPop   // pop one result row into a vector register: Dst=vreg
	OpMEPopA  // pop-accumulate: Dst=vreg, vreg += popped row

	// VE slot operations (vector engine). Vector registers hold 128 lanes.
	OpVAdd   // Dst = A + B
	OpVSub   // Dst = A - B
	OpVMul   // Dst = A * B
	OpVMax   // Dst = max(A, B)
	OpVRelu  // Dst = max(A, 0)
	OpVMov   // Dst = A
	OpVBcast // Dst[lane] = sreg[A] for all lanes (scalar broadcast)
	OpVAddS  // Dst = A + imm-as-float
	OpVMulS  // Dst = A * imm-as-float
	OpVRsum  // sreg[Dst] = sum over lanes of A (reduction to scalar)

	// Load/store slot operations (SRAM <-> vector registers). Addresses
	// are in float32 words; A names a scalar register holding the base,
	// Imm is a word offset.
	OpVLoad  // vreg[Dst] = SRAM[sreg[A]+Imm : +128]
	OpVStore // SRAM[sreg[A]+Imm : +128] = vreg[B]

	// Misc slot operations: scalar ALU, control flow, DMA, and the NeuISA
	// µTOp control instructions from the paper's Fig. 14.
	OpHalt     // stop a (traditional VLIW) program
	OpSMovI    // sreg[Dst] = Imm
	OpSAddI    // sreg[Dst] = sreg[A] + Imm
	OpSAdd     // sreg[Dst] = sreg[A] + sreg[B]
	OpSMul     // sreg[Dst] = sreg[A] * sreg[B]
	OpSLoad    // sreg[Dst] = int32(SRAM[sreg[A]+Imm])
	OpSStore   // SRAM[sreg[A]+Imm] = float32(sreg[B])
	OpBEQ      // if sreg[A] == sreg[B] jump to PC+Imm (relative, within snippet)
	OpBNE      // if sreg[A] != sreg[B] jump to PC+Imm
	OpBLT      // if sreg[A] <  sreg[B] jump to PC+Imm
	OpDMALoad  // SRAM[sreg[Dst]..] = HBM[sreg[A]..], Imm words (asynchronous in HW; synchronous functionally)
	OpDMAStore // HBM[sreg[Dst]..] = SRAM[sreg[A]..], Imm words

	// NeuISA µTOp control instructions (paper Fig. 14).
	OpUTopFinish    // signal the µTOp scheduler: this µTOp is done
	OpUTopNextGroup // set the next µTOp group index from sreg[A]
	OpUTopGroup     // sreg[Dst] = current group index
	OpUTopIndex     // sreg[Dst] = µTOp index within the current group

	opCount
)

var opNames = map[Opcode]string{
	OpNop: "nop",

	OpMELoadW: "me.loadw", OpMEPush: "me.push", OpMEPop: "me.pop", OpMEPopA: "me.popacc",

	OpVAdd: "v.add", OpVSub: "v.sub", OpVMul: "v.mul", OpVMax: "v.max",
	OpVRelu: "v.relu", OpVMov: "v.mov", OpVBcast: "v.bcast",
	OpVAddS: "v.adds", OpVMulS: "v.muls", OpVRsum: "v.rsum",

	OpVLoad: "ls.load", OpVStore: "ls.store",

	OpHalt: "halt", OpSMovI: "s.movi", OpSAddI: "s.addi", OpSAdd: "s.add",
	OpSMul: "s.mul", OpSLoad: "s.load", OpSStore: "s.store",
	OpBEQ: "beq", OpBNE: "bne", OpBLT: "blt",
	OpDMALoad: "dma.load", OpDMAStore: "dma.store",

	OpUTopFinish: "uTop.finish", OpUTopNextGroup: "uTop.nextGroup",
	OpUTopGroup: "uTop.group", OpUTopIndex: "uTop.index",
}

func (o Opcode) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// SlotKind identifies which slot of a VLIW instruction an operation
// occupies.
type SlotKind int

const (
	SlotME SlotKind = iota
	SlotVE
	SlotLS
	SlotMisc
)

func (k SlotKind) String() string {
	switch k {
	case SlotME:
		return "ME"
	case SlotVE:
		return "VE"
	case SlotLS:
		return "LS"
	case SlotMisc:
		return "misc"
	default:
		return fmt.Sprintf("slot(%d)", int(k))
	}
}

// Legal reports whether an opcode may appear in a slot of the given kind.
func (o Opcode) Legal(k SlotKind) bool {
	if o == OpNop {
		return true
	}
	switch k {
	case SlotME:
		return o >= OpMELoadW && o <= OpMEPopA
	case SlotVE:
		return o >= OpVAdd && o <= OpVRsum
	case SlotLS:
		return o == OpVLoad || o == OpVStore
	case SlotMisc:
		return o >= OpHalt && o <= OpUTopIndex
	default:
		return false
	}
}

// IsBranch reports whether the opcode is a misc-slot branch.
func (o Opcode) IsBranch() bool { return o == OpBEQ || o == OpBNE || o == OpBLT }

// Operation is one slot's worth of work: an opcode plus register operands
// and a 32-bit immediate. Register fields index the vector register file
// for ME/VE/LS slots and the scalar register file for misc slots (and for
// address operands of LS/ME slots).
type Operation struct {
	Op  Opcode
	Dst uint8
	A   uint8
	B   uint8
	Imm int32
}

// Nop is the canonical no-op operation.
var Nop = Operation{Op: OpNop}

// IsNop reports whether the operation does nothing.
func (op Operation) IsNop() bool { return op.Op == OpNop }

func (op Operation) String() string {
	if op.IsNop() {
		return "nop"
	}
	return fmt.Sprintf("%s d%d a%d b%d #%d", op.Op, op.Dst, op.A, op.B, op.Imm)
}

// Format describes the slot layout of instructions in a program: how many
// ME slots and VE slots each instruction word carries. A traditional VLIW
// program for a core with nx MEs and ny VEs uses Format{nx, ny}; a NeuISA
// ME µTOp uses Format{1, ny}; a NeuISA VE µTOp uses Format{0, ny}.
// All formats carry two load/store slots and one misc slot.
type Format struct {
	MESlots int
	VESlots int
}

// LSSlots is the number of load/store slots in every instruction.
const LSSlots = 2

// Validate checks the format is representable.
func (f Format) Validate() error {
	if f.MESlots < 0 || f.MESlots > 16 {
		return fmt.Errorf("isa: ME slots %d out of range [0,16]", f.MESlots)
	}
	if f.VESlots < 1 || f.VESlots > 16 {
		return fmt.Errorf("isa: VE slots %d out of range [1,16]", f.VESlots)
	}
	return nil
}

// Instruction is one VLIW instruction word: a fixed set of parallel slots
// determined by the program's Format.
type Instruction struct {
	ME   []Operation // len = Format.MESlots
	VE   []Operation // len = Format.VESlots
	LS   [LSSlots]Operation
	Misc Operation
}

// NewInstruction returns an all-nop instruction for the format.
func NewInstruction(f Format) Instruction {
	in := Instruction{ME: make([]Operation, f.MESlots), VE: make([]Operation, f.VESlots)}
	for i := range in.ME {
		in.ME[i] = Nop
	}
	for i := range in.VE {
		in.VE[i] = Nop
	}
	in.LS[0], in.LS[1] = Nop, Nop
	in.Misc = Nop
	return in
}

// Validate checks every slot holds a legal opcode for its kind and names
// only registers that exist.
func (in *Instruction) Validate(f Format) error {
	if len(in.ME) != f.MESlots || len(in.VE) != f.VESlots {
		return fmt.Errorf("isa: instruction has %d ME / %d VE slots, format wants %d/%d",
			len(in.ME), len(in.VE), f.MESlots, f.VESlots)
	}
	for i, op := range in.ME {
		if !op.Op.Legal(SlotME) {
			return fmt.Errorf("isa: ME slot %d holds illegal opcode %s", i, op.Op)
		}
	}
	for i, op := range in.VE {
		if !op.Op.Legal(SlotVE) {
			return fmt.Errorf("isa: VE slot %d holds illegal opcode %s", i, op.Op)
		}
	}
	for i, op := range in.LS {
		if !op.Op.Legal(SlotLS) {
			return fmt.Errorf("isa: LS slot %d holds illegal opcode %s", i, op.Op)
		}
	}
	if !in.Misc.Op.Legal(SlotMisc) {
		return fmt.Errorf("isa: misc slot holds illegal opcode %s", in.Misc.Op)
	}
	// Binaries carry register fields as raw bytes, so one can name a
	// register past the end of either file (both hold 32).
	for _, ops := range [][]Operation{in.ME, in.VE, in.LS[:], {in.Misc}} {
		for _, op := range ops {
			if max(op.Dst, op.A, op.B) >= NumScalarRegs {
				return fmt.Errorf("isa: %s names a register beyond %%r%d", op, NumScalarRegs-1)
			}
		}
	}
	return nil
}

// NumScalarRegs and NumVectorRegs size the architectural register files.
// Scalar register 0 (%r0) is hardwired to zero, per the paper's Fig. 14.
const (
	NumScalarRegs = 32
	NumVectorRegs = 32
	VectorLanes   = 128
)
