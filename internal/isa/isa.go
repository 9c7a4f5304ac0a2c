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

// opSpec is the one definition of an opcode's assembler syntax: its
// mnemonic, the slot it occupies and its operand tokens, which parseOp
// reads and opText prints.
type opSpec struct {
	name     string
	slot     SlotKind
	operands string
}

// opSpecs holds every opcode's syntax. Each operand token names the
// Operation field it fills: vD, vA, vB and rD, rA, rB are a vector or
// scalar register in Dst, A or B; [rA] and [rA+N] address SRAM through
// scalar register A, plus offset Imm; #N is Imm as an immediate and N
// as a count; R and C are a weight tile's rows and columns, packed into
// Imm as R<<16 | C; @L is a branch label, whose distance from the
// branch is Imm.
var opSpecs = [opCount]opSpec{
	OpNop: {"nop", SlotMisc, ""},

	OpMELoadW: {"me.loadw", SlotME, "[rA], R, C"},
	OpMEPush:  {"me.push", SlotME, "[rA], N"},
	OpMEPop:   {"me.pop", SlotME, "vD"},
	OpMEPopA:  {"me.popacc", SlotME, "vD"},

	OpVAdd:   {"v.add", SlotVE, "vD, vA, vB"},
	OpVSub:   {"v.sub", SlotVE, "vD, vA, vB"},
	OpVMul:   {"v.mul", SlotVE, "vD, vA, vB"},
	OpVMax:   {"v.max", SlotVE, "vD, vA, vB"},
	OpVRelu:  {"v.relu", SlotVE, "vD, vA"},
	OpVMov:   {"v.mov", SlotVE, "vD, vA"},
	OpVBcast: {"v.bcast", SlotVE, "vD, rA"},
	OpVAddS:  {"v.adds", SlotVE, "vD, vA, #N"},
	OpVMulS:  {"v.muls", SlotVE, "vD, vA, #N"},
	OpVRsum:  {"v.rsum", SlotVE, "rD, vA"},

	OpVLoad:  {"ls.load", SlotLS, "vD, [rA+N]"},
	OpVStore: {"ls.store", SlotLS, "[rA+N], vB"},

	OpHalt:     {"halt", SlotMisc, ""},
	OpSMovI:    {"s.movi", SlotMisc, "rD, #N"},
	OpSAddI:    {"s.addi", SlotMisc, "rD, rA, #N"},
	OpSAdd:     {"s.add", SlotMisc, "rD, rA, rB"},
	OpSMul:     {"s.mul", SlotMisc, "rD, rA, rB"},
	OpSLoad:    {"s.load", SlotMisc, "rD, [rA+N]"},
	OpSStore:   {"s.store", SlotMisc, "[rA+N], rB"},
	OpBEQ:      {"beq", SlotMisc, "rA, rB, @L"},
	OpBNE:      {"bne", SlotMisc, "rA, rB, @L"},
	OpBLT:      {"blt", SlotMisc, "rA, rB, @L"},
	OpDMALoad:  {"dma.load", SlotMisc, "rD, rA, N"},
	OpDMAStore: {"dma.store", SlotMisc, "rD, rA, N"},

	OpUTopFinish:    {"uTop.finish", SlotMisc, ""},
	OpUTopNextGroup: {"uTop.nextGroup", SlotMisc, "rA"},
	OpUTopGroup:     {"uTop.group", SlotMisc, "rD"},
	OpUTopIndex:     {"uTop.index", SlotMisc, "rD"},
}

func (o Opcode) String() string {
	if o < opCount {
		return opSpecs[o].name
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
	return o == OpNop || o < opCount && opSpecs[o].slot == k
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

// String prints the operation in assembler syntax; a branch names its
// target as if the branch sat at pc 0.
func (op Operation) String() string { return opText(op, 0) }

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
			if r := max(op.Dst, op.A, op.B); r >= NumScalarRegs {
				return fmt.Errorf("isa: %s names register %d, beyond %%r%d", op.Op, r, NumScalarRegs-1)
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
