package isa

import "fmt"

// Builder assembles programs programmatically. It is the compiler
// backend's interface to the ISA: the compiler creates a builder per
// snippet, fills slots, and seals instructions. The builder enforces
// slot legality and slot-count limits eagerly so compiler bugs surface
// at emission, not at execution.
type Builder struct {
	format Format
	code   []Instruction
	cur    Instruction
	open   bool
	meUsed int
	veUsed int
	lsUsed int
	err    error
}

// NewBuilder returns a builder for the given instruction format.
func NewBuilder(f Format) *Builder {
	if err := f.Validate(); err != nil {
		panic(err)
	}
	return &Builder{format: f}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

func (b *Builder) ensure() {
	if !b.open {
		b.cur = NewInstruction(b.format)
		b.open = true
		b.meUsed, b.veUsed, b.lsUsed = 0, 0, 0
	}
}

// ME adds an operation to the next free ME slot of the current instruction.
func (b *Builder) ME(op Operation) *Builder {
	b.ensure()
	if !op.Op.Legal(SlotME) {
		b.fail("isa: %s illegal in ME slot", op.Op)
		return b
	}
	if b.meUsed >= b.format.MESlots {
		b.fail("isa: instruction %d exceeds %d ME slots", len(b.code), b.format.MESlots)
		return b
	}
	b.cur.ME[b.meUsed] = op
	b.meUsed++
	return b
}

// VE adds an operation to the next free VE slot.
func (b *Builder) VE(op Operation) *Builder {
	b.ensure()
	if !op.Op.Legal(SlotVE) {
		b.fail("isa: %s illegal in VE slot", op.Op)
		return b
	}
	if b.veUsed >= b.format.VESlots {
		b.fail("isa: instruction %d exceeds %d VE slots", len(b.code), b.format.VESlots)
		return b
	}
	b.cur.VE[b.veUsed] = op
	b.veUsed++
	return b
}

// LS adds a load/store operation to the next free LS slot.
func (b *Builder) LS(op Operation) *Builder {
	b.ensure()
	if !op.Op.Legal(SlotLS) {
		b.fail("isa: %s illegal in LS slot", op.Op)
		return b
	}
	if b.lsUsed >= LSSlots {
		b.fail("isa: instruction %d exceeds %d LS slots", len(b.code), LSSlots)
		return b
	}
	b.cur.LS[b.lsUsed] = op
	b.lsUsed++
	return b
}

// Misc sets the misc slot of the current instruction.
func (b *Builder) Misc(op Operation) *Builder {
	b.ensure()
	if !op.Op.Legal(SlotMisc) {
		b.fail("isa: %s illegal in misc slot", op.Op)
		return b
	}
	if !b.cur.Misc.IsNop() {
		b.fail("isa: instruction %d sets misc slot twice", len(b.code))
		return b
	}
	b.cur.Misc = op
	return b
}

// End seals the current instruction and returns its index.
func (b *Builder) End() int {
	b.ensure()
	b.code = append(b.code, b.cur)
	b.open = false
	return len(b.code) - 1
}

// PC returns the index the next sealed instruction will have.
func (b *Builder) PC() int {
	if b.open {
		return len(b.code) + 1
	}
	return len(b.code)
}

// Code returns the assembled instructions, or the first error encountered.
func (b *Builder) Code() ([]Instruction, error) {
	if b.open {
		b.fail("isa: unsealed trailing instruction")
	}
	if b.err != nil {
		return nil, b.err
	}
	return b.code, nil
}

// Convenience operation constructors. These keep compiler code readable:
// the operand meanings are easy to transpose when building Operations
// positionally.

// MELoadW latches a rows×cols weight tile whose SRAM base is in sreg a.
func MELoadW(aReg uint8, rows, cols int) Operation {
	return Operation{Op: OpMELoadW, A: aReg, Imm: int32(rows)<<16 | int32(cols)}
}

// MEPush feeds one activation row (length n) from SRAM[sreg a] into the array.
func MEPush(aReg uint8, n int) Operation {
	return Operation{Op: OpMEPush, A: aReg, Imm: int32(n)}
}

// MEPop pops one result row into vector register dst.
func MEPop(dst uint8) Operation { return Operation{Op: OpMEPop, Dst: dst} }

// V1 builds a one-source VE operation dst = Op a.
func V1(op Opcode, dst, a uint8) Operation { return Operation{Op: op, Dst: dst, A: a} }

// VStore stores vreg b to SRAM[sreg a + off].
func VStore(aReg, b uint8, off int32) Operation {
	return Operation{Op: OpVStore, A: aReg, B: b, Imm: off}
}

// SMovI sets sreg dst = imm.
func SMovI(dst uint8, imm int32) Operation { return Operation{Op: OpSMovI, Dst: dst, Imm: imm} }

// SAddI sets sreg dst = sreg a + imm.
func SAddI(dst, a uint8, imm int32) Operation {
	return Operation{Op: OpSAddI, Dst: dst, A: a, Imm: imm}
}

// Branch builds a relative branch on sregs a, b.
func Branch(op Opcode, a, b uint8, rel int32) Operation {
	return Operation{Op: op, A: a, B: b, Imm: rel}
}

// DMALoad copies words floats HBM[sreg a] → SRAM[sreg dst].
func DMALoad(dstReg, aReg uint8, words int32) Operation {
	return Operation{Op: OpDMALoad, Dst: dstReg, A: aReg, Imm: words}
}

// DMAStore copies words floats SRAM[sreg a] → HBM[sreg dst].
func DMAStore(dstReg, aReg uint8, words int32) Operation {
	return Operation{Op: OpDMAStore, Dst: dstReg, A: aReg, Imm: words}
}

// UTopFinish terminates a µTOp snippet.
func UTopFinish() Operation { return Operation{Op: OpUTopFinish} }

// UTopIndex stores the µTOp's index within its group into sreg dst.
func UTopIndex(dst uint8) Operation { return Operation{Op: OpUTopIndex, Dst: dst} }

// Halt terminates a VLIW program.
func Halt() Operation { return Operation{Op: OpHalt} }
