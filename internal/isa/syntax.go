package isa

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// parseOp parses one slot operation in assembler syntax, returning the
// operation, its slot kind, and (for branches) the unresolved label.
func parseOp(s string) (Operation, SlotKind, string, error) {
	mnemonic, rest, _ := strings.Cut(s, " ")
	code := slices.IndexFunc(opSpecs[:], func(o opSpec) bool { return o.name == mnemonic })
	if code < 0 {
		return Operation{}, 0, "", fmt.Errorf("isa: unknown mnemonic %q", mnemonic)
	}
	spec, op, label := opSpecs[code], Operation{Op: Opcode(code)}, ""
	toks, args := splitArgs(spec.operands), splitArgs(rest)
	var err error
	if len(args) != len(toks) {
		err = fmt.Errorf("want %d operands, got %d", len(toks), len(args))
	}
	for i := 0; err == nil && i < len(toks); i++ {
		err = parseOperand(&op, &label, toks[i], args[i])
	}
	if err != nil {
		return Operation{}, 0, "", fmt.Errorf("bad %s: %q: %v (usage: %s %s)", mnemonic, s, err, mnemonic, spec.operands)
	}
	return op, spec.slot, label, nil
}

// opText prints op in the syntax parseOp reads. pc is op's index in its
// code; a branch names its target pc+Imm as the label @L<pc+Imm>.
func opText(op Operation, pc int) string {
	if op.Op >= opCount { // a decoded byte past the table
		return op.Op.String()
	}
	spec := opSpecs[op.Op]
	args := splitArgs(spec.operands)
	if len(args) == 0 {
		return spec.name
	}
	for i, tok := range args {
		args[i] = operandText(op, tok, pc)
	}
	return spec.name + " " + strings.Join(args, ", ")
}

// reg returns the register field an operand token's letter names.
func (op *Operation) reg(field byte) *uint8 {
	switch field {
	case 'D':
		return &op.Dst
	case 'A':
		return &op.A
	}
	return &op.B
}

// parseOperand parses arg as operand token tok (see opSpecs) into op,
// or into label for a branch target. Numbers must fit the field they
// fill: the assembler rejects a value it would otherwise wrap.
func parseOperand(op *Operation, label *string, tok, arg string) error {
	var err error
	switch tok {
	case "vD", "vA", "vB", "rD", "rA", "rB":
		*op.reg(tok[1]), err = parseReg(arg, tok[0])
	case "[rA]", "[rA+N]":
		inner, ok := strings.CutPrefix(arg, "[")
		inner, ok2 := strings.CutSuffix(inner, "]")
		reg, off, hasOff := strings.Cut(inner, "+")
		if !ok || !ok2 || hasOff && tok == "[rA]" {
			return fmt.Errorf("want %s, got %q", tok, arg)
		}
		if op.A, err = parseReg(strings.TrimSpace(reg), 'r'); err == nil && hasOff {
			op.Imm, err = parseNum(strings.TrimSpace(off), math.MinInt32, math.MaxInt32)
		}
	case "#N":
		n, ok := strings.CutPrefix(arg, "#")
		if !ok {
			return fmt.Errorf("want #N, got %q", arg)
		}
		op.Imm, err = parseNum(n, math.MinInt32, math.MaxInt32)
	case "N":
		op.Imm, err = parseNum(arg, math.MinInt32, math.MaxInt32)
	case "R":
		var rows int32
		rows, err = parseNum(arg, math.MinInt16, math.MaxInt16)
		op.Imm |= rows << 16
	case "C":
		var cols int32
		cols, err = parseNum(arg, 0, math.MaxUint16)
		op.Imm |= cols
	case "@L":
		var ok bool
		if *label, ok = strings.CutPrefix(arg, "@"); !ok || *label == "" {
			return fmt.Errorf("want @label, got %q", arg)
		}
	}
	return err
}

// operandText prints operand token tok of op, which sits at pc.
func operandText(op Operation, tok string, pc int) string {
	switch tok {
	case "vD", "vA", "vB", "rD", "rA", "rB":
		return fmt.Sprintf("%%%c%d", tok[0], *op.reg(tok[1]))
	case "[rA]":
		return fmt.Sprintf("[%%r%d]", op.A)
	case "[rA+N]":
		return fmt.Sprintf("[%%r%d+%d]", op.A, op.Imm)
	case "#N":
		return fmt.Sprintf("#%d", op.Imm)
	case "N":
		return strconv.Itoa(int(op.Imm))
	case "R":
		return strconv.Itoa(int(op.Imm >> 16))
	case "C":
		return strconv.Itoa(int(op.Imm & 0xffff))
	default: // "@L"
		return fmt.Sprintf("@L%d", pc+int(op.Imm))
	}
}

func splitArgs(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// parseReg parses "%rN" or "%vN".
func parseReg(s string, class byte) (uint8, error) {
	n, ok := strings.CutPrefix(s, "%"+string(class))
	r, err := parseNum(n, 0, NumScalarRegs-1)
	if !ok || err != nil {
		return 0, fmt.Errorf("want a %%%c register, got %q", class, s)
	}
	return uint8(r), nil
}

// parseNum parses a decimal number in [lo, hi].
func parseNum(s string, lo, hi int64) (int32, error) {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < lo || n > hi {
		return 0, fmt.Errorf("%q is not a number in [%d, %d]", s, lo, hi)
	}
	return int32(n), nil
}
