package isa

import (
	"fmt"
	"strings"
)

// Disassemble prints an instruction as one line of assembler source:
// its non-nop slots in ME, VE, LS, misc order, joined by '|', or "nop"
// when every slot is empty. pc is the instruction's index in its code,
// from which a branch names its target as the label @L<pc+Imm>.
func Disassemble(in *Instruction, pc int) string {
	var parts []string
	for _, ops := range [][]Operation{in.ME, in.VE, in.LS[:], {in.Misc}} {
		for _, op := range ops {
			if !op.IsNop() {
				parts = append(parts, opText(op, pc))
			}
		}
	}
	if len(parts) == 0 {
		return "nop"
	}
	return strings.Join(parts, " | ")
}

// DumpNeuProgram prints a NeuISA binary as source that Assemble reads
// back: the .neuisa header, one .utop per µTOp, named u<index>, with a
// label L<pc> on each branch target, then one .group line per
// execution-table row. A snippet that several µTOps share prints once
// for each of them, so the source reassembles to the same program
// without the sharing. A binary that fails Validate still prints, as
// source the assembler rejects.
func DumpNeuProgram(p *NeuProgram) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, ".neuisa veslots=%d\n", p.VESlots)
	for ui, u := range p.UTops {
		kind := "ve"
		if u.Kind == MEUTop {
			kind = "me"
		}
		fmt.Fprintf(&sb, ".utop %s u%d\n", kind, ui)
		code, _ := p.CodeFor(u.Kind)
		n, err := snippetLen(code, u.Start)
		if err != nil {
			fmt.Fprintf(&sb, "    ; %v\n", err)
			continue
		}
		targets := map[int]bool{}
		for pc := u.Start; pc < u.Start+n; pc++ {
			if b := code[pc].Misc; b.Op.IsBranch() {
				targets[pc+int(b.Imm)] = true
			}
		}
		for pc := u.Start; pc < u.Start+n; pc++ {
			if targets[pc] {
				fmt.Fprintf(&sb, "L%d:\n", pc)
			}
			fmt.Fprintf(&sb, "    %s\n", Disassemble(&code[pc], pc))
		}
	}
	for _, g := range p.Groups {
		sb.WriteString(".group")
		for _, ui := range g.ME {
			fmt.Fprintf(&sb, " u%d", ui)
		}
		if g.VE != NullUTop {
			fmt.Fprintf(&sb, " | u%d", g.VE)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
