package isa

import "fmt"

// Program is a traditional VLIW program: a flat instruction sequence
// executed in order until OpHalt. The Format fixes the number of ME slots,
// which is exactly the coupling the paper criticizes — the instruction
// stream hardwires how many MEs the program uses.
type Program struct {
	Format Format
	Code   []Instruction
}

// Validate checks the whole program.
func (p *Program) Validate() error {
	if err := p.Format.Validate(); err != nil {
		return err
	}
	halted := false
	for i := range p.Code {
		if err := p.Code[i].Validate(p.Format); err != nil {
			return fmt.Errorf("instruction %d: %w", i, err)
		}
		if p.Code[i].Misc.Op == OpHalt {
			halted = true
		}
		if b := p.Code[i].Misc; b.Op.IsBranch() {
			tgt := i + int(b.Imm)
			if tgt < 0 || tgt >= len(p.Code) {
				return fmt.Errorf("instruction %d: branch target %d out of range", i, tgt)
			}
		}
	}
	if len(p.Code) > 0 && !halted {
		return fmt.Errorf("isa: VLIW program has no halt")
	}
	return nil
}

// UTopKind distinguishes the two µTOp types from the paper's Fig. 13.
type UTopKind int

const (
	// MEUTop carries one ME slot plus ny VE slots per instruction: the
	// control flow of exactly one matrix engine (plus the vector work
	// needed to drain/post-process its output, enabling fusions such as
	// MatMul+ReLU).
	MEUTop UTopKind = iota
	// VEUTop carries no ME slot and ny VE slots: pure vector work.
	VEUTop
)

func (k UTopKind) String() string {
	if k == MEUTop {
		return "ME-µTOp"
	}
	return "VE-µTOp"
}

// UTop is a micro tensor operator: a self-contained snippet of VLIW-style
// instructions ending in uTop.finish. Start indexes into the owning
// program's code pool for the µTOp's kind; snippets may be shared between
// µTOps (the paper relies on this to bound code inflation).
type UTop struct {
	Kind  UTopKind
	Start int
}

// NullUTop marks an empty cell in the execution table.
const NullUTop = -1

// maxGroupMEs bounds one group's ME entries, in programs and binaries.
const maxGroupMEs = 1024

// Group is one row of the µTOp execution table: up to nx ME µTOps that
// may run concurrently, plus at most one VE µTOp. Entries index into
// NeuProgram.UTops; NullUTop marks absent cells. Groups execute in order
// (group i+1 after group i) unless redirected by uTop.nextGroup.
type Group struct {
	ME []int
	VE int
}

// NeuProgram is a NeuISA binary: two code pools (ME-format and VE-format
// snippets), the µTOp table, and the group execution table. The split
// pools mirror the paper's program layout (Fig. 15): snippet addresses in
// the execution table, shared snippets, and a static group sequence with
// dynamic redirection.
type NeuProgram struct {
	VESlots int           // ny of the target core family
	MECode  []Instruction // pool for ME µTOps, Format{1, VESlots}
	VECode  []Instruction // pool for VE µTOps, Format{0, VESlots}
	UTops   []UTop
	Groups  []Group
}

// MEFormat returns the instruction format of ME µTOp snippets.
func (p *NeuProgram) MEFormat() Format { return Format{MESlots: 1, VESlots: p.VESlots} }

// VEFormat returns the instruction format of VE µTOp snippets.
func (p *NeuProgram) VEFormat() Format { return Format{MESlots: 0, VESlots: p.VESlots} }

// CodeFor returns the code pool and format for a µTOp kind.
func (p *NeuProgram) CodeFor(k UTopKind) ([]Instruction, Format) {
	if k == MEUTop {
		return p.MECode, p.MEFormat()
	}
	return p.VECode, p.VEFormat()
}

// SnippetLen returns the instruction count of the µTOp snippet starting
// at start in the given pool (inclusive of the uTop.finish terminator).
// It returns an error if the snippet runs off the end of the pool.
func snippetLen(code []Instruction, start int) (int, error) {
	for i := start; i < len(code); i++ {
		if code[i].Misc.Op == OpUTopFinish {
			return i - start + 1, nil
		}
	}
	return 0, fmt.Errorf("isa: snippet at %d has no uTop.finish", start)
}

// Validate checks structural invariants of the NeuISA binary:
// slot legality, snippet termination, table references, and the paper's
// group-shape constraints (≤1 VE µTOp per group; ME entries are ME µTOps).
func (p *NeuProgram) Validate() error {
	if p.VESlots < 1 || p.VESlots > 16 {
		return fmt.Errorf("isa: VE slots %d out of range", p.VESlots)
	}
	mef, vef := p.MEFormat(), p.VEFormat()
	for i := range p.MECode {
		if err := p.MECode[i].Validate(mef); err != nil {
			return fmt.Errorf("ME pool instruction %d: %w", i, err)
		}
	}
	for i := range p.VECode {
		if err := p.VECode[i].Validate(vef); err != nil {
			return fmt.Errorf("VE pool instruction %d: %w", i, err)
		}
	}
	for i, u := range p.UTops {
		code, _ := p.CodeFor(u.Kind)
		if u.Start < 0 || u.Start >= len(code) {
			return fmt.Errorf("µTOp %d: start %d outside %s pool", i, u.Start, u.Kind)
		}
		n, err := snippetLen(code, u.Start)
		if err != nil {
			return fmt.Errorf("µTOp %d: %w", i, err)
		}
		// Branches must stay within the snippet: µTOps are the unit of
		// scheduling and cannot jump into one another.
		for pc := u.Start; pc < u.Start+n; pc++ {
			if b := code[pc].Misc; b.Op.IsBranch() {
				tgt := pc + int(b.Imm)
				if tgt < u.Start || tgt >= u.Start+n {
					return fmt.Errorf("µTOp %d: branch at %d escapes snippet [%d,%d)", i, pc, u.Start, u.Start+n)
				}
			}
		}
	}
	if len(p.Groups) == 0 {
		return fmt.Errorf("isa: program has no µTOp groups")
	}
	for gi, g := range p.Groups {
		if len(g.ME) == 0 && g.VE == NullUTop {
			return fmt.Errorf("group %d: empty", gi)
		}
		if len(g.ME) > maxGroupMEs {
			return fmt.Errorf("group %d: %d ME entries exceed %d", gi, len(g.ME), maxGroupMEs)
		}
		for _, ui := range g.ME {
			if ui == NullUTop {
				continue
			}
			if ui < 0 || ui >= len(p.UTops) {
				return fmt.Errorf("group %d: ME entry %d out of range", gi, ui)
			}
			if p.UTops[ui].Kind != MEUTop {
				return fmt.Errorf("group %d: ME entry %d is a %s", gi, ui, p.UTops[ui].Kind)
			}
		}
		if g.VE != NullUTop {
			if g.VE < 0 || g.VE >= len(p.UTops) {
				return fmt.Errorf("group %d: VE entry %d out of range", gi, g.VE)
			}
			if p.UTops[g.VE].Kind != VEUTop {
				return fmt.Errorf("group %d: VE entry %d is a %s", gi, g.VE, p.UTops[g.VE].Kind)
			}
		}
	}
	return nil
}

// Stats summarizes a NeuISA program.
type Stats struct {
	Groups       int
	MEUTops      int
	VEUTops      int
	Instructions int
	SharedBytes  int // bytes saved by snippet sharing vs. duplicating per µTOp
}

// Stats computes summary statistics, counting shared snippets once for
// the instruction total.
func (p *NeuProgram) Stats() Stats {
	s := Stats{Groups: len(p.Groups), Instructions: len(p.MECode) + len(p.VECode)}
	starts := map[[2]int]bool{}
	dupInsts := 0
	for _, u := range p.UTops {
		if u.Kind == MEUTop {
			s.MEUTops++
		} else {
			s.VEUTops++
		}
		code, f := p.CodeFor(u.Kind)
		if n, err := snippetLen(code, u.Start); err == nil {
			key := [2]int{int(u.Kind), u.Start}
			if starts[key] {
				dupInsts += n * f.wordsPerInstruction() * 8
			}
			starts[key] = true
		}
	}
	s.SharedBytes = dupInsts
	return s
}
