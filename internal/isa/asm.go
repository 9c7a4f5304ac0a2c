package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Assembler: a human-writable text format for NeuISA programs, used by
// tests, tooling and anyone prototyping µTOp kernels by hand, and the
// format DumpNeuProgram prints. Grammar (one construct per line; ';'
// starts a comment):
//
//	.neuisa veslots=4            header (required, first)
//	.utop me NAME                start an ME µTOp snippet
//	.utop ve NAME                start a VE µTOp snippet (no ME slot)
//	.group A B | C               execution-table row: ME µTOps A, B and
//	                             VE µTOp C; '|' separates, either side
//	                             may be empty ("| C" or "A B")
//	LABEL:                       branch target inside the current snippet
//
// Instruction lines hold one or more slot operations separated by '|'
// (they form one VLIW instruction word). opSpecs lists every mnemonic's
// operands; for example:
//
//	me.loadw [%r5], 96, 128      latch a 96x128 weight tile
//	me.push [%r6], 96            push one activation row
//	me.pop %v0 | v.relu %v0, %v0 pop and ReLU in one instruction
//	ls.load %v1, [%r2+128]       SRAM -> vreg
//	ls.store [%r2+0], %v1        vreg -> SRAM
//	s.movi %r3, #42              scalar immediates use '#'
//	bne %r10, %r0, @LOOP         branches take '@label'
//	dma.load %r2, %r3, 512       SRAM[%r2] <- HBM[%r3], 512 words
//	uTop.finish                  end of µTOp
//
// Numbers are decimal and must fit their field: immediates, counts and
// offsets an int32, a weight tile's rows a signed and its columns an
// unsigned 16-bit field. Every µTOp ends at its only uTop.finish.
// Assemble returns a validated NeuProgram.
func Assemble(src string) (*NeuProgram, error) {
	a := &assembler{labels: map[string]int{}, utops: map[string]int{}}
	return a.run(src)
}

type pendingBranch struct {
	snippet string // µTOp name (for error messages)
	pc      int    // absolute pc of the branch instruction
	label   string
	line    int
}

type assembler struct {
	prog    *NeuProgram
	cur     *Builder
	curKind UTopKind
	curName string
	started bool

	labels   map[string]int // label -> absolute pc within current pool
	branches []pendingBranch
	utops    map[string]int // µTOp name -> index in prog.UTops
	groups   [][2][]string  // raw group rows: [ME names, VE names]
}

func (a *assembler) run(src string) (*NeuProgram, error) {
	lines := strings.Split(src, "\n")
	for ln, raw := range lines {
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := a.line(line, ln+1); err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
	}
	if err := a.flushSnippet(); err != nil {
		return nil, err
	}
	if a.prog == nil {
		return nil, fmt.Errorf("isa: missing .neuisa header")
	}
	// Resolve groups.
	for _, row := range a.groups {
		g := Group{VE: NullUTop}
		for _, name := range row[0] {
			ui, ok := a.utops[name]
			if !ok {
				return nil, fmt.Errorf("isa: group references unknown µTOp %q", name)
			}
			g.ME = append(g.ME, ui)
		}
		for _, name := range row[1] {
			ui, ok := a.utops[name]
			if !ok {
				return nil, fmt.Errorf("isa: group references unknown µTOp %q", name)
			}
			if g.VE != NullUTop {
				return nil, fmt.Errorf("isa: group has two VE µTOps")
			}
			g.VE = ui
		}
		a.prog.Groups = append(a.prog.Groups, g)
	}
	if err := a.prog.Validate(); err != nil {
		return nil, err
	}
	return a.prog, nil
}

func (a *assembler) line(line string, ln int) error {
	switch {
	case strings.HasPrefix(line, ".neuisa"):
		if a.prog != nil {
			return fmt.Errorf("duplicate .neuisa header")
		}
		rest := strings.TrimSpace(strings.TrimPrefix(line, ".neuisa"))
		kv := strings.Split(rest, "=")
		if len(kv) != 2 || strings.TrimSpace(kv[0]) != "veslots" {
			return fmt.Errorf("header must be '.neuisa veslots=N'")
		}
		n, err := strconv.Atoi(strings.TrimSpace(kv[1]))
		if err != nil || n < 1 || n > 16 {
			return fmt.Errorf("bad veslots %q", kv[1])
		}
		a.prog = &NeuProgram{VESlots: n}
		return nil
	case strings.HasPrefix(line, ".utop"):
		if a.prog == nil {
			return fmt.Errorf(".utop before .neuisa header")
		}
		if err := a.flushSnippet(); err != nil {
			return err
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return fmt.Errorf("usage: .utop me|ve NAME")
		}
		switch fields[1] {
		case "me":
			a.curKind = MEUTop
			a.cur = NewBuilder(Format{MESlots: 1, VESlots: a.prog.VESlots})
		case "ve":
			a.curKind = VEUTop
			a.cur = NewBuilder(Format{MESlots: 0, VESlots: a.prog.VESlots})
		default:
			return fmt.Errorf("µTOp kind must be me or ve, got %q", fields[1])
		}
		a.curName = fields[2]
		if _, dup := a.utops[a.curName]; dup {
			return fmt.Errorf("duplicate µTOp name %q", a.curName)
		}
		a.started = true
		a.labels = map[string]int{}
		return nil
	case strings.HasPrefix(line, ".group"):
		if a.prog == nil {
			return fmt.Errorf(".group before .neuisa header")
		}
		rest := strings.TrimSpace(strings.TrimPrefix(line, ".group"))
		parts := strings.SplitN(rest, "|", 2)
		row := [2][]string{strings.Fields(parts[0]), nil}
		if len(parts) == 2 {
			row[1] = strings.Fields(parts[1])
		}
		if len(row[0])+len(row[1]) == 0 {
			return fmt.Errorf("empty .group")
		}
		a.groups = append(a.groups, row)
		return nil
	case strings.HasSuffix(line, ":") && !strings.Contains(line, " "):
		if a.cur == nil {
			return fmt.Errorf("label outside µTOp")
		}
		name := strings.TrimSuffix(line, ":")
		if _, dup := a.labels[name]; dup {
			return fmt.Errorf("duplicate label %q", name)
		}
		a.labels[name] = a.cur.PC()
		return nil
	default:
		if a.cur == nil {
			return fmt.Errorf("instruction outside µTOp: %q", line)
		}
		return a.instruction(line, ln)
	}
}

// flushSnippet seals the in-progress µTOp into the program.
func (a *assembler) flushSnippet() error {
	if !a.started {
		return nil
	}
	code, err := a.cur.Code()
	if err != nil {
		return fmt.Errorf("µTOp %q: %w", a.curName, err)
	}
	// Code past the first uTop.finish could never run, and
	// DumpNeuProgram would not print it back.
	if n, err := snippetLen(code, 0); err != nil || n != len(code) {
		return fmt.Errorf("µTOp %q does not end at its only uTop.finish", a.curName)
	}
	// Resolve branch labels now that the snippet is complete.
	for _, pb := range a.branches {
		tgt, ok := a.labels[pb.label]
		if !ok {
			return fmt.Errorf("µTOp %q: undefined label %q (line %d)", a.curName, pb.label, pb.line)
		}
		code[pb.pc].Misc.Imm = int32(tgt - pb.pc)
	}
	a.branches = nil

	var start int
	if a.curKind == MEUTop {
		start = len(a.prog.MECode)
		a.prog.MECode = append(a.prog.MECode, code...)
	} else {
		start = len(a.prog.VECode)
		a.prog.VECode = append(a.prog.VECode, code...)
	}
	a.utops[a.curName] = len(a.prog.UTops)
	a.prog.UTops = append(a.prog.UTops, UTop{Kind: a.curKind, Start: start})
	a.started = false
	a.cur = nil
	return nil
}

// instruction parses one line of '|'-separated slot operations into a
// single VLIW instruction.
func (a *assembler) instruction(line string, ln int) error {
	for _, slot := range strings.Split(line, "|") {
		op, kind, label, err := parseOp(strings.TrimSpace(slot))
		if err != nil {
			return err
		}
		switch kind {
		case SlotME:
			a.cur.ME(op)
		case SlotVE:
			a.cur.VE(op)
		case SlotLS:
			a.cur.LS(op)
		case SlotMisc:
			a.cur.Misc(op)
			if label != "" {
				// Imm patched at flush; remember the pc this will get.
				a.branches = append(a.branches, pendingBranch{
					snippet: a.curName, pc: a.cur.PC() - 1, label: label, line: ln,
				})
			}
		}
	}
	a.cur.End()
	return nil
}
