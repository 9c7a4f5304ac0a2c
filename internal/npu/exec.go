package npu

import (
	"fmt"

	"neu10/internal/isa"
)

// The interpreter. Slots of one instruction execute in the deterministic
// order LS → ME → VE → misc; the compiler is responsible for not encoding
// intra-instruction hazards it does not want (this matches the
// compiler-managed contract of VLIW machines). Scalar register 0 is
// hardwired to zero: writes to it are discarded.

// maxInstructions bounds any single program run so a buggy uTop.nextGroup
// loop or branch cycle returns an error instead of hanging the test suite.
const maxInstructions = 50_000_000

type regFile struct {
	v [isa.NumVectorRegs][isa.VectorLanes]float32
	s [isa.NumScalarRegs]int32
}

func (r *regFile) setS(idx uint8, v int32) {
	if idx != 0 {
		r.s[idx] = v
	}
}

// execEnv carries the per-µTOp execution environment through the
// interpreter: which physical ME the (single) ME slot drives, and the
// NeuISA group/index visible to uTop.group / uTop.index.
type execEnv struct {
	mes       []int // physical ME index per ME slot
	group     int
	index     int
	nextGroup int // -1 = fall through to group+1
	finished  bool
	halted    bool
}

// RunStats counts what one program run executed. UTopsRun and GroupsRun
// stay zero for a VLIW program.
type RunStats struct {
	Instructions uint64
	UTopsRun     uint64
	GroupsRun    uint64
}

// step executes one instruction and returns the pc delta (normally +1,
// branch target offset otherwise).
func (c *Core) step(in *isa.Instruction, rf *regFile, env *execEnv, pc int) (int, error) {
	delta := 1
	fault := func(reason string) error { return &Fault{PC: pc, Reason: reason} }

	// --- load/store slots ---
	for _, op := range in.LS {
		switch op.Op {
		case isa.OpNop:
		case isa.OpVLoad:
			base := int(rf.s[op.A]) + int(op.Imm)
			if base < 0 || base+isa.VectorLanes > len(c.SRAM) {
				return 0, fault(fmt.Sprintf("SRAM load [%d,+128) out of range", base))
			}
			copy(rf.v[op.Dst][:], c.SRAM[base:base+isa.VectorLanes])
		case isa.OpVStore:
			base := int(rf.s[op.A]) + int(op.Imm)
			if base < 0 || base+isa.VectorLanes > len(c.SRAM) {
				return 0, fault(fmt.Sprintf("SRAM store [%d,+128) out of range", base))
			}
			copy(c.SRAM[base:base+isa.VectorLanes], rf.v[op.B][:])
		}
	}

	// --- ME slots ---
	for slot, op := range in.ME {
		if op.Op == isa.OpNop {
			continue
		}
		if slot >= len(env.mes) {
			return 0, fault(fmt.Sprintf("ME slot %d has no bound engine", slot))
		}
		me := c.MEs[env.mes[slot]]
		switch op.Op {
		case isa.OpMELoadW:
			rows, cols := int(op.Imm>>16), int(op.Imm&0xffff)
			base := int(rf.s[op.A])
			if rows < 0 {
				return 0, fault("negative weight-tile row count")
			}
			if base < 0 || base+rows*cols > len(c.SRAM) {
				return 0, fault(fmt.Sprintf("weight load [%d,+%d) out of range", base, rows*cols))
			}
			if err := me.LoadWeights(c.SRAM[base:base+rows*cols], rows, cols); err != nil {
				return 0, fault(err.Error())
			}
		case isa.OpMEPush:
			base, n := int(rf.s[op.A]), int(op.Imm)
			if n < 0 {
				return 0, fault("negative push length")
			}
			if base < 0 || base+n > len(c.SRAM) {
				return 0, fault(fmt.Sprintf("push row [%d,+%d) out of range", base, n))
			}
			if err := me.Push(c.SRAM[base : base+n]); err != nil {
				return 0, fault(err.Error())
			}
		case isa.OpMEPop, isa.OpMEPopA:
			row, err := me.Pop()
			if err != nil {
				return 0, fault(err.Error())
			}
			dst := &rf.v[op.Dst]
			if op.Op == isa.OpMEPop {
				for i := range dst {
					dst[i] = 0
				}
				copy(dst[:], row)
			} else {
				for i, v := range row {
					dst[i] += v
				}
			}
		}
	}

	// --- VE slots ---
	for _, op := range in.VE {
		if op.Op == isa.OpNop {
			continue
		}
		dst, a, b := &rf.v[op.Dst], &rf.v[op.A], &rf.v[op.B]
		switch op.Op {
		case isa.OpVAdd:
			for i := range dst {
				dst[i] = a[i] + b[i]
			}
		case isa.OpVSub:
			for i := range dst {
				dst[i] = a[i] - b[i]
			}
		case isa.OpVMul:
			for i := range dst {
				dst[i] = a[i] * b[i]
			}
		case isa.OpVMax:
			for i := range dst {
				if a[i] > b[i] {
					dst[i] = a[i]
				} else {
					dst[i] = b[i]
				}
			}
		case isa.OpVRelu:
			for i := range dst {
				if a[i] > 0 {
					dst[i] = a[i]
				} else {
					dst[i] = 0
				}
			}
		case isa.OpVMov:
			*dst = *a
		case isa.OpVBcast:
			v := float32(rf.s[op.A])
			for i := range dst {
				dst[i] = v
			}
		case isa.OpVAddS:
			v := float32(op.Imm)
			for i := range dst {
				dst[i] = a[i] + v
			}
		case isa.OpVMulS:
			v := float32(op.Imm)
			for i := range dst {
				dst[i] = a[i] * v
			}
		case isa.OpVRsum:
			var sum float32
			for _, v := range a {
				sum += v
			}
			rf.setS(op.Dst, int32(sum))
		}
	}

	// --- misc slot ---
	switch op := in.Misc; op.Op {
	case isa.OpNop:
	case isa.OpHalt:
		env.halted = true
	case isa.OpSMovI:
		rf.setS(op.Dst, op.Imm)
	case isa.OpSAddI:
		rf.setS(op.Dst, rf.s[op.A]+op.Imm)
	case isa.OpSAdd:
		rf.setS(op.Dst, rf.s[op.A]+rf.s[op.B])
	case isa.OpSMul:
		rf.setS(op.Dst, rf.s[op.A]*rf.s[op.B])
	case isa.OpSLoad:
		addr := int(rf.s[op.A]) + int(op.Imm)
		if addr < 0 || addr >= len(c.SRAM) {
			return 0, fault(fmt.Sprintf("scalar load at %d out of range", addr))
		}
		rf.setS(op.Dst, int32(c.SRAM[addr]))
	case isa.OpSStore:
		addr := int(rf.s[op.A]) + int(op.Imm)
		if addr < 0 || addr >= len(c.SRAM) {
			return 0, fault(fmt.Sprintf("scalar store at %d out of range", addr))
		}
		c.SRAM[addr] = float32(rf.s[op.B])
	case isa.OpBEQ:
		if rf.s[op.A] == rf.s[op.B] {
			delta = int(op.Imm)
		}
	case isa.OpBNE:
		if rf.s[op.A] != rf.s[op.B] {
			delta = int(op.Imm)
		}
	case isa.OpBLT:
		if rf.s[op.A] < rf.s[op.B] {
			delta = int(op.Imm)
		}
	case isa.OpDMALoad, isa.OpDMAStore:
		dst, src, n := int(rf.s[op.Dst]), int(rf.s[op.A]), int(op.Imm)
		if n < 0 {
			return 0, fault("negative DMA length")
		}
		if op.Op == isa.OpDMALoad {
			if src < 0 || src+n > len(c.HBM) {
				return 0, fault(fmt.Sprintf("DMA HBM read [%d,+%d) out of range", src, n))
			}
			if dst < 0 || dst+n > len(c.SRAM) {
				return 0, fault(fmt.Sprintf("DMA SRAM write [%d,+%d) out of range", dst, n))
			}
			copy(c.SRAM[dst:dst+n], c.HBM[src:src+n])
		} else {
			if src < 0 || src+n > len(c.SRAM) {
				return 0, fault(fmt.Sprintf("DMA SRAM read [%d,+%d) out of range", src, n))
			}
			if dst < 0 || dst+n > len(c.HBM) {
				return 0, fault(fmt.Sprintf("DMA HBM write [%d,+%d) out of range", dst, n))
			}
			copy(c.HBM[dst:dst+n], c.SRAM[src:src+n])
		}
	case isa.OpUTopFinish:
		env.finished = true
	case isa.OpUTopNextGroup:
		env.nextGroup = int(rf.s[op.A])
	case isa.OpUTopGroup:
		rf.setS(op.Dst, int32(env.group))
	case isa.OpUTopIndex:
		rf.setS(op.Dst, int32(env.index))
	}
	return delta, nil
}

// scratchRF returns the core's reusable register file, zeroed — the
// architectural start state of every program and µTOp.
func (c *Core) scratchRF() *regFile {
	if c.execRF == nil {
		c.execRF = &regFile{}
	} else {
		*c.execRF = regFile{}
	}
	return c.execRF
}

// scratchMEs returns the identity ME binding [0..n) for RunVLIW without
// reallocating it per run.
func (c *Core) scratchMEs(n int) []int {
	if cap(c.execMEs) < n {
		c.execMEs = make([]int, n)
	}
	c.execMEs = c.execMEs[:n]
	for i := range c.execMEs {
		c.execMEs[i] = i
	}
	return c.execMEs
}

// RunVLIW executes a traditional VLIW program to its halt. ME slot i
// drives physical ME i; the program therefore requires at least
// Format.MESlots physical MEs — the static coupling the paper's Fig. 9
// illustrates. It returns the run's instruction count.
func (c *Core) RunVLIW(p *isa.Program) (RunStats, error) {
	var st RunStats
	if err := p.Validate(); err != nil {
		return st, err
	}
	if p.Format.MESlots > c.Cfg.MEs {
		return st, fmt.Errorf("npu: program compiled for %d MEs, core has %d", p.Format.MESlots, c.Cfg.MEs)
	}
	mes := c.scratchMEs(p.Format.MESlots)
	rf := c.scratchRF()
	env := &execEnv{mes: mes, nextGroup: -1}
	pc := 0
	for !env.halted {
		if pc < 0 || pc >= len(p.Code) {
			return st, &Fault{PC: pc, Reason: "pc out of range"}
		}
		d, err := c.step(&p.Code[pc], rf, env, pc)
		if err != nil {
			return st, err
		}
		pc += d
		st.Instructions++
		c.Instructions++
		if st.Instructions > maxInstructions {
			return st, fmt.Errorf("npu: VLIW program exceeded %d instructions", maxInstructions)
		}
	}
	return st, nil
}

// RunNeu executes a NeuISA program on the core using the given physical
// MEs (by index). Unlike RunVLIW, any positive number of MEs works: µTOps
// of a group are bound to the available engines round-robin — this is
// exactly the decoupling NeuISA exists to provide. Groups execute
// sequentially (data dependencies), µTOps within a group in table order;
// uTop.nextGroup redirects sequencing, and conflicting redirections from
// µTOps of the same group raise an error, per the paper §III-D.
func (c *Core) RunNeu(p *isa.NeuProgram, mes []int) (RunStats, error) {
	var st RunStats
	if err := p.Validate(); err != nil {
		return st, err
	}
	if len(mes) == 0 {
		return st, fmt.Errorf("npu: no MEs allocated")
	}
	for _, m := range mes {
		if m < 0 || m >= c.Cfg.MEs {
			return st, fmt.Errorf("npu: ME index %d out of range", m)
		}
	}
	group := 0
	for group >= 0 && group < len(p.Groups) {
		st.GroupsRun++
		g := &p.Groups[group]
		next := -1
		nextSet := false
		// Walk the ME entries, then the VE entry (e == len(g.ME)); idx
		// numbers only the populated ones, as uTop.index reports them.
		idx := 0
		for e := 0; e <= len(g.ME); e++ {
			ui := g.VE
			if e < len(g.ME) {
				ui = g.ME[e]
			}
			if ui == isa.NullUTop {
				continue
			}
			u := p.UTops[ui]
			code, _ := p.CodeFor(u.Kind)
			rf := c.scratchRF()
			env := &execEnv{group: group, index: idx, nextGroup: -1}
			if u.Kind == isa.MEUTop {
				c.execOne[0] = mes[idx%len(mes)]
				env.mes = c.execOne[:1]
			}
			idx++
			pc := u.Start
			for !env.finished {
				if pc < 0 || pc >= len(code) {
					return st, &Fault{PC: pc, Reason: "pc out of snippet range"}
				}
				d, err := c.step(&code[pc], rf, env, pc)
				if err != nil {
					return st, err
				}
				pc += d
				st.Instructions++
				c.Instructions++
				if st.Instructions > maxInstructions {
					return st, fmt.Errorf("npu: NeuISA program exceeded %d instructions", maxInstructions)
				}
			}
			st.UTopsRun++
			if env.nextGroup >= 0 {
				if nextSet && next != env.nextGroup {
					return st, fmt.Errorf("npu: group %d µTOps disagree on next group (%d vs %d)", group, next, env.nextGroup)
				}
				next, nextSet = env.nextGroup, true
			}
		}
		if nextSet {
			if next >= len(p.Groups) {
				return st, fmt.Errorf("npu: uTop.nextGroup target %d out of range", next)
			}
			group = next
		} else {
			group++
		}
	}
	return st, nil
}
