// Package npu implements a functional simulator of an NPU core in the
// style of a Google TPU (paper §II-A, Fig. 1): matrix engines built from
// weight-stationary systolic arrays, vector engines operating on 128-lane
// vectors, an on-chip SRAM, and DMA to off-chip HBM.
//
// The simulator executes real encoded programs from internal/isa — both
// traditional VLIW binaries and NeuISA binaries — instruction by
// instruction, and is validated against the reference operators in
// internal/tensor. It is purely functional: it counts instructions,
// µTOps and groups, but keeps no clock. The fluid simulator in
// internal/sched is the only timing model.
package npu

import (
	"fmt"

	"neu10/internal/isa"
)

// Config describes one NPU core. Defaults follow the paper's Table II.
type Config struct {
	MEs       int // matrix engines
	SRAMWords int // on-chip SRAM size in float32 words
	HBMWords  int // off-chip HBM size in float32 words (per core slice)
}

// systolicDim is the ME array's side (128 in TPUv4). It equals the
// vector width so a popped output row always fits one vector register.
const systolicDim = isa.VectorLanes

// DefaultConfig returns a functional-test-sized core: four MEs, with
// memories modest enough that tests stay fast.
func DefaultConfig() Config {
	return Config{
		MEs:       4,
		SRAMWords: 1 << 22, // 16 MB of floats
		HBMWords:  1 << 24, // 64 MB of floats
	}
}

// Validate checks the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.MEs < 1 || c.MEs > 16:
		return fmt.Errorf("npu: MEs %d out of range", c.MEs)
	case c.SRAMWords < 1024:
		return fmt.Errorf("npu: SRAM %d words too small", c.SRAMWords)
	case c.HBMWords < 1024:
		return fmt.Errorf("npu: HBM %d words too small", c.HBMWords)
	}
	return nil
}

// Fault is raised (as an error, not a panic) when a program performs an
// illegal access — the functional analogue of the paper's page fault on
// invalid segment accesses.
type Fault struct {
	PC     int
	Reason string
}

func (f *Fault) Error() string { return fmt.Sprintf("npu: fault at pc %d: %s", f.PC, f.Reason) }

// Core is one NPU core: its SRAM, its private slice of HBM, and its MEs.
// VE operations run directly on the register file, so the core has no
// per-VE state.
type Core struct {
	Cfg  Config
	SRAM []float32
	HBM  []float32
	MEs  []*SystolicArray

	// Instructions counts the instructions the core has retired over
	// its lifetime, across every run.
	Instructions uint64

	// Interpreter scratch state: the register file and ME-binding
	// slice are reused across runs and µTOps so the execution loop
	// performs no per-µTOp allocation.
	execRF  *regFile
	execMEs []int
	execOne [1]int
}

// NewCore builds a core with a private HBM buffer.
func NewCore(cfg Config) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Core{
		Cfg:  cfg,
		SRAM: make([]float32, cfg.SRAMWords),
		HBM:  make([]float32, cfg.HBMWords),
		MEs:  make([]*SystolicArray, cfg.MEs),
	}
	for i := range c.MEs {
		c.MEs[i] = NewSystolicArray(systolicDim)
	}
	return c, nil
}

// WriteHBM copies data into HBM at a word address.
func (c *Core) WriteHBM(addr int, data []float32) error {
	if addr < 0 || addr+len(data) > len(c.HBM) {
		return fmt.Errorf("npu: HBM write [%d,%d) out of range", addr, addr+len(data))
	}
	copy(c.HBM[addr:], data)
	return nil
}

// ReadHBM copies n words out of HBM at a word address.
func (c *Core) ReadHBM(addr, n int) ([]float32, error) {
	if addr < 0 || addr+n > len(c.HBM) {
		return nil, fmt.Errorf("npu: HBM read [%d,%d) out of range", addr, addr+n)
	}
	out := make([]float32, n)
	copy(out, c.HBM[addr:])
	return out, nil
}
