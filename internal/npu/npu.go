// Package npu implements a functional simulator of an NPU core in the
// style of a Google TPU (paper §II-A, Fig. 1): matrix engines built from
// weight-stationary systolic arrays, vector engines operating on 128-lane
// vectors, an on-chip SRAM, and DMA to off-chip HBM.
//
// The simulator executes real encoded programs from internal/isa — both
// traditional VLIW binaries and NeuISA binaries — instruction by
// instruction, and is validated against the reference operators in
// internal/tensor. It also keeps simple per-engine cycle counters, which
// is enough to demonstrate, e.g., the VE idleness of Fig. 6; the
// *performance* experiments use the fluid simulator in internal/sched.
package npu

import (
	"fmt"

	"neu10/internal/isa"
)

// Config describes one NPU core. Defaults follow the paper's Table II.
type Config struct {
	MEs       int // matrix engines
	VEs       int // vector engines
	SRAMWords int // on-chip SRAM size in float32 words
	HBMWords  int // off-chip HBM size in float32 words (per core slice)
}

// Engine geometry and per-operation costs, the same on every core.
const (
	// systolicDim is the ME array's side (128 in TPUv4). It equals the
	// vector width so a popped output row always fits one vector register.
	systolicDim  = isa.VectorLanes
	popCycles    = 8  // cycles per me.pop (the paper's Fig. 6)
	veOpCycles   = 1  // cycles per VE operation
	pushCycles   = 1  // cycles per me.push
	loadWPerRow  = 1  // cycles per weight row latched
	dmaWordsPerC = 64 // DMA throughput, words per cycle
)

// DefaultConfig returns a functional-test-sized core: four MEs and four
// VEs, with memories modest enough that tests stay fast.
func DefaultConfig() Config {
	return Config{
		MEs:       4,
		VEs:       4,
		SRAMWords: 1 << 22, // 16 MB of floats
		HBMWords:  1 << 24, // 64 MB of floats
	}
}

// Validate checks the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.MEs < 1 || c.MEs > 16:
		return fmt.Errorf("npu: MEs %d out of range", c.MEs)
	case c.VEs < 1 || c.VEs > 16:
		return fmt.Errorf("npu: VEs %d out of range", c.VEs)
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

// Core is one NPU core: SRAM, MEs, and cycle accounting. HBM is owned by
// the Device so multiple cores can share it; a single-core test can use
// NewCore which bundles a private HBM.
type Core struct {
	Cfg  Config
	SRAM []float32
	HBM  []float32
	MEs  []*SystolicArray

	// Cycle accounting, per engine class. These are functional-simulator
	// cycles (each instruction advances time by the longest busy slot),
	// good enough for utilization demonstrations.
	Cycles   uint64
	MEBusy   []uint64
	VEBusy   []uint64
	DMACycle uint64

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
		Cfg:    cfg,
		SRAM:   make([]float32, cfg.SRAMWords),
		HBM:    make([]float32, cfg.HBMWords),
		MEs:    make([]*SystolicArray, cfg.MEs),
		MEBusy: make([]uint64, cfg.MEs),
		VEBusy: make([]uint64, cfg.VEs),
	}
	for i := range c.MEs {
		c.MEs[i] = NewSystolicArray(systolicDim)
	}
	return c, nil
}

// MEUtilization returns the mean busy fraction of the matrix engines.
func (c *Core) MEUtilization() float64 { return meanBusy(c.MEBusy, c.Cycles) }

// VEUtilization returns the mean busy fraction of the vector engines.
func (c *Core) VEUtilization() float64 { return meanBusy(c.VEBusy, c.Cycles) }

func meanBusy(busy []uint64, total uint64) float64 {
	if total == 0 || len(busy) == 0 {
		return 0
	}
	var sum uint64
	for _, b := range busy {
		sum += b
	}
	return float64(sum) / (float64(total) * float64(len(busy)))
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
