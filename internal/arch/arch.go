// Package arch holds the shared hardware description of an NPU core —
// the paper's Table II configuration — consumed by the compiler's cost
// model, the vNPU allocator, and the performance simulator. Keeping it in
// one place guarantees that "a cycle" means the same thing everywhere.
package arch

import (
	"fmt"
	"math"
)

// CoreConfig describes one physical NPU core.
type CoreConfig struct {
	MEs         int     // matrix engines per core
	VEs         int     // vector engines per core
	SystolicDim int     // ME systolic array is SystolicDim×SystolicDim
	VELanes     int     // VE lane count (vector width)
	VESublanes  int     // VE sublanes: VELanes×VESublanes FP32 ops/cycle
	FrequencyHz float64 // core clock
	SRAMBytes   int64   // on-chip SRAM
	HBMBytes    int64   // HBM capacity behind this core
	HBMBwBytes  float64 // HBM bandwidth, bytes/second

	// MEPreemptCycles is the context-switch penalty to reclaim a harvested
	// ME: pop the partial sums (SystolicDim cycles) plus pop the weights
	// (SystolicDim cycles) of the preempted µTOp (paper §III-G).
	MEPreemptCycles int
}

// TPUv4Like returns the paper's Table II configuration:
// 4 MEs & 4 VEs, 128×128 systolic arrays, 128×8 FP32/cycle VEs, 1050 MHz,
// 128 MB SRAM, 64 GB HBM at 1200 GB/s.
func TPUv4Like() CoreConfig {
	return CoreConfig{
		MEs:             4,
		VEs:             4,
		SystolicDim:     128,
		VELanes:         128,
		VESublanes:      8,
		FrequencyHz:     1.05e9,
		SRAMBytes:       128 << 20,
		HBMBytes:        64 << 30,
		HBMBwBytes:      1200e9,
		MEPreemptCycles: 256,
	}
}

// Validate checks the configuration.
func (c CoreConfig) Validate() error {
	switch {
	case c.MEs < 1 || c.MEs > 64:
		return fmt.Errorf("arch: MEs %d out of range", c.MEs)
	case c.VEs < 1 || c.VEs > 64:
		return fmt.Errorf("arch: VEs %d out of range", c.VEs)
	case c.SystolicDim < 8:
		return fmt.Errorf("arch: systolic dim %d too small", c.SystolicDim)
	case c.VELanes < 8 || c.VESublanes < 1:
		return fmt.Errorf("arch: VE %dx%d malformed", c.VELanes, c.VESublanes)
	case !positiveFinite(c.FrequencyHz):
		return fmt.Errorf("arch: frequency %v not positive and finite", c.FrequencyHz)
	case c.SRAMBytes <= 0 || c.HBMBytes <= 0:
		return fmt.Errorf("arch: non-positive memory sizes")
	case !positiveFinite(c.HBMBwBytes):
		return fmt.Errorf("arch: HBM bandwidth %v not positive and finite", c.HBMBwBytes)
	case c.MEPreemptCycles < 0:
		return fmt.Errorf("arch: negative preemption cost")
	}
	return nil
}

// positiveFinite reports whether x is above zero and below +Inf; NaN
// is neither.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// MEMACsPerCycle returns multiply-accumulates one ME retires per cycle.
func (c CoreConfig) MEMACsPerCycle() float64 {
	return float64(c.SystolicDim) * float64(c.SystolicDim)
}

// VEOpsPerCycle returns FP32 lane-operations one VE retires per cycle.
func (c CoreConfig) VEOpsPerCycle() float64 {
	return float64(c.VELanes) * float64(c.VESublanes)
}

// HBMBytesPerCycle converts HBM bandwidth into bytes per core cycle.
func (c CoreConfig) HBMBytesPerCycle() float64 { return c.HBMBwBytes / c.FrequencyHz }

// CyclesToSeconds converts a cycle count to wall-clock seconds.
func (c CoreConfig) CyclesToSeconds(cycles uint64) float64 {
	return float64(cycles) / c.FrequencyHz
}

// WithEUs returns a copy with the given engine counts — used by the
// Fig. 25 scaling sweep (2ME-2VE … 8ME-8VE).
func (c CoreConfig) WithEUs(mes, ves int) CoreConfig {
	c.MEs, c.VEs = mes, ves
	return c
}

// WithHBMBandwidth returns a copy with the given bandwidth in bytes/s —
// used by the Fig. 26 bandwidth sweep (900 GB/s … 3 TB/s).
func (c CoreConfig) WithHBMBandwidth(bw float64) CoreConfig {
	c.HBMBwBytes = bw
	return c
}
