// Package core implements the paper's primary contribution: the vNPU
// abstraction (§III-A), the vNPU resource allocator built on the
// Amdahl-style utilization model of §III-B (Eq. 1–4), and the
// vNPU-to-pNPU mapper (§III-C) with segment-based memory isolation.
package core

import "fmt"

// VNPUConfig mirrors the paper's Fig. 10 struct vNPU_Config: the
// user-visible shape of a virtual NPU, following the hierarchy of a
// physical board.
type VNPUConfig struct {
	NumChips        int
	NumCoresPerChip int
	NumMEsPerCore   int
	NumVEsPerCore   int
	SRAMSizePerCore int64 // bytes
	MemSizePerCore  int64 // HBM bytes
}

// Validate checks the configuration is sane (positive everywhere).
func (c VNPUConfig) Validate() error {
	switch {
	case c.NumChips < 1:
		return fmt.Errorf("core: vNPU needs ≥1 chip, got %d", c.NumChips)
	case c.NumCoresPerChip < 1:
		return fmt.Errorf("core: vNPU needs ≥1 core/chip, got %d", c.NumCoresPerChip)
	case c.NumMEsPerCore < 1:
		// Paper §III-B: every vNPU has at least one ME and one VE.
		return fmt.Errorf("core: vNPU needs ≥1 ME/core, got %d", c.NumMEsPerCore)
	case c.NumVEsPerCore < 1:
		return fmt.Errorf("core: vNPU needs ≥1 VE/core, got %d", c.NumVEsPerCore)
	case c.SRAMSizePerCore <= 0:
		return fmt.Errorf("core: vNPU needs SRAM, got %d", c.SRAMSizePerCore)
	case c.MemSizePerCore <= 0:
		return fmt.Errorf("core: vNPU needs HBM, got %d", c.MemSizePerCore)
	}
	return nil
}

// TotalEUs returns execution units per core — the pay-as-you-go cost unit
// users actually reason about (§III-B).
func (c VNPUConfig) TotalEUs() int { return c.NumMEsPerCore + c.NumVEsPerCore }

// State tracks a vNPU through its lifecycle (§III-A).
type State int

const (
	StateCreated State = iota // configured, not yet mapped to hardware
	StateMapped               // bound to pNPU resources, context installed
	StateRunning              // guest has issued work
	StateFreed                // deallocated; context destroyed
)

func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateMapped:
		return "mapped"
	case StateRunning:
		return "running"
	case StateFreed:
		return "freed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// VNPU is one virtual NPU instance.
type VNPU struct {
	ID     int
	Tenant string
	Config VNPUConfig
	State  State

	// Mapping holds the physical binding once mapped.
	Mapping *Mapping
}

// IsolationMode selects how a vNPU shares physical engines (§III-C).
type IsolationMode int

const (
	// SpatialIsolated maps the vNPU to dedicated EUs (hardware-isolated);
	// harvesting may still borrow idle cycles without ownership transfer.
	SpatialIsolated IsolationMode = iota
	// TemporalShared time-multiplexes EUs among vNPUs (software-isolated),
	// allowing oversubscription.
	TemporalShared
)

func (m IsolationMode) String() string {
	if m == SpatialIsolated {
		return "spatial-isolated"
	}
	return "temporal-shared"
}
