package virt

import (
	"fmt"
	"sync"

	"neu10/internal/arch"
	"neu10/internal/core"
	"neu10/internal/npu"
)

// Hypervisor mediates vNPU management (and nothing else). It owns the
// vNPU manager (a host kernel module in the paper) and the physical
// device inventory; the data path bypasses it entirely.
type Hypervisor struct {
	mu    sync.Mutex
	mgr   *core.Manager
	iommu *IOMMU
	vfs   map[int]*VF

	// Hypercalls counts management-plane calls; the tests use it to
	// prove the §III-F property that submissions are zero-hypercall.
	Hypercalls int
}

// NewHypervisor builds a hypervisor over n single-core physical NPUs.
func NewHypervisor(n int, coreCfg arch.CoreConfig) (*Hypervisor, error) {
	mgr, err := core.NewManager(n, coreCfg)
	if err != nil {
		return nil, err
	}
	return &Hypervisor{mgr: mgr, iommu: NewIOMMU(), vfs: map[int]*VF{}}, nil
}

// MMIORegs is the vNPU's memory-mapped register file, accessed by the
// guest through PCIe BAR mappings (modeled as direct struct access; the
// point is which operations go through it versus through hypercalls).
type MMIORegs struct {
	Status      uint32 // 0 idle, 1 busy, 2 error
	Doorbell    uint32 // write-to-kick
	Completions uint64 // commands retired
	ErrorCode   uint32
}

// Status values.
const (
	StatusIdle  = 0
	StatusBusy  = 1
	StatusError = 2
)

// VF is an SR-IOV virtual function: the guest-visible PCIe device for
// one vNPU. It bundles the vNPU mapping, a private functional core view
// sized to the vNPU's configuration, the MMIO registers, and the IOMMU
// domain for its DMA.
type VF struct {
	VNPU   *core.VNPU
	MMIO   MMIORegs
	domain *IOMMUDomain
	dev    *npu.Core
	ring   *CommandRing
	// OnCompletion, when set, is invoked after each retired command —
	// the interrupt path (the guest may instead poll MMIO.Completions).
	OnCompletion func(seq uint64)
}

// HypercallCreateVNPU implements hypercall 1: allocate and map a vNPU,
// set up its device context, IOMMU domain and MMIO space, and return the
// VF. This is the only way to obtain a device.
func (h *Hypervisor) HypercallCreateVNPU(vm *GuestVM, cfg core.VNPUConfig, mode core.IsolationMode) (*VF, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.Hypercalls++
	v, err := h.mgr.Create(vm.Name, cfg, mode)
	if err != nil {
		return nil, err
	}
	devCfg := npu.DefaultConfig()
	devCfg.MEs = cfg.NumMEsPerCore
	devCfg.SRAMWords = int(cfg.SRAMSizePerCore / 4)
	// Cap the functional HBM model: the vNPU's logical capacity can be
	// tens of GB; the functional simulator only needs a working set.
	hbmWords := cfg.MemSizePerCore / 4
	if hbmWords > 1<<24 {
		hbmWords = 1 << 24
	}
	devCfg.HBMWords = int(hbmWords)
	dev, err := npu.NewCore(devCfg)
	if err != nil {
		_ = h.mgr.Free(v.ID)
		return nil, fmt.Errorf("virt: device context: %w", err)
	}
	vf := &VF{
		VNPU:   v,
		domain: h.iommu.CreateDomain(vm),
		dev:    dev,
	}
	vf.ring = NewCommandRing(defaultRingSlots)
	h.vfs[v.ID] = vf
	return vf, nil
}

// HypercallReconfigureVNPU implements hypercall 2: resize a vNPU.
func (h *Hypervisor) HypercallReconfigureVNPU(vf *VF, cfg core.VNPUConfig) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.Hypercalls++
	return h.mgr.Reconfigure(vf.VNPU.ID, cfg)
}

// HypercallFreeVNPU implements hypercall 3: tear down the vNPU context,
// DMA mappings and VF.
func (h *Hypervisor) HypercallFreeVNPU(vf *VF) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.Hypercalls++
	if _, ok := h.vfs[vf.VNPU.ID]; !ok {
		return fmt.Errorf("virt: VF for vNPU %d not found", vf.VNPU.ID)
	}
	h.iommu.DestroyDomain(vf.domain)
	delete(h.vfs, vf.VNPU.ID)
	return h.mgr.Free(vf.VNPU.ID)
}

// HypercallMapDMA implements the DMA-buffer registration path (part of
// vNPU setup; the paper routes it through the para-virtualized driver).
func (h *Hypervisor) HypercallMapDMA(vf *VF, addr, words int64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.Hypercalls++
	return vf.domain.Map(addr, words)
}

// Manager exposes the underlying vNPU manager (inspection / tooling).
func (h *Hypervisor) Manager() *core.Manager { return h.mgr }

// Live returns the number of active VFs.
func (h *Hypervisor) Live() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.vfs)
}
