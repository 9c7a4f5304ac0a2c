package virt

import (
	"fmt"
	"sync"

	"neu10/internal/arch"
	"neu10/internal/core"
	"neu10/internal/npu"
)

// Hypervisor is the vNPU manager of Fig. 11: the host-side component (a
// kernel module in the paper's KVM integration) that owns the physical
// NPU inventory and services the three management hypercalls — create,
// reconfigure, deallocate. It mediates vNPU management and nothing
// else: the data path (command rings, DMA) bypasses it entirely. It is
// safe for concurrent use.
type Hypervisor struct {
	mu      sync.Mutex
	mapper  *core.Mapper
	coreCfg arch.CoreConfig // each physical core's shape
	iommu   *IOMMU
	vfs     map[int]*VF // live vNPUs by ID
	nextID  int

	// Hypercalls counts management-plane calls; the tests use it to
	// prove the §III-F property that submissions are zero-hypercall.
	Hypercalls int
}

// NewHypervisor builds a hypervisor over n single-core physical NPUs.
func NewHypervisor(n int, coreCfg arch.CoreConfig) (*Hypervisor, error) {
	mp, err := core.NewMapper(n, coreCfg)
	if err != nil {
		return nil, err
	}
	return &Hypervisor{mapper: mp, coreCfg: coreCfg, iommu: NewIOMMU(), vfs: map[int]*VF{}}, nil
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

// checkConfig validates a vNPU configuration and caps it at the
// physical core (§III-A: the maximum vNPU size is the physical NPU's;
// bigger jobs get multiple vNPU instances).
func (h *Hypervisor) checkConfig(cfg core.VNPUConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.NumMEsPerCore > h.coreCfg.MEs || cfg.NumVEsPerCore > h.coreCfg.VEs {
		return fmt.Errorf("virt: vNPU (%d MEs, %d VEs) exceeds physical core (%d, %d); allocate multiple vNPUs instead",
			cfg.NumMEsPerCore, cfg.NumVEsPerCore, h.coreCfg.MEs, h.coreCfg.VEs)
	}
	return nil
}

// newDevice builds the functional core a VF of configuration cfg runs
// its commands on.
func newDevice(cfg core.VNPUConfig) (*npu.Core, error) {
	devCfg := npu.DefaultConfig()
	devCfg.MEs = cfg.NumMEsPerCore
	devCfg.SRAMWords = int(cfg.SRAMSizePerCore / 4)
	// Cap the functional HBM model: the vNPU's logical capacity can be
	// tens of GB; the functional simulator only needs a working set.
	devCfg.HBMWords = int(min(cfg.MemSizePerCore/4, 1<<24))
	dev, err := npu.NewCore(devCfg)
	if err != nil {
		return nil, fmt.Errorf("virt: device context: %w", err)
	}
	return dev, nil
}

// HypercallCreateVNPU implements hypercall 1: allocate and map a vNPU,
// set up its device context, IOMMU domain and MMIO space, and return the
// VF. This is the only way to obtain a device.
func (h *Hypervisor) HypercallCreateVNPU(vm *GuestVM, cfg core.VNPUConfig, mode core.IsolationMode) (*VF, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.Hypercalls++
	if err := h.checkConfig(cfg); err != nil {
		return nil, err
	}
	dev, err := newDevice(cfg)
	if err != nil {
		return nil, err
	}
	v := &core.VNPU{ID: h.nextID, Tenant: vm.Name, Config: cfg, State: core.StateCreated}
	h.nextID++
	if err := h.mapper.Map(v, mode); err != nil {
		return nil, err
	}
	vf := &VF{
		VNPU:   v,
		domain: h.iommu.CreateDomain(vm),
		dev:    dev,
		ring:   NewCommandRing(defaultRingSlots),
	}
	h.vfs[v.ID] = vf
	return vf, nil
}

// HypercallReconfigureVNPU implements hypercall 2: resize a vNPU. The
// old mapping is released and the new configuration mapped; if that
// fails, the old configuration is mapped again. On success the VF's
// device is rebuilt at the new size and keeps the HBM words that fit.
func (h *Hypervisor) HypercallReconfigureVNPU(vf *VF, cfg core.VNPUConfig) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.Hypercalls++
	if err := h.checkConfig(cfg); err != nil {
		return err
	}
	v := vf.VNPU
	if _, ok := h.vfs[v.ID]; !ok {
		return fmt.Errorf("virt: VF for vNPU %d not found", v.ID)
	}
	dev, err := newDevice(cfg)
	if err != nil {
		return err
	}
	oldCfg, mode := v.Config, v.Mapping.Mode
	if err := h.mapper.Unmap(v); err != nil {
		return err
	}
	v.Config, v.State = cfg, core.StateCreated
	if err := h.mapper.Map(v, mode); err != nil {
		v.Config, v.State = oldCfg, core.StateCreated
		if rbErr := h.mapper.Map(v, mode); rbErr != nil {
			return fmt.Errorf("virt: reconfigure failed (%v) and rollback failed (%v)", err, rbErr)
		}
		return err
	}
	copy(dev.HBM, vf.dev.HBM)
	vf.dev = dev
	return nil
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
	return h.mapper.Unmap(vf.VNPU)
}

// HypercallMapDMA implements the DMA-buffer registration path (part of
// vNPU setup; the paper routes it through the para-virtualized driver).
func (h *Hypervisor) HypercallMapDMA(vf *VF, addr, words int64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.Hypercalls++
	return vf.domain.Map(addr, words)
}

// Live returns the number of active VFs.
func (h *Hypervisor) Live() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.vfs)
}
