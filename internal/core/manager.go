package core

import (
	"fmt"
	"sync"

	"neu10/internal/arch"
)

// Manager is the vNPU manager of Fig. 11: the host-side component (a
// kernel module in the paper's KVM integration) that owns the physical
// NPU inventory and services the three management hypercalls — create,
// reconfigure, deallocate. It is safe for concurrent use; the data-path
// (command buffers, DMA) deliberately bypasses it, matching the paper's
// "hypervisor only mediates functions off the critical path".
type Manager struct {
	mu     sync.Mutex
	mapper *Mapper
	core   arch.CoreConfig
	vnpus  map[int]*VNPU
	nextID int
}

// NewManager builds a manager over n physical cores.
func NewManager(n int, core arch.CoreConfig) (*Manager, error) {
	mp, err := NewMapper(n, core)
	if err != nil {
		return nil, err
	}
	return &Manager{mapper: mp, core: core, vnpus: map[int]*VNPU{}}, nil
}

// Create allocates and maps a new vNPU for a tenant.
func (m *Manager) Create(tenant string, cfg VNPUConfig, mode IsolationMode) (*VNPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.NumMEsPerCore > m.core.MEs || cfg.NumVEsPerCore > m.core.VEs {
		// Paper §III-A: the maximum vNPU size is capped by the physical
		// NPU; bigger jobs get multiple vNPU instances.
		return nil, fmt.Errorf("core: vNPU (%d MEs, %d VEs) exceeds physical core (%d, %d); allocate multiple vNPUs instead",
			cfg.NumMEsPerCore, cfg.NumVEsPerCore, m.core.MEs, m.core.VEs)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	v := &VNPU{ID: m.nextID, Tenant: tenant, Config: cfg, State: StateCreated}
	m.nextID++
	if err := m.mapper.Map(v, mode); err != nil {
		return nil, err
	}
	m.vnpus[v.ID] = v
	return v, nil
}

// Get looks up a vNPU by ID.
func (m *Manager) Get(id int) (*VNPU, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.vnpus[id]
	if !ok {
		return nil, fmt.Errorf("core: no vNPU %d", id)
	}
	return v, nil
}

// Reconfigure resizes an existing vNPU (hypercall 2 of §III-F): the old
// mapping is released and the new configuration mapped atomically —
// failure restores the original binding.
func (m *Manager) Reconfigure(id int, cfg VNPUConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.vnpus[id]
	if !ok {
		return fmt.Errorf("core: no vNPU %d", id)
	}
	oldCfg, oldMode := v.Config, v.Mapping.Mode
	if err := m.mapper.Unmap(v); err != nil {
		return err
	}
	v.Config = cfg
	v.State = StateCreated
	if err := m.mapper.Map(v, oldMode); err != nil {
		// Roll back.
		v.Config = oldCfg
		v.State = StateCreated
		if rbErr := m.mapper.Map(v, oldMode); rbErr != nil {
			return fmt.Errorf("core: reconfigure failed (%v) and rollback failed (%v)", err, rbErr)
		}
		return err
	}
	return nil
}

// Free deallocates a vNPU (hypercall 3): context cleanup + DMA teardown.
func (m *Manager) Free(id int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.vnpus[id]
	if !ok {
		return fmt.Errorf("core: no vNPU %d", id)
	}
	if err := m.mapper.Unmap(v); err != nil {
		return err
	}
	delete(m.vnpus, id)
	return nil
}

// Live returns the number of live vNPUs.
func (m *Manager) Live() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.vnpus)
}
