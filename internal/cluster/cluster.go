// Package cluster simulates fleet-scale vNPU churn: tenants arrive with
// allocator-sized vNPU requests, hold them for a while, and leave. It
// measures how well a placement policy (the paper's §III-C greedy
// balance vs. first-fit vs. worst-fit) sustains acceptance rate and
// fleet utilization under fragmentation pressure. The paper defers
// cluster-level orchestration to KubeVirt/Kubernetes; this package is
// the extension study showing the mapper's policy matters at that scale.
package cluster

import (
	"fmt"
	"math"
	"sync"

	"neu10/internal/arch"
	"neu10/internal/compiler"
	"neu10/internal/core"
	"neu10/internal/model"
	"neu10/internal/sim"
)

// Config parameterizes a churn simulation.
type Config struct {
	Cores  int // fleet size (single-core pNPUs)
	Core   arch.CoreConfig
	Policy core.PlacementPolicy

	// ArrivalRate is tenant arrivals per unit time; MeanLifetime the
	// exponential mean holding time. Time units are abstract.
	ArrivalRate  float64
	MeanLifetime float64
	Duration     float64
	Seed         uint64
}

// DefaultConfig is a moderately loaded 16-core fleet.
func DefaultConfig() Config {
	return Config{
		Cores:        16,
		Core:         arch.TPUv4Like(),
		Policy:       core.GreedyBalance,
		ArrivalRate:  2.0,
		MeanLifetime: 8.0,
		Duration:     500,
		Seed:         1,
	}
}

// Stats summarizes a churn run.
type Stats struct {
	Policy   core.PlacementPolicy
	Arrived  int
	Accepted int
	Rejected int
	Departed int
	// MeanEUUtil is the time-averaged fraction of fleet EUs allocated.
	MeanEUUtil float64
	// MeanStrandedEUs is the time-averaged count of free EUs sitting on
	// cores that cannot host even a small (1 ME + 1 VE) vNPU — pure
	// fragmentation waste.
	MeanStrandedEUs float64
}

// AcceptanceRate returns accepted/arrived.
func (s Stats) AcceptanceRate() float64 {
	if s.Arrived == 0 {
		return 0
	}
	return float64(s.Accepted) / float64(s.Arrived)
}

// StrandedEUs counts the free EUs sitting on cores that cannot host even
// the smallest (1 ME + 1 VE) vNPU — engines with no engine-partner or no
// free memory segment left, i.e. pure fragmentation waste. It is the
// instantaneous form of Stats.MeanStrandedEUs and is shared with the
// online serving fleet (internal/serve), which reports the same quantity
// time-averaged over a serving run.
func StrandedEUs(m *core.Mapper) int {
	stranded := 0
	for _, p := range m.PNPUs() {
		free := p.FreeMEs() + p.FreeVEs()
		if free > 0 && (p.FreeMEs() < 1 || p.FreeVEs() < 1 || p.FreeHBMSegments() < 1 || p.FreeSRAMSegments() < 1) {
			stranded += free
		}
	}
	return stranded
}

// requestCatalog builds realistic vNPU shapes: each bundled model
// profiled and sized by the Eq. 4 allocator at a sampled EU budget.
func requestCatalog(coreCfg arch.CoreConfig) ([]core.VNPUConfig, error) {
	cm := compiler.NewCostModel(coreCfg)
	alloc, err := core.NewAllocator(coreCfg)
	if err != nil {
		return nil, err
	}
	var out []core.VNPUConfig
	for _, name := range model.Names() {
		g, err := model.Build(name, 8)
		if err != nil {
			return nil, err
		}
		p := cm.ProfileGraph(g)
		for _, eus := range []int{2, 4, 6} {
			a, err := alloc.Allocate(p, g.HBMFootprint, eus)
			if err != nil {
				return nil, err
			}
			cfg := alloc.ConfigFor(a)
			if cfg.NumMEsPerCore > coreCfg.MEs || cfg.NumVEsPerCore > coreCfg.VEs {
				continue
			}
			// Cap memory so two tenants can share one pNPU's HBM.
			if cfg.MemSizePerCore > coreCfg.HBMBytes/2 {
				cfg.MemSizePerCore = coreCfg.HBMBytes / 2
			}
			out = append(out, cfg)
		}
	}
	return out, nil
}

// Run executes the churn simulation and returns the stats.
func Run(cfg Config) (*Stats, error) {
	// A NaN or infinite rate or duration never ends the arrival loop, and
	// a non-finite lifetime gives meaningless departure times. NaN fails
	// x > 0.
	positiveFinite := func(x float64) bool { return x > 0 && !math.IsInf(x, 1) }
	if cfg.Cores < 1 || !positiveFinite(cfg.ArrivalRate) || !positiveFinite(cfg.MeanLifetime) ||
		!positiveFinite(cfg.Duration) {
		return nil, fmt.Errorf("cluster: bad config %+v", cfg)
	}
	mapper, err := core.NewMapper(cfg.Cores, cfg.Core)
	if err != nil {
		return nil, err
	}
	mapper.Policy = cfg.Policy
	catalog, err := requestCatalog(cfg.Core)
	if err != nil {
		return nil, err
	}

	rng := sim.NewRNG(cfg.Seed)
	eng := sim.NewEngine()
	stats := &Stats{Policy: cfg.Policy}
	nextID := 0
	totalEUs := float64(cfg.Cores * (cfg.Core.MEs + cfg.Core.VEs))

	// Time-weighted accumulators, updated lazily at each event.
	var lastT, utilArea, strandedArea float64
	var allocatedEUs int
	snapshot := func(now float64) {
		dt := now - lastT
		utilArea += float64(allocatedEUs) / totalEUs * dt
		strandedArea += float64(StrandedEUs(mapper)) * dt
		lastT = now
	}

	// The sim engine clock is integer cycles; scale abstract time by 1e6.
	const scale = 1e6
	toTime := func(t float64) sim.Time { return sim.Time(t * scale) }

	var scheduleArrival func(at float64)
	scheduleArrival = func(at float64) {
		if at > cfg.Duration {
			return
		}
		eng.At(toTime(at), func(now sim.Time) {
			tNow := float64(now) / scale
			snapshot(tNow)
			stats.Arrived++
			// Draw every random quantity before the placement decision
			// so the trace (arrivals, shapes, lifetimes) is identical
			// across policies under the same seed.
			req := catalog[rng.Intn(len(catalog))]
			life := rng.Exp(cfg.MeanLifetime)
			gap := rng.Exp(1 / cfg.ArrivalRate)
			v := &core.VNPU{ID: nextID, Tenant: fmt.Sprintf("t%d", nextID), Config: req, State: core.StateCreated}
			nextID++
			if err := mapper.Map(v, core.SpatialIsolated); err != nil {
				stats.Rejected++
			} else {
				stats.Accepted++
				allocatedEUs += req.TotalEUs()
				eng.At(toTime(tNow+life), func(now sim.Time) {
					snapshot(float64(now) / scale)
					if err := mapper.Unmap(v); err == nil {
						stats.Departed++
						allocatedEUs -= req.TotalEUs()
					}
				})
			}
			scheduleArrival(tNow + gap)
		})
	}
	scheduleArrival(rng.Exp(1 / cfg.ArrivalRate))
	eng.Run()
	snapshot(cfg.Duration)

	if lastT > 0 {
		stats.MeanEUUtil = utilArea / cfg.Duration
		stats.MeanStrandedEUs = strandedArea / cfg.Duration
	}
	return stats, nil
}

// Compare runs the same workload trace under each policy (same seed →
// identical arrival sequence) and returns the stats side by side. The
// three runs are independent (each builds its own mapper, RNG and
// engine), so they execute concurrently; results are deterministic
// because each policy's trace depends only on the shared seed.
func Compare(base Config) (map[core.PlacementPolicy]*Stats, error) {
	pols := []core.PlacementPolicy{core.GreedyBalance, core.FirstFit, core.WorstFit}
	stats := make([]*Stats, len(pols))
	errs := make([]error, len(pols))
	var wg sync.WaitGroup
	for i, pol := range pols {
		wg.Add(1)
		go func(i int, pol core.PlacementPolicy) {
			defer wg.Done()
			cfg := base
			cfg.Policy = pol
			stats[i], errs[i] = Run(cfg)
		}(i, pol)
	}
	wg.Wait()
	out := map[core.PlacementPolicy]*Stats{}
	for i, pol := range pols {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out[pol] = stats[i]
	}
	return out, nil
}
