package serve

import (
	"fmt"
	"math"

	"neu10/internal/compiler"
	"neu10/internal/core"
	"neu10/internal/metrics"
	"neu10/internal/model"
	"neu10/internal/sim"
	"neu10/internal/virt"
	"neu10/internal/workload"
	"neu10/internal/xfer"
)

// fleet is the whole serving simulation.
type fleet struct {
	cfg    Config
	eng    *sim.Engine
	costs  *CostDB
	mapper *core.Mapper
	alloc  *core.Allocator
	// fabric is the chip-to-chip interconnect KV migrations ship over;
	// non-nil iff some tenant is disaggregated.
	fabric *xfer.Fabric

	tenants   []*tenantState
	nextVNPU  int
	nextUID   int
	durCycles float64

	// faulted gates every chaos-only report field and counter, so
	// fault-free runs render byte-identically to before; fwStart is the
	// fault window's opening edge (first scheduled event), in cycles.
	faulted bool
	fwStart float64

	// prioEnabled: any share group, non-default priority, or Preempt —
	// gates the per-priority report section so priority-unaware configs
	// render exactly as before.
	prioEnabled bool
	// preemptBudget is the aging-credit allowance in cycles:
	// MaxPreemptsPerBatch × PreemptQuantumCycles of victimization delay
	// per batch.
	preemptBudget float64
	prioLat       [numPriorities]metrics.Latencies
	switches      virt.SwitchLedger

	// time-weighted fleet accounting (lazy snapshots, like internal/cluster)
	lastSnap      float64
	allocatedEUs  int
	allocArea     float64
	strandArea    float64
	busySum       float64 // busyEUCycles of retired replicas
	mapAccepts    int
	mapRejects    int
	routeScratch  []*replica
	routeScratch2 []*replica
	batchFree     []*batch // recycled batch instances (zero-alloc steady state)

	// obs is the run's observability sink: tracer, timelines and
	// attribution ledger behind one set of nil-receiver-safe lifecycle
	// methods. Nil (the default) disables all three, and every hook site
	// is one unguarded call whose only cost is a nil test in the callee
	// (see obs.go).
	obs *obsState

	// costErr is the run's first costing failure (see costFailed); Run
	// returns it in place of a report.
	costErr error
}

// costFailed turns a launch's costing error into the run's error: it
// keeps the first one and halts the engine once the current event
// returns. Entries are measured on first use, so a shape that cannot be
// compiled or simulated surfaces here. The launch still starts, at the
// zero cycles the failed lookup returned, so slot state stays
// consistent until the halt; its completion never runs.
func (f *fleet) costFailed(what string, err error) {
	if err == nil {
		return
	}
	if f.costErr == nil {
		f.costErr = fmt.Errorf("serve: costing %s: %w", what, err)
	}
	f.eng.Halt()
}

// newFleet validates the config and builds the fully initialized fleet
// — tenants, share groups, initial replicas, SLOs and rates — without
// scheduling any traffic, so tests can drive autoscaler and routing
// paths directly.
func newFleet(cfg Config, db *CostDB) (*fleet, error) {
	cfg.defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if db == nil || db.Core() != cfg.Core {
		db = NewCostDB(cfg.Core)
	}
	mapper, err := core.NewMapper(cfg.Cores, cfg.Core)
	if err != nil {
		return nil, err
	}
	mapper.Policy = cfg.Placement
	alloc, err := core.NewAllocator(cfg.Core)
	if err != nil {
		return nil, err
	}
	f := &fleet{
		cfg:           cfg,
		eng:           sim.NewEngine(),
		costs:         db,
		mapper:        mapper,
		alloc:         alloc,
		durCycles:     cfg.DurationSec * cfg.Core.FrequencyHz,
		preemptBudget: float64(cfg.MaxPreemptsPerBatch) * cfg.PreemptQuantumCycles,
	}
	if cfg.Faults != nil && len(cfg.Faults.Events) > 0 {
		f.faulted = true
		f.fwStart = math.Inf(1)
		for _, e := range cfg.Faults.Events {
			if at := e.AtFrac * f.durCycles; at < f.fwStart {
				f.fwStart = at
			}
		}
	}
	f.obs = newObsState(cfg.Obs, cfg.Scenario, cfg.Core.FrequencyHz, len(cfg.Tenants))
	cm := compiler.NewCostModel(cfg.Core)
	// Phase 1: build every tenant, so share groups can be resolved
	// before any slot (whose queues span the whole group) is spawned.
	for i := range cfg.Tenants {
		t := &tenantState{cfg: cfg.Tenants[i], idx: i}
		t.cfg.defaults()
		if err := t.cfg.validate(); err != nil {
			return nil, err
		}
		g, err := model.Build(t.cfg.Model, PadBatch(t.cfg.MaxBatch))
		if err != nil {
			return nil, fmt.Errorf("serve: tenant %s: %w", t.cfg.Name, err)
		}
		t.profile = cm.ProfileGraph(g)
		t.footprint = g.HBMFootprint
		t.curEUs = t.cfg.EUs
		t.arrRNG = sim.NewRNG(cfg.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
		t.routeRNG = sim.NewRNG(cfg.Seed ^ (uint64(i)+1)*0xbf58476d1ce4e5b9)
		t.replicaTL = metrics.NewTimeSeries(t.cfg.Name+"/replicas", 4096)
		if t.cfg.LLM != nil {
			t.llm = &llmTenant{rng: sim.NewRNG(cfg.Seed ^ (uint64(i)+1)*0x94d049bb133111eb)}
			if t.cfg.LLM.Trace.Sessions > 0 {
				t.llm.sess = workload.NewSessionState(t.cfg.LLM.Trace)
			}
		}
		t.batcher = newBatcher(f, t)
		f.tenants = append(f.tenants, t)
		if t.cfg.ShareGroup != "" || t.cfg.Priority != Batch {
			f.prioEnabled = true
		}
	}
	if cfg.Preempt {
		f.prioEnabled = true
	}
	for _, t := range f.tenants {
		for _, p := range f.tenants { // tenant-index order: deterministic
			if p == t || (t.cfg.ShareGroup != "" && p.cfg.ShareGroup == t.cfg.ShareGroup) {
				t.peers = append(t.peers, p)
			}
		}
	}
	// LLM peers in one share group draw from one shared KV partition per
	// slot, so their block granularity and capacity override must agree
	// — silently mixing them would misattribute every occupancy number.
	for _, t := range f.tenants {
		if t.llm == nil {
			continue
		}
		for _, p := range t.peers {
			if p.llm == nil || p == t {
				continue
			}
			if p.cfg.LLM.BlockTokens != t.cfg.LLM.BlockTokens ||
				p.cfg.LLM.KVCapTokens != t.cfg.LLM.KVCapTokens ||
				p.cfg.LLM.KVPolicy != t.cfg.LLM.KVPolicy {
				return nil, fmt.Errorf("serve: share group %q: tenants %s and %s disagree on KV settings (blocks %d/%d tokens, cap %d/%d, policy %q/%q)",
					t.cfg.ShareGroup, t.cfg.Name, p.cfg.Name,
					t.cfg.LLM.BlockTokens, p.cfg.LLM.BlockTokens,
					t.cfg.LLM.KVCapTokens, p.cfg.LLM.KVCapTokens,
					t.cfg.LLM.KVPolicy, p.cfg.LLM.KVPolicy)
			}
		}
	}
	// The interconnect exists as soon as any tenant is disaggregated;
	// per-pair links instantiate lazily on first migration.
	for _, t := range f.tenants {
		if t.disagg() != nil {
			bwPerCycle := cfg.LinkGBps * 1e9 / cfg.Core.FrequencyHz
			latency := cfg.LinkLatencyUs * 1e-6 * cfg.Core.FrequencyHz
			fab, err := xfer.NewFabric(f.eng, bwPerCycle, latency)
			if err != nil {
				return nil, err
			}
			f.fabric = fab
			break
		}
	}
	// Phase 2: spawn initial replicas and derive SLOs and offered rates
	// from the measured full-batch service time of one fresh replica.
	for _, t := range f.tenants {
		if d := t.disagg(); d != nil {
			for k := 0; k < d.PrefillReplicas; k++ {
				if err := f.spawnReplica(t, t.curEUs, RolePrefill); err != nil {
					return nil, fmt.Errorf("serve: tenant %s initial prefill replica %d: %w", t.cfg.Name, k, err)
				}
			}
			for k := 0; k < d.DecodeReplicas; k++ {
				if err := f.spawnReplica(t, t.curEUs, RoleDecode); err != nil {
					return nil, fmt.Errorf("serve: tenant %s initial decode replica %d: %w", t.cfg.Name, k, err)
				}
			}
		} else {
			for k := 0; k < t.cfg.InitialReplicas; k++ {
				if err := f.spawnReplica(t, t.curEUs, RoleMixed); err != nil {
					return nil, fmt.Errorf("serve: tenant %s initial replica %d: %w", t.cfg.Name, k, err)
				}
			}
		}
		// Warm spares: extra capacity standing by before the first fault
		// (per pool for disaggregated tenants). Best-effort — a fleet too
		// small for its spares records the misses and serves anyway.
		for k := 0; k < f.warmSpares(); k++ {
			roles := []Role{RoleMixed}
			if t.disagg() != nil {
				roles = []Role{RolePrefill, RoleDecode}
			}
			for _, role := range roles {
				if err := f.spawnReplica(t, t.curEUs, role); err != nil {
					t.scaleFails++
				}
			}
		}
		r0 := t.replicas[0]
		var full float64
		var err error
		// sloAnchor is the per-request service-time anchor the derived
		// SLO multiplies; it equals `full` (the compute anchor capacity
		// is derived from) except for disaggregated tenants, whose
		// requests additionally wait out a KV migration.
		var sloAnchor float64
		if t.llm != nil {
			// An LLM request's ideal service is a full-batch generation of
			// the MEAN shape: one prefill plus output−1 decode iterations,
			// all at MaxBatch occupancy — the SLO/capacity anchor playing
			// the role the whole-model full-batch time plays below.
			tr := t.cfg.LLM.Trace
			pre, perr := db.LLMCycles(PhasePrefill, t.cfg.MaxBatch, tr.MeanPrompt(), r0.nm, r0.nv)
			if perr != nil {
				return nil, perr
			}
			dec, derr := db.LLMCycles(PhaseDecode, t.cfg.MaxBatch, tr.MeanPrompt()+tr.OutputMean, r0.nm, r0.nv)
			if derr != nil {
				return nil, derr
			}
			full = pre + float64(tr.OutputMean-1)*dec
			sloAnchor = full
			if t.disagg() != nil {
				// The mean KV migration (bandwidth + latency) prices into
				// the LATENCY anchor only: a pipelined handoff delays each
				// request without consuming compute, so throughput — and
				// therefore the Load→rate conversion, which must match the
				// colocated baseline at equal Load — excludes it. The
				// per-pool autoscalers get per-phase objectives from the
				// same measurements.
				sloAnchor += float64(model.LLMKVTransferBytes(tr.MeanPrompt()))/(cfg.LinkGBps*1e9/cfg.Core.FrequencyHz) +
					cfg.LinkLatencyUs*1e-6*cfg.Core.FrequencyHz
				t.prefillSLO = t.cfg.SLOFactor * pre
				t.tpotSLO = t.cfg.SLOFactor * dec
			}
		} else {
			full, err = db.ServiceCycles(t.cfg.Model, t.cfg.MaxBatch, r0.nm, r0.nv)
			if err != nil {
				return nil, err
			}
			sloAnchor = full
		}
		if t.cfg.SLOMs > 0 {
			t.sloCycles = t.cfg.SLOMs / 1e3 * cfg.Core.FrequencyHz
		} else {
			t.sloCycles = t.cfg.SLOFactor * sloAnchor
			t.cfg.SLOMs = t.sloCycles / cfg.Core.FrequencyHz * 1e3
		}
		if t.cfg.BatchWindowMs > 0 {
			t.batchWindow = t.cfg.BatchWindowMs / 1e3 * cfg.Core.FrequencyHz
		} else {
			// Never burn more than a tenth of the latency budget waiting
			// for batchmates.
			t.batchWindow = t.sloCycles / 10
		}
		t.capacityRPS = float64(t.cfg.MaxBatch) / (full / cfg.Core.FrequencyHz)
		rps := t.cfg.RatePerSec
		if rps <= 0 {
			chips := t.cfg.InitialReplicas
			if d := t.disagg(); d != nil {
				// Load is offered against the whole disaggregated footprint,
				// so colocated-vs-disagg comparisons at matched chip counts
				// and equal Load see the same offered rate.
				chips = d.PrefillReplicas + d.DecodeReplicas
			}
			rps = t.cfg.Load * float64(chips) * t.capacityRPS
		}
		t.basePerCycle = rps / cfg.Core.FrequencyHz
		t.peakMult = 1
		if t.cfg.Arrival == Flash {
			t.peakMult = t.cfg.BurstFactor
		} else if t.cfg.Arrival == Diurnal {
			t.peakMult = 1 + t.cfg.DiurnalDepth
		}
	}
	return f, nil
}
