package serve

import (
	"fmt"
	"math"
	"strings"

	"neu10/internal/arch"
)

// Role specializes a replica slot in a disaggregated LLM fleet. The
// zero value keeps the colocated behavior: a mixed slot runs whatever
// its tenant's batcher hands it.
type Role int

const (
	// RoleMixed serves every work kind — the colocated default.
	RoleMixed Role = iota
	// RolePrefill only runs prompt processing; arrivals of a
	// disaggregated tenant route exclusively here, and finished prompts
	// migrate their KV to a decode slot over the interconnect.
	RolePrefill
	// RoleDecode only runs decode iterations over sequences whose KV a
	// migration has landed; it never sees a prefill, so decode TPOT is
	// isolated from prompt bursts by construction.
	RoleDecode
)

func (r Role) String() string {
	switch r {
	case RoleMixed:
		return "mixed"
	case RolePrefill:
		return "prefill"
	case RoleDecode:
		return "decode"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// RouterPolicy selects how the SLO-aware router spreads a tenant's
// admitted requests across its replicas.
type RouterPolicy int

const (
	// LeastLoaded picks the replica with the fewest outstanding requests
	// (queued + in service); ties break toward the older replica.
	LeastLoaded RouterPolicy = iota
	// JSQ (join-shortest-queue) considers only the wait queue, ignoring
	// the batch currently in service.
	JSQ
	// PowerOfTwo samples two distinct replicas uniformly and joins the
	// less loaded — the classic O(1) approximation of least-loaded.
	PowerOfTwo
)

func (p RouterPolicy) String() string {
	switch p {
	case LeastLoaded:
		return "least-loaded"
	case JSQ:
		return "jsq"
	case PowerOfTwo:
		return "power-of-two"
	default:
		return fmt.Sprintf("router(%d)", int(p))
	}
}

// Priority is a request priority class. Every request carries its
// tenant's priority; on temporal-shared replica slots (see
// TenantConfig.ShareGroup) a higher-priority batch preempts an
// in-flight lower-priority one at a µTOp-quantum boundary when
// Config.Preempt is set.
type Priority int

const (
	// Batch is the background class: throughput-oriented work that
	// tolerates preemption (the zero value, so priority-unaware configs
	// keep their old behavior).
	Batch Priority = iota
	// Interactive is the latency-sensitive class: its batches preempt
	// Batch work on shared slots.
	Interactive
)

// numPriorities sizes per-class accounting arrays.
const numPriorities = int(Interactive) + 1

func (p Priority) String() string {
	switch p {
	case Batch:
		return "batch"
	case Interactive:
		return "interactive"
	default:
		return fmt.Sprintf("priority(%d)", int(p))
	}
}

// ArrivalKind selects a tenant's open-loop arrival process. All three
// are Poisson processes thinned from a deterministic rate envelope, so
// the trace depends only on the seed.
type ArrivalKind int

const (
	// Poisson is a homogeneous Poisson stream at the base rate.
	Poisson ArrivalKind = iota
	// Flash is Poisson with the rate multiplied by flashFactor inside
	// the [flashStart, flashEnd) window of the run — a flash crowd.
	Flash
	// Diurnal modulates the rate sinusoidally with one period spanning
	// the run: base·(1 + diurnalDepth·sin(...)), the shape of a
	// day/night traffic trace.
	Diurnal
)

// The Flash and Diurnal rate envelopes: a 5× burst over [0.35, 0.65)
// of the run, and a swing of ±0.7 around the base rate.
const (
	flashFactor          = 5
	flashStart, flashEnd = 0.35, 0.65
	diurnalDepth         = 0.7
)

func (k ArrivalKind) String() string {
	switch k {
	case Poisson:
		return "poisson"
	case Flash:
		return "flash"
	case Diurnal:
		return "diurnal"
	default:
		return fmt.Sprintf("arrival(%d)", int(k))
	}
}

// TenantConfig describes one served tenant: its model, traffic, SLO and
// scaling envelope.
type TenantConfig struct {
	Name  string
	Model string // one of model.Names()

	// Load is the offered load as a fraction of the initial fleet's
	// max-batch service capacity; RatePerSec overrides it when > 0.
	Load       float64
	RatePerSec float64

	Arrival      ArrivalKind
	DiurnalPhase float64 // Diurnal: phase offset in radians

	// SLOMs is the per-request latency objective in milliseconds; when 0
	// it is derived as SLOFactor × the ideal full-batch service time on
	// one replica (default factor 3). A forming batch waits at most a
	// tenth of it for batchmates.
	SLOMs     float64
	SLOFactor float64

	MaxBatch int // dynamic batcher cap (default 8)
	QueueCap int // per-replica admission bound (default 64)

	// EUs is the per-replica execution-unit budget handed to the §III-B
	// allocator (default 4). The autoscaler may grow it in steps of 2 up
	// to what fits one physical core, and shrink it back.
	EUs             int
	InitialReplicas int // default 1
	MaxReplicas     int // default InitialReplicas

	// Priority is the class every request of this tenant carries
	// (default Batch). It only matters on temporal-shared slots.
	Priority Priority
	// ShareGroup names a temporal-sharing pool: tenants with the same
	// non-empty group pool ALL their replicas — any member's requests
	// may be served by any slot in the pool, each slot keeping one wait
	// queue per member. Empty (the default) keeps replicas private to
	// their tenant, exactly the pre-priority behavior.
	ShareGroup string

	// LLM, when non-nil, makes the tenant autoregressive: requests draw
	// a prompt/output shape, replicas carve a KV-cache partition out of
	// their vNPU HBM, and the slot runs a continuous (or, for the
	// baseline, static) batcher over generation iterations — see llm.go.
	LLM *LLMConfig
}

func (tc *TenantConfig) defaults() {
	if tc.SLOFactor == 0 {
		tc.SLOFactor = 3
	}
	if tc.MaxBatch == 0 {
		tc.MaxBatch = 8
	}
	if tc.QueueCap == 0 {
		tc.QueueCap = 64
	}
	if tc.EUs == 0 {
		tc.EUs = 4
	}
	if tc.InitialReplicas == 0 {
		tc.InitialReplicas = 1
	}
	if tc.MaxReplicas == 0 {
		tc.MaxReplicas = tc.InitialReplicas
	}
	if tc.LLM != nil {
		// Clone before defaulting, as Config.defaults does for ObsConfig:
		// one LLMConfig may serve several runs at once, and each run must
		// default its own copy.
		llm := *tc.LLM
		llm.defaults()
		tc.LLM = &llm
	}
}

func (tc *TenantConfig) validate() error {
	if tc.Name == "" {
		return fmt.Errorf("serve: tenant without a name")
	}
	if err := checkFinite("tenant "+tc.Name,
		"Load RatePerSec DiurnalPhase SLOMs SLOFactor",
		tc.Load, tc.RatePerSec, tc.DiurnalPhase, tc.SLOMs, tc.SLOFactor); err != nil {
		return err
	}
	switch {
	case tc.Load < 0 || tc.RatePerSec < 0:
		return fmt.Errorf("serve: tenant %s load %v, rate %v per second", tc.Name, tc.Load, tc.RatePerSec)
	case tc.Load <= 0 && tc.RatePerSec <= 0:
		return fmt.Errorf("serve: tenant %s has no offered load", tc.Name)
	case tc.SLOMs < 0 || tc.SLOFactor <= 0:
		return fmt.Errorf("serve: tenant %s SLO %v ms, SLO factor %v", tc.Name, tc.SLOMs, tc.SLOFactor)
	case tc.InitialReplicas < 1 || tc.MaxReplicas < tc.InitialReplicas:
		return fmt.Errorf("serve: tenant %s replica bounds 1 ≤ %d ≤ %d malformed",
			tc.Name, tc.InitialReplicas, tc.MaxReplicas)
	case tc.QueueCap < 1:
		return fmt.Errorf("serve: tenant %s queue cap %d", tc.Name, tc.QueueCap)
	case tc.MaxBatch < 1:
		return fmt.Errorf("serve: tenant %s max batch %d", tc.Name, tc.MaxBatch)
	case tc.EUs < 2:
		return fmt.Errorf("serve: tenant %s EU budget %d < 2 (1 ME + 1 VE)", tc.Name, tc.EUs)
	case tc.Priority < Batch || tc.Priority > Interactive:
		return fmt.Errorf("serve: tenant %s priority %d unknown", tc.Name, tc.Priority)
	}
	if tc.LLM != nil {
		if err := tc.LLM.validate(tc.Name); err != nil {
			return err
		}
		// Disaggregated pools are private by construction: a prefill or
		// decode slot serves exactly one tenant's one phase, which is the
		// whole point — temporal sharing would reintroduce the
		// interference disaggregation removes.
		if tc.LLM.Disagg != nil && tc.ShareGroup != "" {
			return fmt.Errorf("serve: tenant %s: disaggregation and share groups are mutually exclusive", tc.Name)
		}
		// The paged backend's evictor must own every resident sequence's
		// lifecycle; a share-group peer's suspended batch could hold live
		// references to sequences the evictor wants to reclaim.
		if tc.LLM.KVPolicy == KVPaged && tc.ShareGroup != "" {
			return fmt.Errorf("serve: tenant %s: paged KV and share groups are mutually exclusive", tc.Name)
		}
	}
	return nil
}

// linkLatencyUs is the per-transfer latency, in microseconds, of the
// chip-to-chip fabric and of each replica's NPU↔host swap link.
const linkLatencyUs = 2

// Config parameterizes one serving run.
type Config struct {
	Scenario string // label carried into the report
	Core     arch.CoreConfig
	Cores    int // pNPU fleet size (single-core pNPUs, like internal/cluster)

	Router RouterPolicy

	DurationSec float64
	Seed        uint64

	// Autoscale enables the control loop; when false the fleet stays at
	// each tenant's InitialReplicas — the no-autoscale baseline.
	Autoscale bool
	// ScaleEverySec is the control interval (default 0.25s).
	ScaleEverySec float64

	// Preempt enables priority-aware preemptive scheduling on
	// temporal-shared slots: a waiting higher-priority batch preempts an
	// in-flight lower-priority one at the next µTOp-quantum boundary
	// (preemptQuantumCycles), and the victim later resumes with exactly
	// its remaining service cycles (sched.CheckpointAt models the
	// checkpoint; each save/restore costs virt.SwitchCycles on the
	// slot). When false, shared slots serve their queues FIFO by
	// arrival — the no-priority baseline the serve-priority scenario
	// compares against.
	Preempt bool

	// LinkGBps is the modeled chip-to-chip interconnect bandwidth per
	// link in GB/s (default 64). Only disaggregated tenants
	// (LLMConfig.Disagg) ship KV migrations over the fabric; everything
	// else ignores it. Concurrent migrations between the same chip pair
	// share the link max-min fairly (internal/xfer).
	LinkGBps float64

	// Faults schedules deterministic fault injection — replica/chip
	// crashes, correlated pod outages, link degradation — on the sim
	// clock; nil (the default) keeps the fleet fault-free. See fault.go.
	Faults *FaultPlan
	// Recover enables the recovery machinery a FaultPlan exercises (warm
	// spares, emergency spawns, decode-pool evacuation); nil is the
	// no-recovery baseline.
	Recover *RecoveryConfig

	// Obs enables deterministic tracing and time-resolved telemetry
	// (see obs.go and docs/OBSERVABILITY.md); nil — the default — runs
	// with zero observability overhead and byte-identical output to a
	// build without the subsystem.
	Obs *ObsConfig

	Tenants []TenantConfig
}

func (c *Config) defaults() {
	if c.ScaleEverySec == 0 {
		c.ScaleEverySec = 0.25
	}
	if c.LinkGBps == 0 {
		c.LinkGBps = 64
	}
	if c.Obs != nil {
		// Clone before defaulting: one ObsConfig is typically shared
		// across parallel scenario legs (experiments), and each run must
		// own its copy.
		o := *c.Obs
		o.defaults()
		c.Obs = &o
	}
}

func (c *Config) validate() error {
	if err := c.Core.Validate(); err != nil {
		return err
	}
	if err := checkFinite("config",
		"DurationSec ScaleEverySec LinkGBps",
		c.DurationSec, c.ScaleEverySec, c.LinkGBps); err != nil {
		return err
	}
	switch {
	case c.Cores < 1:
		return fmt.Errorf("serve: fleet needs ≥1 pNPU, got %d", c.Cores)
	case c.DurationSec <= 0:
		return fmt.Errorf("serve: duration %v", c.DurationSec)
	case c.ScaleEverySec*c.Core.FrequencyHz < 1:
		// A shorter interval would re-arm the control loop at the same
		// sim instant forever.
		return fmt.Errorf("serve: autoscale interval %v s is under one core cycle", c.ScaleEverySec)
	case len(c.Tenants) == 0:
		return fmt.Errorf("serve: no tenants")
	case c.LinkGBps < 0:
		return fmt.Errorf("serve: link bandwidth %v GB/s", c.LinkGBps)
	}
	if c.Faults != nil {
		if err := c.Faults.validate(c); err != nil {
			return err
		}
	}
	if c.Recover != nil {
		if err := c.Recover.validate(); err != nil {
			return err
		}
	}
	if c.Obs != nil {
		if err := c.Obs.validate(c.Core.FrequencyHz); err != nil {
			return err
		}
	}
	// Quantum-boundary preemption suspends batches that keep live
	// sequence references across the suspension; the paged evictor
	// reclaims sequences it believes idle, so the two must not mix.
	if c.Preempt {
		for i := range c.Tenants {
			if llm := c.Tenants[i].LLM; llm != nil && llm.KVPolicy == KVPaged {
				return fmt.Errorf("serve: tenant %s: paged KV and preemptive sharing are mutually exclusive", c.Tenants[i].Name)
			}
		}
	}
	// Per-tenant validation happens in newFleet, against each tenant's
	// defaulted private copy.
	return nil
}

// checkFinite rejects the first NaN or ±Inf among vals, named
// positionally by the space-separated names. It runs before the range
// checks: every comparison with NaN is false, so a NaN would slip past
// each of them.
func checkFinite(who, names string, vals ...float64) error {
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("serve: %s %s %v is not finite", who, strings.Fields(names)[i], v)
		}
	}
	return nil
}
