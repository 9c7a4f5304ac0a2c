// Package sched implements the paper's architectural contribution — the
// µTOp scheduler and operation scheduler of §III-E — together with the
// event-driven multi-tenant NPU-core performance simulator of §III-G
// that evaluates it, and the three baselines of §V-A:
//
//   - PMT:    PREMA-style temporal sharing of the whole core.
//   - V10:    operator-level temporal sharing of all MEs under the VLIW
//     coupling constraint (an ME operator occupies every ME).
//   - NeuNH:  Neu10-NoHarvest — spatially isolated vNPUs, MIG-style;
//     the simulator runs it as Neu10 with both harvest paths off.
//   - Neu10:  spatial isolation plus dynamic µTOp scheduling with ME/VE
//     harvesting and 256-cycle reclaim preemption.
//
// The simulator is a deterministic fluid model: µTOps progress at
// piecewise-constant rates set by ME bindings, VE grants and HBM
// bandwidth sharing; events fire at completions and policy decision
// points. This matches the granularity the paper describes (replaying
// µTOp traces through a frontend scheduler and a backend timing model).
package sched

import (
	"fmt"

	"neu10/internal/arch"
	"neu10/internal/compiler"
	"neu10/internal/isa"
	"neu10/internal/metrics"
	"neu10/internal/sim"
)

// Mode selects the scheduling policy.
type Mode int

const (
	PMT Mode = iota
	V10
	NeuNH
	Neu10
)

func (m Mode) String() string {
	switch m {
	case PMT:
		return "PMT"
	case V10:
		return "V10"
	case NeuNH:
		return "Neu10-NH"
	case Neu10:
		return "Neu10"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ISAFor returns the compilation target a policy's tenants must use:
// the temporal-sharing baselines run traditional VLIW binaries, the
// spatial policies run NeuISA.
func (m Mode) ISAFor() compiler.ISAKind {
	if m == PMT || m == V10 {
		return compiler.ISAVLIW
	}
	return compiler.ISANeu
}

// TenantSpec describes one collocated vNPU and its workload.
type TenantSpec struct {
	Name     string
	Graph    *compiler.CompiledGraph
	MEs, VEs int // the vNPU's EU allocation

	// ArrivalRate, when > 0, switches this tenant to open-loop traffic:
	// requests arrive in a Poisson stream at this rate (requests/second)
	// and queue when the vNPU is busy; latency then includes queueing
	// delay. Zero keeps the paper's closed-loop methodology (§V-A).
	ArrivalRate float64
}

// Config configures one simulation run.
type Config struct {
	Core   arch.CoreConfig
	Policy Mode
	// Requests: the run ends when every tenant has completed this many
	// requests, at least 1 (the paper's steady-state methodology, §V-A).
	Requests int
	// QuantumCycles is the PMT time slice and the V10 fairness deficit
	// threshold (0 = default 100k cycles).
	QuantumCycles float64
	// SampleEvery enables timeline sampling at this cycle interval.
	SampleEvery float64
	// Seed drives the deterministic RNG behind open-loop arrivals.
	Seed uint64

	// Ablation knobs for the Neu10 policy (the ablation studies in
	// internal/experiments): disable ME harvesting and/or VE harvesting to isolate
	// each mechanism's contribution. Both false = full Neu10; both true =
	// NeuNH, which New forces on for that policy.
	DisableMEHarvest bool
	DisableVEHarvest bool
}

func (c *Config) defaults() {
	if c.QuantumCycles == 0 {
		c.QuantumCycles = 100_000
	}
}

// maxCycles is the safety stop: a run ends at this cycle even if some
// tenant has not completed its requests.
const maxCycles = 5e12

// Penalties (cycles). The ME reclaim penalty comes from the core config
// (256 = pop partials + pop weights, §III-G); the others model the
// coarser context switches of the baselines.
const (
	pmtSwitchPenalty = 1024 // full-core context switch (PREMA-style)
	v10SwitchPenalty = 256  // operator-boundary ME-complex switch
)

// TenantResult aggregates one tenant's measurements. It keeps the
// latency statistics, not the per-request samples: results are shared
// read-only between callers, so they hold only what some caller reads.
type TenantResult struct {
	Name           string
	Requests       int
	MeanLatency    float64 // cycles per completed request
	P95Latency     float64
	Throughput     float64 // requests per second (core frequency applied)
	ActiveCycles   float64 // cycles with ≥1 µTOp running
	HarvestBlocked float64 // cycles blocked because own MEs were harvested (Table III)
	// OpDurations[i] = mean duration of operator i across requests, for
	// the Fig. 23 per-operator speedup breakdown.
	OpDurations []float64
	// Timelines (filled when Config.SampleEvery > 0): assigned MEs and
	// granted VEs over time (Fig. 24).
	METimeline *metrics.TimeSeries
	VETimeline *metrics.TimeSeries
}

// Result is a full simulation outcome. Callers may share one Result, so
// none may modify it.
type Result struct {
	Policy         Mode
	DurationCycles float64
	Tenants        []TenantResult
	MEUtil         float64 // work-weighted busy fraction of all MEs (Fig. 22a)
	VEUtil         float64 // Fig. 22b
	// HBMTimeline (filled when Config.SampleEvery > 0) is the bandwidth
	// served, in bytes/cycle, at every event (Fig. 7).
	HBMTimeline  *metrics.TimeSeries
	AvgBandwidth float64 // bytes/cycle average
}

// ---- internal runtime state ----

// utop is a live µTOp instance.
type utop struct {
	ten   *tenant
	opIdx int
	kind  isa.UTopKind

	// rem is remaining nominal cycles: for ME µTOps the pipeline-bound
	// max(MECycles, VECycles); for VE µTOps, VECycles on one VE.
	rem     float64
	nominal float64
	meFrac  float64 // ME work per nominal cycle (ME µTOps; ≤ 1)
	veNeed  float64 // VE units required at full speed (ME µTOps; ≤ 1)
	bwNeed  float64 // bytes per nominal cycle

	me        int  // bound physical ME (-1 when unbound / VE µTOp)
	harvested bool // running on another vNPU's ME (or borrowed VE time)

	// transient per-event scheduling results
	veGrant float64
	speed   float64
}

// init (re)initializes a µTOp instance for a spec, writing every field
// once; instances are pooled by the simulator (Simulator.takeUTop) so
// the event loop stays off the allocator.
func (u *utop) init(t *tenant, opIdx int, spec compiler.UTopSpec) {
	me, ve := float64(spec.MECycles), float64(spec.VECycles)
	nominal := ve
	if spec.Kind == isa.MEUTop && me >= ve {
		nominal = me
	}
	if nominal == 0 {
		nominal = 1
	}
	if spec.Kind == isa.MEUTop {
		u.meFrac, u.veNeed = me/nominal, ve/nominal
	} else {
		u.meFrac, u.veNeed = 0, 0
	}
	u.ten, u.opIdx, u.kind, u.me, u.harvested = t, opIdx, spec.Kind, -1, false
	u.rem, u.nominal, u.bwNeed = nominal, nominal, float64(spec.HBMBytes)/nominal
	u.veGrant, u.speed = 0, 0
}

// tenant is the runtime state of one collocated vNPU.
type tenant struct {
	spec TenantSpec
	idx  int

	// ownMEs are the physical ME ids this vNPU owns (spatial modes).
	ownMEs []int

	// request progress
	opIdx    int
	groupIdx int
	inFlight int // µTOps of the current group still unfinished

	readyME fifo[*utop] // ready, unbound ME µTOps of the current group
	running []*utop     // bound ME µTOps + active VE µTOps
	veShort bool        // this event, its ME µTOps' VE need exceeds its VEs

	reqStart  float64
	completed int

	// Open-loop state: exponential interarrival RNG, the next arrival
	// time, and arrival timestamps waiting for service.
	rng         *sim.RNG
	nextArrival float64
	pending     fifo[float64]
	idle        bool

	// fairness accounting
	serviceCycles float64 // weighted engine-cycles consumed (V10/PMT)

	// metrics
	lat            *metrics.Latencies
	activeCycles   float64
	harvestBlocked float64
	opDurSum       []float64
	opDurN         []int
	opStart        float64
	meTL, veTL     *metrics.TimeSeries
}

// fifo is a queue with a head index instead of re-slicing, so the
// backing array's capacity is reused across the simulation instead of
// leaking one slot per pop (and regrowing behind the dead prefix).
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) Len() int { return len(q.buf) - q.head }

func (q *fifo[T]) Push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		// Compact before growing: usually frees enough room to avoid
		// the reallocation entirely.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

func (q *fifo[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// currentGroup returns the group being executed, or nil when the request
// is finished.
func (t *tenant) currentGroup() *compiler.GroupSpec {
	if t.opIdx >= len(t.spec.Graph.Ops) {
		return nil
	}
	return &t.spec.Graph.Ops[t.opIdx].Groups[t.groupIdx]
}
