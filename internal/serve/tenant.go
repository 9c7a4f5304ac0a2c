package serve

import (
	"math"

	"neu10/internal/compiler"
	"neu10/internal/core"
	"neu10/internal/metrics"
	"neu10/internal/sched"
	"neu10/internal/sim"
	"neu10/internal/workload"
)

// ---- runtime state ----

// request is one queued inference request: its arrival time plus, for
// LLM tenants, the autoregressive shape drawn at arrival (zero for
// single-shot tenants).
type request struct {
	at     sim.Time
	prompt int
	output int

	// id is the tenant-scoped arrival ordinal (1-based), the key trace
	// lifecycle events pair on. Replays keep their original id, so a
	// crash-requeued request's whole story lands on one trace row.
	id int64

	// Session-trace prefix chain (workload.DrawSession): the sealed
	// segments this prompt starts with, and the key the request's own
	// tokens seal under at completion. The paged backend's radix cache
	// matches and pins on these; the reserve backend ignores them.
	prefix  []workload.PrefixSeg
	sealKey uint64

	// Crash-replay provenance (see recovery.go): a replayed request keeps
	// its ORIGINAL arrival time — the crash penalty lands on the SLO —
	// with any generated prefix folded into prompt/output. hadTok marks
	// a replay whose first token was already delivered before the crash,
	// so the TTFT recorder is not fed twice. crashed distinguishes a
	// crash replay from an eviction replay for the attribution ledger
	// (replay alone is set by both paths).
	replay  bool
	hadTok  bool
	crashed bool
}

// slotQueue is one tenant's wait queue on a replica slot. Private
// replicas have exactly one (the owner's); temporal-shared slots carry
// one per share-group member, in tenant-index order. For LLM tenants it
// also holds the running set: admitted sequences mid-generation, whose
// KV reservations live on this slot until they complete.
type slotQueue struct {
	ten     *tenantState
	reqs    []request
	running []*llmSeq
}

// batchKind distinguishes what one slot invocation does.
type batchKind uint8

const (
	// kindInvoke is a whole-model batched inference (the single-shot path).
	kindInvoke batchKind = iota
	// kindLLMPrefill processes the prompts of newly admitted sequences
	// (continuous batching's join step).
	kindLLMPrefill
	// kindLLMDecode is one decode iteration over the running set.
	kindLLMDecode
	// kindLLMStaticPrefill is a static batch's prefill leg; its decode
	// leg chains at completion.
	kindLLMStaticPrefill
	// kindLLMStaticDecode is a static batch's monolithic decode-to-the-
	// longest-output leg.
	kindLLMStaticDecode
)

// batch is one batched invocation bound to a slot: in service, or
// suspended mid-service by a preemption. total and remaining partition
// its pure service cycles exactly (work conservation); restore is the
// context-switch debt paid at the start of the next segment. Single-
// shot invocations carry their requests in reqs; LLM invocations carry
// the sequences they advance in seqs.
type batch struct {
	ten  *tenantState
	kind batchKind
	reqs []request
	seqs []*llmSeq
	// chunks, parallel to seqs, holds the prompt tokens each sequence
	// advances in a disaggregated (possibly chunked) prefill invocation.
	chunks []int

	total     float64 // pure service cycles (CostDB, fixed at launch)
	remaining float64 // service cycles still owed
	restore   float64 // switch cycles to pay before service (re)starts

	started  sim.Time   // start of the current segment
	slot     *replica   // the slot the current segment runs on
	doneH    sim.Handle // scheduled completion of the current segment
	preempts int        // preemptions + priority bypasses suffered (stats)

	// done finishes the batch on slot when a segment completes. It is
	// built once per batch instance and survives putBatch, so starting
	// a segment allocates no closure.
	done func(now sim.Time)

	// Aging credit: victimWait accrues the cycles this batch has spent
	// suspended (waiting covers the open interval since waitFrom). Once
	// it exhausts preemptBudget the batch is immune to further
	// preemption and bypass — the wait-denominated anti-starvation
	// bound (see slot.go).
	victimWait float64
	waiting    bool
	waitFrom   sim.Time
}

// replica is one mapped vNPU slot. It is owned (spawned, drained,
// retired) by one tenant's autoscaler, but when that tenant is in a
// share group the slot serves every group member.
type replica struct {
	id  int // owner-tenant spawn ordinal (display)
	uid int // fleet-unique spawn ordinal: global age for tie-breaks

	ten    *tenantState
	vnpu   *core.VNPU
	nm, nv int
	eus    int  // EU budget this replica was allocated at
	role   Role // RoleMixed unless the owner is disaggregated
	// costs prices this replica's launches (its split's costTable).
	costs *costTable

	qs   []slotQueue // admitted, waiting; one queue per serving tenant
	cur  *batch      // the batch currently in service
	susp []*batch    // preempted batches awaiting resume (LIFO)

	// kv is the KV-cache ledger of this slot's vNPU memory partition
	// (its paged field set under LLMConfig.KVPolicy "paged"); non-nil
	// iff an LLM tenant is served here.
	kv *kvAccountant
	// inbound counts KV migrations in flight TOWARD this decode slot:
	// their reservations are already charged to kv, and a slot with
	// inbound work is not idle (it must not retire under a transfer).
	inbound int

	timerSet   bool
	timer      sim.Handle
	timerAt    sim.Time // armed batch-window deadline
	preemptSet bool
	preemptH   sim.Handle
	// preemptB and preemptRP are the armed preemption's victim and
	// checkpoint. onWindow and onPreempt fire the two timers; each is
	// bound on its timer's first arming, so a replica that never arms
	// one pays nothing and re-arming allocates nothing.
	preemptB            *batch
	preemptRP           sched.ResumePoint
	onWindow, onPreempt func(now sim.Time)
	draining            bool
	retired             bool

	busyEUCycles float64 // Σ occupied-cycles × (nm+nv), incl. switch overhead
}

// queueFor returns t's wait queue on this slot (nil when t is not
// served here).
func (r *replica) queueFor(t *tenantState) *slotQueue {
	for i := range r.qs {
		if r.qs[i].ten == t {
			return &r.qs[i]
		}
	}
	return nil
}

// queued counts waiting requests across the slot's queues.
func (r *replica) queued() int {
	n := 0
	for i := range r.qs {
		n += len(r.qs[i].reqs)
	}
	return n
}

// inService counts requests bound to the slot: the running batch plus
// every suspended one, plus every LLM sequence mid-generation (LLM
// batches reference sequences already counted in their running sets, so
// only single-shot batches add their requests here).
func (r *replica) inService() int {
	n := 0
	if r.cur != nil && r.cur.kind == kindInvoke {
		n += len(r.cur.reqs)
	}
	for _, b := range r.susp {
		if b.kind == kindInvoke {
			n += len(b.reqs)
		}
	}
	for i := range r.qs {
		n += len(r.qs[i].running)
	}
	return n
}

// backlog is the router's load signal: queued plus in-service requests.
func (r *replica) backlog() int { return r.queued() + r.inService() }

// idleEmpty reports whether the slot holds no work at all — the retire
// condition for a draining slot. An in-flight migration counts as work
// on both ends: the source still owns the sequence (and its prompt KV)
// until the last byte lands, the target has the reservation charged.
func (r *replica) idleEmpty() bool {
	if r.cur != nil || len(r.susp) > 0 || r.queued() > 0 || r.inbound > 0 {
		return false
	}
	for i := range r.qs {
		if len(r.qs[i].running) > 0 {
			return false
		}
	}
	return true
}

// tenantState is the runtime of one tenant.
type tenantState struct {
	cfg TenantConfig
	idx int

	// batcher is the tenant's scheduling/batching policy (batcher.go):
	// dynamicBatch, continuousLLM, or the disaggBatcher decorator. Bound
	// once in newFleet phase 1, before any slot exists.
	batcher batcher

	profile   compiler.Profile
	footprint int64

	curEUs       int     // current per-replica EU budget (autoscaler-adjusted)
	sloCycles    float64 // per-request latency objective
	batchWindow  float64 // coalescing wait, cycles
	basePerCycle float64 // base arrival rate, requests per cycle
	peakMult     float64 // max of the rate envelope (thinning bound)
	capacityRPS  float64 // one initial replica's max-batch throughput

	// Disaggregated pools autoscale against per-phase objectives derived
	// from the same anchors as sloCycles: the prefill pool against its
	// queue delay (prefillSLO = SLOFactor × mean-shape prefill cost) and
	// the decode pool against TPOT (tpotSLO = SLOFactor × mean-context
	// decode-iteration cost). Zero for non-disaggregated tenants.
	prefillSLO float64
	tpotSLO    float64

	arrRNG   *sim.RNG // arrival gaps + thinning coin
	routeRNG *sim.RNG // power-of-two sampling
	// arrival is the event every candidate arrival fires, built once by
	// scheduleArrival so scheduling one allocates no closure.
	arrival func(now sim.Time)

	// llm is the autoregressive runtime (request-shape RNG, TTFT/TPOT
	// recorders, KV stall counters); nil for single-shot tenants.
	llm *llmTenant

	// peers are the share-group members this tenant pools slots with,
	// in tenant-index order, always including the tenant itself. An
	// ungrouped tenant's peers are just {itself}.
	peers []*tenantState

	replicas      []*replica // active + draining (retired ones removed)
	nextReplicaID int

	// metrics
	lat            metrics.Latencies // all completed requests, cycles
	windowLat      metrics.Latencies // since the last autoscale decision
	arrivals       int
	rejected       int
	completed      int
	sloOK          int // completions within the SLO (latency ≤ sloCycles)
	windowRejected int
	maxQueue       int
	peakReplicas   int
	prefPeak       int // peak prefill-pool size (disaggregated tenants)
	decPeak        int // peak decode-pool size
	scaleUps       int
	scaleDowns     int
	resizes        int
	scaleFails     int
	replicaTL      *metrics.TimeSeries

	// preemption accounting
	preempted      int     // this tenant's batches suspended mid-service
	preemptsIssued int     // preemptions its batches triggered on others
	resumes        int     // suspended batches resumed
	stolenCycles   float64 // switch overhead charged against its batches
	maxPreempts    int     // worst preempt+bypass count on a single batch
	maxVictimWait  float64 // worst accrued victimization wait, cycles (credit ledger)

	// work-conservation ledger (tests): service cycles priced at launch
	// versus service cycles actually delivered across all segments.
	issuedCycles float64
	servedCycles float64

	// KV occupancy folded from this tenant's replicas (retired ones at
	// retire time, live ones at report time): ∫used dt, ∫total dt, and
	// the worst instantaneous occupancy fraction any replica hit.
	kvUsedArea  float64
	kvBlockArea float64
	kvPeakFrac  float64
	// kvAgg accumulates the policy-specific backend counters (eviction
	// and prefix-cache traffic) folded alongside the occupancy areas;
	// reported only when the tenant sets an explicit KVPolicy.
	kvAgg KVStats

	// Fault/recovery accounting (see fault.go; all zero fault-free).
	crashes         int   // replicas lost to fault events
	crashRequeued   int   // harvested requests re-queued to survivors
	crashLost       int   // harvested requests lost (no replica, queue room or decode pool)
	replays         int   // partially-generated sequences replayed
	recomputeTokens int64 // Σ resident KV tokens lost to crashes
	emergencySpawns int   // crash-triggered replacement spawns
	crashAt         float64
	preFaultActive  int     // active replicas at the first crash
	recoveredAt     float64 // first instant active count regained preFaultActive
	fwArrivals      int     // arrivals inside the fault window
	fwSloOK         int     // ...of which finished within the SLO
}

// foldKV accrues one replica ledger's occupancy into the tenant's
// report accumulators. The leading accrue finalizes the occupancy
// integral up to the fold instant, so every discard path — graceful
// retire, crash teardown, end-of-run report — reports an exact mean
// even when the ledger saw no traffic since its last event.
// Called exactly once per replica lifetime (the replica leaves
// t.replicas on retire/destroy), which is what makes the additive
// addStats fold exact.
func (t *tenantState) foldKV(a *kvAccountant, now float64) {
	a.accrue(now)
	t.kvUsedArea += a.usedArea
	t.kvBlockArea += float64(a.totalBlocks) * (now - a.born)
	if a.totalBlocks > 0 {
		if fr := float64(a.peakBlocks) / float64(a.totalBlocks); fr > t.kvPeakFrac {
			t.kvPeakFrac = fr
		}
	}
	a.addStats(&t.kvAgg)
}

// rateMult evaluates the deterministic rate envelope at time t (cycles).
func (t *tenantState) rateMult(at, durCycles float64) float64 {
	switch t.cfg.Arrival {
	case Flash:
		frac := at / durCycles
		if frac >= flashStart && frac < flashEnd {
			return flashFactor
		}
		return 1
	case Diurnal:
		return 1 + diurnalDepth*math.Sin(2*math.Pi*at/durCycles+t.cfg.DiurnalPhase)
	default:
		return 1
	}
}

func (t *tenantState) activeCount() int {
	n := 0
	for _, r := range t.replicas {
		if !r.draining {
			n++
		}
	}
	return n
}

// disagg returns the tenant's disaggregation config (nil when the
// tenant is colocated or not an LLM).
func (t *tenantState) disagg() *DisaggConfig {
	if t.cfg.LLM == nil {
		return nil
	}
	return t.cfg.LLM.Disagg
}

// decodeDead reports whether t is disaggregated and has no live,
// non-draining decode replica: its handoffs have nowhere to land.
func (t *tenantState) decodeDead() bool {
	return t.disagg() != nil && t.activeRole(RoleDecode) == 0
}

// activeRole counts non-draining replicas of one role.
func (t *tenantState) activeRole(role Role) int {
	n := 0
	for _, r := range t.replicas {
		if !r.draining && r.role == role {
			n++
		}
	}
	return n
}
