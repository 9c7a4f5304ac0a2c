package serve

import (
	"fmt"

	"neu10/internal/metrics"
	"neu10/internal/obs"
	"neu10/internal/sim"
	"neu10/internal/workload"
	"neu10/internal/xfer"
)

// LLM serving: autoregressive tenants with KV-cache-aware batching.
//
// A request of an LLM tenant is a generation, not one invocation: a
// prefill over its prompt (which emits the first token) followed by one
// decode iteration per remaining output token, the whole sequence
// pinning prompt+output tokens of KV cache on its replica from
// admission to completion. Two batchers are modeled on the same slot
// machinery:
//
//   - Continuous (the default): every invocation is ONE iteration.
//     At each iteration boundary finished sequences exit (freeing KV),
//     and queued prompts whose full KV reservation fits join via a
//     prefill invocation (prefill-prioritized, vLLM-style); otherwise
//     the running set takes one decode step. Batch composition therefore
//     changes every iteration.
//   - Static (the baseline): a batch forms from the queue, prefills
//     together, then decodes as one monolithic invocation to the
//     LONGEST output in the batch — finished lanes ride along as dead
//     weight, and every request returns only when the whole batch does.
//
// Because both run through the ordinary batch/slot path, priorities and
// quantum-boundary preemption compose: a preempted decode iteration
// checkpoints via sched.CheckpointAt like any invocation, and its
// sequences' KV blocks stay resident until the batch resumes and its
// sequences complete.

// LLMConfig switches a tenant to autoregressive LLM serving.
type LLMConfig struct {
	// Trace draws each request's prompt/output shape at arrival (the
	// draw happens before admission, so compared configurations see the
	// identical trace).
	Trace workload.LLMTrace
	// Static selects the static-batching baseline; false (default) is
	// continuous batching.
	Static bool
	// KVCapTokens overrides the derived per-replica KV capacity
	// (MemSizePerCore − LLM weights), in tokens. For tests and
	// pressure studies; 0 keeps the derived capacity. With Disagg it
	// applies to both pools' replicas.
	KVCapTokens int

	// KVPolicy selects the KV accounting backend (kv.go): KVReserve —
	// full prompt+output reservation at admission, the pre-paging
	// behavior — or KVPaged — block-on-demand allocation with eviction
	// under pressure and a radix-trie prefix cache (kv_paged.go).
	// Empty runs the reserve backend implicitly AND leaves the report's
	// extended KV fields unpopulated, so legacy scenarios are
	// byte-identical; set it explicitly to surface the policy
	// comparison fields. KVPaged requires the continuous colocated
	// batcher (no Static, Disagg, ShareGroup, or fleet Preempt:
	// suspended batches hold live sequence references the evictor
	// must never invalidate).
	KVPolicy string
	// KVEvict selects how the paged backend reclaims a victim's
	// blocks: KVEvictRecompute drops them and replays the lost tokens
	// through a chunked re-prefill (priced via CostDB.LLMChunkCycles),
	// KVEvictSwap ships them to host memory over a modeled link and
	// back (priced via internal/xfer at swapGBps). Default recompute;
	// only meaningful with KVPaged.
	KVEvict string

	// Disagg, when non-nil, splits the tenant's fleet into
	// role-specialized pools: arrivals prefill on RolePrefill replicas,
	// finished prompts migrate their KV over the modeled interconnect
	// (Config.LinkGBps, internal/xfer) to an
	// admission-checked RoleDecode replica, and decode iterations run
	// there — prefill bursts can no longer inflate decode TPOT. The
	// migration is priced into TTFT: the first token is delivered only
	// once the KV lands. Mutually exclusive with Static and ShareGroup.
	Disagg *DisaggConfig
}

// DisaggConfig sizes a disaggregated tenant's two pools and the
// chunked-prefill granularity. The per-pool bounds play the role
// InitialReplicas/MaxReplicas play for a colocated tenant, and each
// pool's autoscale floor is one replica; the per-pool autoscalers (see
// autoscale.go) work these bounds against their own signals — prefill
// queue delay vs decode TPOT p99.
//
// A decode slot batches up to 2 × MaxBatch sequences per iteration
// (admission counts in-flight migrations too). Decode is HBM-bound —
// its iteration cost is nearly flat in batch — so consolidating many
// sequences onto few wide decode slots is almost free, and that
// consolidation is half of disaggregation's win (the other half is
// prefill interference removal).
type DisaggConfig struct {
	PrefillReplicas int // initial prefill-pool size (default 1)
	MaxPrefill      int // autoscale ceiling (default PrefillReplicas)

	DecodeReplicas int // initial decode-pool size (default 1)
	MaxDecode      int // autoscale ceiling (default DecodeReplicas)

	// ChunkTokens, when > 0, runs chunked prefill on the prefill pool:
	// each invocation advances every in-flight prompt by at most this
	// many tokens, so a short prompt admitted behind a long one gets
	// its first chunk after the long prompt's CURRENT chunk, not after
	// its whole prefill. Chunking is not free — every chunk invocation
	// re-streams the weights, and a late chunk's attention spans the
	// whole cached context behind it (CostDB.LLMChunkCycles measures
	// both). 0 prefills whole prompts in one invocation.
	ChunkTokens int
}

// defaults fills the pool bounds.
func (d *DisaggConfig) defaults() {
	if d.PrefillReplicas == 0 {
		d.PrefillReplicas = 1
	}
	if d.MaxPrefill == 0 {
		d.MaxPrefill = d.PrefillReplicas
	}
	if d.DecodeReplicas == 0 {
		d.DecodeReplicas = 1
	}
	if d.MaxDecode == 0 {
		d.MaxDecode = d.DecodeReplicas
	}
}

func (d *DisaggConfig) validate(tenant string) error {
	switch {
	case d.PrefillReplicas < 1 || d.MaxPrefill < d.PrefillReplicas:
		return fmt.Errorf("serve: tenant %s prefill-pool bounds 1 ≤ %d ≤ %d malformed",
			tenant, d.PrefillReplicas, d.MaxPrefill)
	case d.DecodeReplicas < 1 || d.MaxDecode < d.DecodeReplicas:
		return fmt.Errorf("serve: tenant %s decode-pool bounds 1 ≤ %d ≤ %d malformed",
			tenant, d.DecodeReplicas, d.MaxDecode)
	case d.ChunkTokens < 0:
		return fmt.Errorf("serve: tenant %s chunk of %d tokens", tenant, d.ChunkTokens)
	}
	return nil
}

// KV backend policy and eviction names (LLMConfig.KVPolicy/KVEvict).
const (
	KVReserve = "reserve"
	KVPaged   = "paged"

	KVEvictRecompute = "recompute"
	KVEvictSwap      = "swap"
)

func (lc *LLMConfig) defaults() {
	lc.Trace.Defaults()
	if lc.KVPolicy == KVPaged && lc.KVEvict == "" {
		lc.KVEvict = KVEvictRecompute
	}
	if lc.Disagg != nil {
		lc.Disagg.defaults()
	}
}

func (lc *LLMConfig) validate(tenant string) error {
	if err := lc.Trace.Validate(); err != nil {
		return fmt.Errorf("serve: tenant %s: %w", tenant, err)
	}
	if lc.KVCapTokens < 0 {
		return fmt.Errorf("serve: tenant %s KV capacity override %d", tenant, lc.KVCapTokens)
	}
	switch lc.KVPolicy {
	case "", KVReserve, KVPaged:
	default:
		return fmt.Errorf("serve: tenant %s KV policy %q (want %q or %q)", tenant, lc.KVPolicy, KVReserve, KVPaged)
	}
	if lc.KVPolicy == KVPaged {
		if lc.Static {
			return fmt.Errorf("serve: tenant %s: paged KV requires the continuous batcher", tenant)
		}
		if lc.Disagg != nil {
			return fmt.Errorf("serve: tenant %s: paged KV and disaggregation are mutually exclusive", tenant)
		}
		switch lc.KVEvict {
		case KVEvictRecompute, KVEvictSwap:
		default:
			return fmt.Errorf("serve: tenant %s KV eviction %q (want %q or %q)", tenant, lc.KVEvict, KVEvictRecompute, KVEvictSwap)
		}
	} else if lc.KVEvict != "" {
		return fmt.Errorf("serve: tenant %s: KV eviction policy requires the paged backend", tenant)
	}
	if lc.Disagg != nil {
		if lc.Static {
			return fmt.Errorf("serve: tenant %s: disaggregation requires the continuous batcher", tenant)
		}
		return lc.Disagg.validate(tenant)
	}
	return nil
}

// llmTenant is the runtime LLM state of one tenant.
type llmTenant struct {
	rng *sim.RNG // request-shape draws (one stream, consumed at arrival)
	// sess holds the live conversation chains of a session trace
	// (Trace.Sessions > 0); nil for independent-request traces.
	sess *workload.SessionState

	ttft metrics.Latencies // time to first token (prefill finish − arrival)
	tpot metrics.Latencies // per-token latency: (completion − TTFT)/(output−1)

	admitted      int   // sequences admitted into an engine
	prefills      int   // prefill invocations completed
	decodeIters   int   // decode iterations completed
	staticBatches int   // static batches launched
	tokensOut     int   // output tokens emitted
	promptTokens  int64 // Σ prompt tokens over admitted sequences
	outputTokens  int64 // Σ output tokens over admitted sequences
	kvStalls      int   // batch-growth attempts blocked by KV exhaustion

	// Disaggregation runtime (zero / empty for colocated tenants).
	migQ          []migPending // prefilled seqs awaiting a decode slot, FIFO
	migrations    int          // KV migrations started
	migLanded     int          // KV migrations completed
	migAborted    int          // KV migrations aborted by a crash (recovery.go)
	migBytes      int64        // Σ payload bytes LANDED (aborts never count)
	migWaitCycles float64      // Σ (decode join − prefill finish) over LANDED migrations
	migStalls     int          // prefill completions that found no admitting decode slot

	// In-flight transfer registry (prefill→decode handoffs and crash
	// evacuations), start-ordered: crash handling walks it to abort
	// flights touching a dead chip with conservation intact. Once
	// drained, migrations == migLanded + migAborted and likewise for
	// evacuations.
	migInflight []*migFlight
	evacStarted int   // crash evacuations launched (recovery.go)
	evacLanded  int   // crash evacuations landed
	evacAborted int   // crash evacuations aborted by a second fault
	evacBytes   int64 // Σ evacuated KV bytes LANDED
	// rebalPending: a post-crash rebalance found the load gap but every
	// movable sequence sat inside an in-flight decode iteration (whose
	// state must freeze for the copy); retry at the next batch boundary.
	rebalPending bool

	// Per-pool autoscaler windows (reset every control interval).
	windowWait      metrics.Latencies // prefill queue delay: arrival → prefill start
	windowTPOT      metrics.Latencies // per-token latency of completed sequences
	windowMigStalls int
}

// migPending is one sequence parked between prefill and decode: its
// prompt KV still occupies `from` until a decode slot admits the
// migration. The queue drains FIFO with no bypass, so migration order
// is deterministic and starvation-free.
type migPending struct {
	seq  *llmSeq
	from *replica
}

// migFlight is one KV transfer on the wire: a prefill→decode handoff
// (evac false) or a mid-generation crash evacuation (evac true). The
// target's full reservation (dblocks) was charged at start; bytes is
// the payload priced onto the link. The xfer handle lets a crash abort
// the copy mid-flight.
type migFlight struct {
	seq      *llmSeq
	src, dst *replica
	dblocks  int
	bytes    int64
	xfr      *xfer.Transfer
	evac     bool
}

// dropFlight removes one landed or aborted flight from the registry.
func (l *llmTenant) dropFlight(fl *migFlight) {
	for i, x := range l.migInflight {
		if x == fl {
			l.migInflight = append(l.migInflight[:i], l.migInflight[i+1:]...)
			return
		}
	}
}

// llmSeq is one admitted sequence: a request plus its KV reservation
// and generation progress. It lives in its slot queue's running set
// from admission (prefill launch) to completion.
type llmSeq struct {
	req       request
	blocks    int  // KV blocks held on its slot (the ledger's footprint, grown under paging)
	ctx       int  // tokens resident in the KV cache
	produced  int  // output tokens emitted
	prefilled bool // prompt processed; eligible for decode iterations
	ttftAt    sim.Time

	// Disaggregation: prefill progress in tokens (chunked prefill
	// advances it per chunk; colocated sequences never use it) and the
	// prefill-completion time the migration wait is measured from.
	promptDone int
	prefDone   sim.Time

	// migrating freezes the sequence while a crash evacuation ships its
	// KV (recovery.go): no decode iteration includes it until the pages
	// land, so its state is immutable on the wire.
	migrating bool

	// Paged-backend state (kv_paged.go; zero under the reserve backend).
	// hit is the prefix-cache tokens served from pinned shared blocks —
	// `blocks` then covers only the private remainder, and block demand
	// is measured against blocks×kvBlockTokens+hit. cref pins the matched
	// radix chain from admission to release. A swapped sequence stays in
	// its running set but owns no device blocks: swapped freezes it,
	// swapReady marks its KV landed in host memory (eligible to swap
	// back in when blocks free up).
	hit       int
	cref      *radixNode
	swapped   bool
	swapReady bool
}

// decodable: prefilled, not frozen by a swap or an evacuation, output
// unfinished.
func (s *llmSeq) decodable() bool {
	return s.prefilled && !s.migrating && !s.swapped && s.produced < s.req.output
}

// replay is the request that runs s again after its KV is lost to an
// eviction or a crash: the original arrival (the penalty lands on the
// SLO), with any generated prefix folded into the prompt and its first
// token marked delivered.
func (s *llmSeq) replay() request {
	req := s.req
	req.replay = true
	if s.produced > 0 {
		req.prompt += s.produced
		req.output -= s.produced
		req.hadTok = true
	}
	return req
}

// continuousLLM is the autoregressive batcher policy: one invocation
// per iteration under continuous batching (the default), or the
// two-leg static baseline when LLMConfig.Static is set. It owns the
// prefill/decode arms the slot machinery used to switch on directly;
// disaggBatcher (disagg.go) wraps it for role-split fleets.
type continuousLLM struct {
	f *fleet
	t *tenantState
}

// next proposes this queue's launchable work. Continuous mode: a
// prefill when the queue head fits the ledger and the running set has
// room (prefill-prioritized joins), else one decode iteration when
// decodeReady holds. Static mode: a fresh batch, only when no batch of
// this queue is mid-generation and the head fits.
func (c *continuousLLM) next(r *replica, q *slotQueue) (batchKind, sim.Time, bool) {
	t := q.ten
	if t.cfg.LLM.Static {
		if len(q.reqs) > 0 && len(q.running) == 0 && r.kv.canAdmit(q.reqs[0]) {
			return kindLLMStaticPrefill, q.reqs[0].at, true
		}
		return 0, 0, false
	}
	if len(q.reqs) > 0 && len(q.running) < t.cfg.MaxBatch && r.kv.canAdmit(q.reqs[0]) {
		return kindLLMPrefill, q.reqs[0].at, true
	}
	at, ok := decodeReady(r.kv, q)
	return kindLLMDecode, at, ok
}

// decodeReady reports whether a decode iteration can launch on q, and
// the FIFO key of the oldest decodable sequence: some decodable
// sequence already has room for its next token (under full reservation
// every one does), or a block can be granted (free or reclaimable-cold),
// or there are two candidates so the launch can evict the youngest to
// feed the oldest. A lone candidate with no grantable block cannot help
// itself by eviction, so the slot waits for a completion or swap
// landing.
func decodeReady(a *kvAccountant, q *slotQueue) (sim.Time, bool) {
	var at sim.Time
	cands := 0
	for _, s := range q.running {
		if !s.decodable() {
			continue
		}
		if cands == 0 {
			at = s.req.at
		}
		if !a.needsBlock(s) {
			return at, true
		}
		cands++
	}
	return at, cands >= 2 || cands == 1 && a.avail() >= 1
}

func (c *continuousLLM) launch(r *replica, q *slotQueue, kind batchKind, now sim.Time, restore float64) {
	if kind == kindLLMDecode {
		c.launchDecode(r, q, now, restore)
		return
	}
	c.launchPrefill(r, q, kind, now, restore)
}

func (c *continuousLLM) finish(r *replica, b *batch, now sim.Time) *batch {
	switch b.kind {
	case kindLLMPrefill:
		c.finishPrefill(r, b, now)
	case kindLLMDecode:
		c.finishDecode(r, b, now)
	case kindLLMStaticPrefill:
		return c.finishStaticPrefill(r, b, now)
	case kindLLMStaticDecode:
		c.finishStaticDecode(r, b, now)
	}
	return nil
}

// coalesces: a continuous batcher never waits at the door — joins
// happen at iteration boundaries — but the static baseline forms its
// batch from the queue the way the dynamic batcher does.
func (c *continuousLLM) coalesces() bool { return c.t.cfg.LLM.Static }

// passedOver counts a KV-pressure stall for a static queue that could
// not form a batch because its head's reservation does not fit and was
// passed over by whatever launched instead — mirroring the continuous
// path's accounting in admit/launchDecode (once per launch decision,
// so the count stays deterministic).
func (c *continuousLLM) passedOver(r *replica, q *slotQueue) {
	if !c.t.cfg.LLM.Static {
		return
	}
	if len(q.reqs) > 0 && len(q.running) == 0 && !r.kv.canAdmit(q.reqs[0]) {
		c.t.llm.kvStalls++
		c.f.obs.kvStall(c.t, q.reqs[0].id, c.f.eng.Now())
	}
}

func (c *continuousLLM) admitsArrival(*replica) bool { return true }

// admit moves admittable requests from the queue head into running
// sequences — the one admission loop of colocated and prefill-pool
// slots. width is the batch width already in use; each joiner widens it
// and, when b is non-nil, joins batch b. FIFO, stopping at MaxBatch or
// at the first request the ledger does not admit (no head-of-line
// bypass — admission order stays deterministic and starvation-free). A
// stop forced by KV pressure is counted as a stall. On the prefill pool
// the queue delay feeds the autoscaler's window.
func (c *continuousLLM) admit(r *replica, q *slotQueue, b *batch, width int, now sim.Time) {
	f, t := c.f, q.ten
	for len(q.reqs) > 0 && width < t.cfg.MaxBatch {
		req := q.reqs[0]
		s := &llmSeq{req: req, ctx: req.prompt}
		if !r.kv.admit(s, float64(now)) {
			break
		}
		q.running = append(q.running, s)
		if b != nil {
			b.seqs = append(b.seqs, s)
		}
		n := copy(q.reqs, q.reqs[1:])
		q.reqs = q.reqs[:n]
		width++
		t.llm.admitted++
		t.llm.promptTokens += int64(req.prompt)
		t.llm.outputTokens += int64(req.output)
		f.obs.prefillAdmit(t, req.id, now)
		if r.role == RolePrefill && f.cfg.Autoscale {
			t.llm.windowWait.Add(float64(now - req.at))
		}
	}
	if len(q.reqs) > 0 && width < t.cfg.MaxBatch {
		t.llm.kvStalls++
		f.obs.admitStall(t, r, q.reqs[0].id, now)
	}
}

// launchPrefill starts a prefill invocation for the queue's
// admittable joiners — kind selects continuous (kindLLMPrefill, whose
// batch retires at the prefill) or static (kindLLMStaticPrefill, whose
// decode leg chains at the prefill's completion). next only proposes
// either when the head fits, so at least one sequence always joins.
func (c *continuousLLM) launchPrefill(r *replica, q *slotQueue, kind batchKind, now sim.Time, restore float64) {
	f, t := c.f, q.ten
	f.disarmTimer(r)
	b := f.takeBatch()
	b.ten, b.restore, b.kind = t, restore, kind
	c.admit(r, q, b, len(q.running), now)
	joined := b.seqs
	if len(joined) == 0 {
		panic("serve: prefill launch admitted no sequence")
	}
	if kind == kindLLMStaticPrefill {
		t.llm.staticBatches++
	}
	// Prefix-cache hits shrink the prefill to the unmatched suffix — a
	// chunk whose attention still spans the cached context behind it,
	// exactly what LLMChunkCycles measures. With no hit in the batch,
	// and always outside paged KV, this is a full-prompt chunk at
	// context 0, which LLMChunkCycles prices as LLMCycles' prefill.
	maxChunk, maxBehind := 0, 0
	for _, s := range joined {
		if c := s.req.prompt - s.hit; c > maxChunk {
			maxChunk = c
		}
		if s.hit > maxBehind {
			maxBehind = s.hit
		}
	}
	cycles, err := f.costs.LLMChunkCycles(len(joined), maxChunk, maxBehind, r.nm, r.nv)
	f.costFailed("prefill batch", err)
	f.obs.launched(b, now)
	b.total, b.remaining = cycles, cycles
	t.issuedServiceCycles += cycles
	f.startSegment(r, b, now)
}

// launchDecode starts one decode iteration over the queue's decodable
// sequences on any LLM slot. An iteration that could not also grow the
// batch because the queue head does not fit counts as a stall — the
// KV-pressure signal in the report. Sequences needing a block for the
// token this iteration produces are granted one; if demand exceeds what
// is free plus cold, the YOUNGEST sequences evict (vLLM's preemption
// order — they lose the least work and the oldest finish soonest) until
// demand fits or one sequence remains, and any still-ungrantable
// sequence sits this iteration out. Only paging ever grants or evicts:
// under full reservation the batch is the whole decodable set.
//
// The batch is built in its own seqs, so a steady-state launch
// allocates nothing: victims truncate it, sequences sitting the
// iteration out are compacted away, and the dropped tail is cleared.
func (c *continuousLLM) launchDecode(r *replica, q *slotQueue, now sim.Time, restore float64) {
	f, t, a := c.f, q.ten, r.kv
	f.disarmTimer(r)
	if len(q.reqs) > 0 && len(q.running) < t.cfg.MaxBatch && !a.canAdmit(q.reqs[0]) {
		t.llm.kvStalls++
		f.obs.kvStall(t, q.reqs[0].id, now)
	}
	b := f.takeBatch()
	b.ten, b.restore, b.kind = t, restore, kindLLMDecode
	live := b.seqs
	need := 0
	for _, s := range q.running {
		if s.decodable() {
			live = append(live, s)
			if a.needsBlock(s) {
				need++
			}
		}
	}
	cands := len(live)
	for need > a.avail() && len(live) > 1 {
		victim := live[len(live)-1]
		live = live[:len(live)-1]
		if a.needsBlock(victim) {
			need--
		}
		f.evictSeq(r, q, victim, now)
	}
	maxCtx, n := 0, 0
	for _, s := range live {
		if a.needsBlock(s) {
			if a.avail() < 1 {
				continue // skipped this iteration; retried at the next
			}
			a.grow(s, float64(now))
		}
		live[n] = s
		n++
		if s.ctx > maxCtx {
			maxCtx = s.ctx
		}
	}
	clear(live[n:cands])
	b.seqs = live[:n]
	if n == 0 {
		panic("serve: decode launch granted no sequence")
	}
	f.obs.launched(b, now)
	cycles, err := f.costs.LLMCycles(PhaseDecode, n, maxCtx, r.nm, r.nv)
	f.costFailed("decode iteration", err)
	b.total, b.remaining = cycles, cycles
	t.issuedServiceCycles += cycles
	f.startSegment(r, b, now)
}

// finishPrefill retires a continuous-mode prefill: every joiner has
// its first token (TTFT), single-token requests complete outright, the
// rest become decodable.
func (c *continuousLLM) finishPrefill(r *replica, b *batch, now sim.Time) {
	f, t := c.f, b.ten
	t.llm.prefills++
	for _, s := range b.seqs {
		f.emitFirstToken(t, s, now)
		if s.produced >= s.req.output {
			f.completeSeq(r, t, s, now)
		}
	}
}

// finishDecode retires one decode iteration: every sequence gains a
// token; finished ones exit and free their KV.
func (c *continuousLLM) finishDecode(r *replica, b *batch, now sim.Time) {
	f, t := c.f, b.ten
	t.llm.decodeIters++
	for _, s := range b.seqs {
		s.produced++
		s.ctx++
		t.llm.tokensOut++
		if s.produced >= s.req.output {
			f.completeSeq(r, t, s, now)
		} else {
			f.obs.seg(t, s.req.id, obs.SegDecodeGap, now)
		}
	}
}

// finishStaticPrefill retires a static batch's prefill leg and
// returns the chained decode leg: one monolithic invocation covering
// max(output−1) iterations at the batch's FULL launch width — finished
// lanes are padding, the static-batching inefficiency. With no decode
// work left (all outputs of length 1) it completes the batch and
// returns nil.
func (c *continuousLLM) finishStaticPrefill(r *replica, b *batch, now sim.Time) *batch {
	f, t := c.f, b.ten
	t.llm.prefills++
	maxRem, maxCtx := 0, 0
	for _, s := range b.seqs {
		f.emitFirstToken(t, s, now)
		if rem := s.req.output - 1; rem > maxRem {
			maxRem = rem
		}
		if s.ctx > maxCtx {
			maxCtx = s.ctx
		}
	}
	if maxRem == 0 {
		for _, s := range b.seqs {
			f.completeSeq(r, t, s, now)
		}
		return nil
	}
	var cycles float64
	for i := 0; i < maxRem; i++ {
		c, err := f.costs.LLMCycles(PhaseDecode, len(b.seqs), maxCtx+i, r.nm, r.nv)
		f.costFailed("static decode leg", err)
		cycles += c
	}
	nb := f.takeBatch()
	nb.ten, nb.kind = t, kindLLMStaticDecode
	nb.seqs = append(nb.seqs[:0], b.seqs...)
	nb.total, nb.remaining = cycles, cycles
	t.issuedServiceCycles += cycles
	// The monolithic decode leg starts the instant this prefill retires
	// (finish chains it), so the whole leg is decode time.
	f.obs.launched(nb, now)
	return nb
}

// finishStaticDecode retires a static batch's decode leg: every
// request returns together (the synchronous static batcher), however
// short its own output was.
func (c *continuousLLM) finishStaticDecode(r *replica, b *batch, now sim.Time) {
	f, t := c.f, b.ten
	maxRem := 0
	for _, s := range b.seqs {
		if rem := s.req.output - 1; rem > maxRem {
			maxRem = rem
		}
	}
	t.llm.decodeIters += maxRem
	for _, s := range b.seqs {
		t.llm.tokensOut += s.req.output - 1
		s.produced = s.req.output
		s.ctx = s.req.prompt + s.req.output
		f.completeSeq(r, t, s, now)
	}
}

// emitFirstToken records a sequence's prefill completion: first token
// out, TTFT measured from arrival (queueing included). A crash replay
// whose first token was already delivered before the crash skips the
// TTFT sample — the user saw that token once.
func (f *fleet) emitFirstToken(t *tenantState, s *llmSeq, now sim.Time) {
	s.prefilled = true
	s.produced = 1
	s.ctx++
	s.ttftAt = now
	if !s.req.hadTok {
		t.llm.ttft.Add(float64(now - s.req.at))
	}
	t.llm.tokensOut++
	f.obs.firstToken(t, s, now)
}

// removeRunning takes a sequence out of a slot queue's running set.
func (q *slotQueue) removeRunning(s *llmSeq) {
	for i, x := range q.running {
		if x == s {
			q.running = append(q.running[:i], q.running[i+1:]...)
			return
		}
	}
}

// completeSeq retires a finished sequence: end-to-end latency recorded
// against the SLO, per-token latency derived from TTFT, KV freed, and
// the sequence removed from its running set.
func (f *fleet) completeSeq(r *replica, t *tenantState, s *llmSeq, now sim.Time) {
	r.queueFor(t).removeRunning(s)
	r.kv.release(s, float64(now))
	f.recordDone(t, &s.req, s.produced, now)
	if s.req.output > 1 {
		tpot := float64(now-s.ttftAt) / float64(s.req.output-1)
		t.llm.tpot.Add(tpot)
		if t.disagg() != nil && f.cfg.Autoscale {
			t.llm.windowTPOT.Add(tpot)
		}
	}
	if t.disagg() != nil {
		// The freed decode blocks may admit a parked migration.
		f.drainMigQ(t, now)
	} else if r.kv.paged != nil {
		// The freed blocks may let a swapped-out sequence return.
		f.drainSwaps(r, now)
	}
}
