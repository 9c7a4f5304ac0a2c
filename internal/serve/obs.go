package serve

// Observability for the serving simulator (see internal/obs and
// docs/OBSERVABILITY.md). One sink, fleet.obs, owns every collector:
// the request-lifecycle tracer, the sampled timelines and the
// attribution ledger.
//
// The contract every hook site follows:
//
//   - Serve reports each lifecycle event with ONE unguarded call on
//     f.obs (admitted, launched, firstToken, complete, crash, ...),
//     passing plain serve values. Every sink method is
//     nil-receiver-safe: f.obs == nil is the disabled state, so a
//     disabled run pays a nil test inside the sink, evaluates nothing
//     beyond plain field reads at the call site, allocates nothing and
//     schedules no events — its engine event stream, report and JSON
//     are byte-identical to a build without this file.
//   - Inside, a method makes the ledger and tracer calls its event
//     implies, in a fixed order per collector; all formatting (track
//     ids, µs args, link names) happens there, behind the collector's
//     own nil check. Trace phases are NOT derived from ledger segments:
//     the two disagree on timing (the first-token instant sits between
//     the prefill and decode phases; a crash closes the trace phase at
//     teardown but moves the ledger at requeue).
//   - Events and samples are recorded by the run's own single-threaded
//     event loop in creation order, stamped with sim cycles only.
//     Parallel scenario legs each own a private sink, so every export is
//     byte-identical at any worker count.

import (
	"fmt"
	"math"

	"neu10/internal/metrics"
	"neu10/internal/model"
	"neu10/internal/obs"
	"neu10/internal/sim"
	"neu10/internal/xfer"
)

// ObsConfig switches observability on for a run. The zero value (and a
// nil pointer) disables everything.
type ObsConfig struct {
	// Trace records per-request lifecycle spans and control/fault
	// instants, exported as Chrome trace-event JSON (Perfetto).
	Trace bool
	// Timelines samples queue depth, KV occupancy, fleet/pool sizes,
	// link utilization/backlog and attainment every SampleEveryMs.
	Timelines bool
	// SampleEveryMs is the timeline sampling period in sim milliseconds
	// (default 10).
	SampleEveryMs float64
	// Attrib switches the attribution ledger on (obs.Ledger): exact
	// per-request segment accounting and the fleet cycle ledger, with
	// conservation checked in-sim. Adds the attribution report sections
	// and the per-tenant attrib_dom timeline (when Timelines is also on).
	Attrib bool
}

func (o *ObsConfig) defaults() {
	if o.SampleEveryMs == 0 {
		o.SampleEveryMs = 10
	}
}

// obsWindowSamples is the sliding-window width, in samples, of the
// windowed-attainment and attrib_dom series.
const obsWindowSamples = 20

// validate checks the defaulted config against the core clock: a
// sampling period that is not finite or shorter than one cycle would
// re-arm the sampler at the same sim instant forever.
func (o *ObsConfig) validate(freqHz float64) error {
	if period := o.SampleEveryMs / 1e3 * freqHz; !(period >= 1) || math.IsInf(period, 0) {
		return fmt.Errorf("serve: obs sample period %v ms (must be finite and at least one core cycle)", o.SampleEveryMs)
	}
	return nil
}

// obsState is one run's observability sink; fleet.obs is nil when every
// collector is off.
type obsState struct {
	cfg    ObsConfig
	freqHz float64
	trace  *obs.Tracer      // nil unless cfg.Trace
	tl     *obs.TimelineSet // nil unless cfg.Timelines
	led    *obs.Ledger      // nil unless cfg.Attrib

	// sloOK counts completions within SLO per tenant — the cumulative
	// attainment numerator, maintained incrementally so sampling never
	// re-sorts the latency recorder.
	sloOK []int
	// hist accumulates per-tenant completion latencies (ms) between
	// ticks for the rolling count, p50 and p99 timelines; each tick reads
	// and resets it.
	hist []metrics.Latencies
	// Timeline handles, each tracked at its series' first sample so the
	// set registers series in first-sample order: per tenant (by index),
	// per replica (by uid) and per link (in Fabric.EachLink order).
	tenTL      []tenantTL
	repTL      []replicaTL
	linkTL     []linkTL
	lastSample float64
	tick       func(now sim.Time) // the sampling event, built once

	// attribWin holds, per tenant, a sliding window (obsWindowSamples+1
	// deep, oldest first) of cumulative completed-request segment totals;
	// the attrib_dom series differences the newest snapshot against the
	// oldest to get the window's dominant-blame share.
	attribWin [][][obs.NumSegments]float64
}

// tenantTL holds one tenant's timeline handles.
type tenantTL struct {
	queue, active, running, prefill, decode, attribDom      *obs.Series
	arrivals, sloOK, attain, fwAttain, latN, latP50, latP99 *obs.Series
}

// replicaTL holds one replica's KV timeline handles.
type replicaTL struct{ kvFrac, kvCold, kvSwapQ *obs.Series }

// linkTL holds one link's timeline handles and its busy integral at the
// previous tick, which per-interval utilization differences against.
type linkTL struct {
	util, backlog, active *obs.Series
	busy                  float64
}

// Trace/track layout: one Chrome "process" per tenant plus a "fleet"
// process for fabric and fault-plan events. Within a tenant process,
// track 0 carries control instants (spawn/drain/scale/crash), and each
// replica gets track 2+uid (fleet-unique, so shared slots never
// collide). Async lifecycle phases are keyed by request id, not track.
const (
	obsProcFleet    = "fleet"
	obsTrackControl = int32(0)
)

func replicaTrack(r *replica) int32 { return int32(2 + r.uid) }

// execName names a batch-kind execution slice.
var execName = [...]string{
	kindInvoke:           "invoke",
	kindLLMPrefill:       "llm-prefill",
	kindLLMDecode:        "llm-decode",
	kindLLMStaticPrefill: "llm-static-prefill",
	kindLLMStaticDecode:  "llm-static-decode",
}

// busyBucket maps a batch kind to the fleet-cycle bucket its
// compute occupies.
func busyBucket(k batchKind) obs.Bucket {
	switch k {
	case kindInvoke:
		return obs.BucketService
	case kindLLMPrefill, kindLLMStaticPrefill:
		return obs.BucketPrefill
	default:
		return obs.BucketDecode
	}
}

// newObsState builds the run's sink from a defaulted, validated config;
// nil (the disabled sink) unless some collector is on.
func newObsState(cfg *ObsConfig, scenario string, freqHz float64, tenants int) *obsState {
	if cfg == nil || !(cfg.Trace || cfg.Timelines || cfg.Attrib) {
		return nil
	}
	o := &obsState{cfg: *cfg, freqHz: freqHz, sloOK: make([]int, tenants), hist: make([]metrics.Latencies, tenants)}
	if cfg.Trace {
		o.trace = obs.NewTracer(scenario, freqHz)
	}
	if cfg.Timelines {
		o.tl = obs.NewTimelineSet(scenario, freqHz)
		o.tenTL = make([]tenantTL, tenants)
	}
	if cfg.Attrib {
		o.led = obs.NewLedger(scenario, freqHz)
		o.attribWin = make([][][obs.NumSegments]float64, tenants)
	}
	return o
}

// ---- Request lifecycle ----
//
// The ledger's segment flow (see obs.Segment):
//
//	arrive ─► SegQueue ─► [SegKVStall] ─► SegService → done   (single-shot)
//	                   └► SegPrefill/SegReplay/SegCrashReplay ─►
//	                      SegDecodeGap ⇄ SegDecode ─► done     (LLM)
//
// with excursions for chunked prefill (SegChunkGap), migration
// (SegMigrate), paged eviction (back to SegQueue, or SegSwapOut →
// SegSwapQ → SegSwapIn), preemption (SegPreempt) and crash recovery
// (SegCrashRequeue → SegCrashReplay). Every transition closes the open
// interval into the outgoing segment, so a request's segments sum
// exactly to completion − arrival — the invariant Ledger.ReqDone checks.

// noSeg marks a move that leaves the request's ledger segment alone.
const noSeg = obs.Segment(obs.NumSegments)

// move is the common request transition: it closes trace phase from,
// opens phase to (either may be "") and moves the ledger into seg.
func (o *obsState) move(t *tenantState, id int64, from, to string, seg obs.Segment, now sim.Time) {
	if o == nil {
		return
	}
	if from != "" {
		o.trace.End(from, "req", t.cfg.Name, float64(now), id)
	}
	if to != "" {
		o.trace.Begin(to, "req", t.cfg.Name, float64(now), id)
	}
	if seg != noSeg {
		o.led.ReqSeg(t.cfg.Name, id, seg, float64(now))
	}
}

// seg moves request id into ledger segment s, with no trace event.
func (o *obsState) seg(t *tenantState, id int64, s obs.Segment, now sim.Time) {
	if o != nil {
		o.led.ReqSeg(t.cfg.Name, id, s, float64(now))
	}
}

// admitStall: the queue head, admissible but for KV blocks, stalled an
// admission loop on r.
func (o *obsState) admitStall(t *tenantState, r *replica, id int64, now sim.Time) {
	o.seg(t, id, obs.SegKVStall, now)
	o.slotInstant("kv-stall", r.ten, r, now, id, "", 0, "tenant", t.cfg.Name)
}

// admitted: an arrival passed admission control into a replica queue.
func (o *obsState) admitted(t *tenantState, id int64, now sim.Time) {
	if o != nil {
		o.move(t, id, "", "queue", noSeg, now)
		o.led.ReqStart(t.cfg.Name, id, float64(now))
	}
}

// rejected: admission refused an arrival (no-replica or queue-cap).
func (o *obsState) rejected(t *tenantState, id int64, reason string, now sim.Time) {
	o.ctl("reject", "req", t, now, id, "", 0, "reason", reason)
}

// prefillAdmit: an LLM request left the queue for a running set.
func (o *obsState) prefillAdmit(t *tenantState, id int64, now sim.Time) {
	o.move(t, id, "queue", "prefill", noSeg, now)
}

// launched: batch b was formed. Single-shot requests leave the queue
// for service; LLM sequences enter a decode invocation or prompt
// compute, where crash and eviction replays re-earn lost tokens under
// their own segments. (One of b.reqs and b.seqs is always empty.)
func (o *obsState) launched(b *batch, now sim.Time) {
	if o == nil {
		return
	}
	name, at := b.ten.cfg.Name, float64(now)
	for i := range b.reqs {
		o.trace.End("queue", "req", name, at, b.reqs[i].id)
		o.trace.Begin("service", "req", name, at, b.reqs[i].id)
		o.led.ReqSeg(name, b.reqs[i].id, obs.SegService, at)
	}
	prefill := b.kind == kindLLMPrefill || b.kind == kindLLMStaticPrefill
	for _, s := range b.seqs {
		seg := obs.SegDecode
		switch {
		case prefill && s.req.crashed:
			seg = obs.SegCrashReplay
		case prefill && s.req.replay:
			seg = obs.SegReplay
		case prefill:
			seg = obs.SegPrefill
		}
		o.led.ReqSeg(name, s.req.id, seg, at)
	}
}

// eachReq calls fn on every request of b, single-shot or sequence.
func eachReq(b *batch, fn func(q *request)) {
	for i := range b.reqs {
		fn(&b.reqs[i])
	}
	for _, s := range b.seqs {
		fn(&s.req)
	}
}

// firstToken: a sequence's prefill completed. The first-token instant
// sits between the closing prefill phase (a disaggregated sequence
// closed it at handoff) and the opening decode phase.
func (o *obsState) firstToken(t *tenantState, s *llmSeq, now sim.Time) {
	if o == nil {
		return
	}
	more := s.produced < s.req.output
	o.led.ReqFirstToken(t.cfg.Name, s.req.id, float64(now))
	if more {
		o.seg(t, s.req.id, obs.SegDecodeGap, now)
	}
	if t.disagg() == nil {
		o.move(t, s.req.id, "prefill", "", noSeg, now)
	}
	o.ctl("first-token", "req", t, now, s.req.id, "ttft_us", o.us(float64(now-s.req.at)), "", "")
	if more {
		o.move(t, s.req.id, "", "decode", noSeg, now)
	}
}

// complete retires a request with out generated tokens: the ledger
// record closes, the attainment counters take its latency, and its
// open phase (service; decode unless it had one output token) closes.
func (o *obsState) complete(t *tenantState, req *request, out int, now sim.Time) {
	if o == nil {
		return
	}
	lat := float64(now - req.at)
	o.led.ReqDone(t.cfg.Name, req.id, float64(now), out)
	if lat <= t.sloCycles {
		o.sloOK[t.idx]++
	}
	if o.tl != nil {
		o.hist[t.idx].Add(lat / o.freqHz * 1e3)
	}
	if t.llm == nil {
		o.move(t, req.id, "service", "", noSeg, now)
	} else if req.output > 1 {
		o.move(t, req.id, "decode", "", noSeg, now)
	}
	o.ctl("complete", "req", t, now, req.id, "lat_us", o.us(lat), "", "")
}

// handoff: a disaggregated prompt finished prefill. Its migrate phase
// spans the whole handoff: any parked wait plus the wire time.
func (o *obsState) handoff(t *tenantState, id int64, now sim.Time) {
	o.move(t, id, "prefill", "migrate", obs.SegMigrate, now)
}

// migStall: a handoff found no decode slot and parked, parked deep in
// the migration queue.
func (o *obsState) migStall(t *tenantState, id int64, parked int, now sim.Time) {
	o.ctl("mig-stall", "sched", t, now, id, "parked", int64(parked), "", "")
}

// xferStart: flight fl put a sequence's KV on the wire (the named
// link), its target already charged. An evacuation freezes its sequence
// in SegMigrate.
func (o *obsState) xferStart(fl *migFlight, link string, now sim.Time) {
	if o == nil {
		return
	}
	name, cat := "kv-xfer", "req"
	if fl.evac {
		o.move(fl.src.ten, fl.seq.req.id, "", flightPhase(fl), obs.SegMigrate, now)
		name, cat = "evac-start", "fault"
	}
	o.slotIdle(fl.dst, now)
	if o.trace != nil {
		o.ctl(name, cat, fl.src.ten, now, fl.seq.req.id, "bytes", fl.bytes, "link", link)
	}
}

// xferLand: flight fl landed. A handoff's first token follows; an
// evacuated sequence thaws on the target.
func (o *obsState) xferLand(fl *migFlight, now sim.Time) {
	seg := noSeg
	if fl.evac {
		seg = obs.SegDecodeGap
	}
	o.move(fl.src.ten, fl.seq.req.id, flightPhase(fl), "", seg, now)
	o.slotIdle(fl.dst, now)
}

// xferLost: flight fl's source died mid-copy, taking the KV with it.
func (o *obsState) xferLost(fl *migFlight, now sim.Time) {
	o.crashed(fl.src.ten, fl.seq.req.id, flightPhase(fl), now)
}

// flightPhase names fl's trace phase: an evacuation's own, or the
// handoff's migrate phase.
func flightPhase(fl *migFlight) string {
	if fl.evac {
		return "evac"
	}
	return "migrate"
}

// evacAbort: an evacuation's target died; the sequence thaws in place.
func (o *obsState) evacAbort(t *tenantState, id int64, now sim.Time) {
	o.move(t, id, "evac", "", obs.SegDecodeGap, now)
}

// evicted: recompute eviction sent s back to the front of its queue.
func (o *obsState) evicted(t *tenantState, r *replica, s *llmSeq, now sim.Time) {
	o.move(t, s.req.id, "decode", "queue", obs.SegQueue, now)
	o.slotInstant("kv-evict", t, r, now, s.req.id, "lost_tokens", int64(s.ctx-s.hit), "mode", KVEvictRecompute)
}

// swapOut: swap eviction ships s's context (bytes) to host memory.
func (o *obsState) swapOut(t *tenantState, r *replica, s *llmSeq, bytes int64, now sim.Time) {
	o.seg(t, s.req.id, obs.SegSwapOut, now)
	o.slotInstant("swap-out", t, r, now, s.req.id, "bytes", bytes, "mode", KVEvictSwap)
}

// swapIn: a swapped sequence's restore landed; it decodes again.
func (o *obsState) swapIn(t *tenantState, r *replica, s *llmSeq, now sim.Time) {
	o.seg(t, s.req.id, obs.SegDecodeGap, now)
	if o != nil && o.trace != nil {
		o.slotInstant("swap-in", t, r, now, s.req.id, "bytes", model.LLMKVTransferBytes(s.ctx), "mode", KVEvictSwap)
	}
}

// ---- Slots, fleet and faults ----

// batchStart: batch b went into service on r (the slot's busy bucket).
func (o *obsState) batchStart(r *replica, b *batch, now sim.Time) {
	if o != nil {
		o.led.RepMark(r.uid, busyBucket(b.kind), float64(now))
	}
}

// batchEnd draws b's completed execution slice on r's track.
func (o *obsState) batchEnd(r *replica, b *batch, now sim.Time) {
	if o != nil {
		o.execSpan(r, b, "preempts", int64(b.preempts), now)
	}
}

// slotIdle re-marks an unoccupied replica's standing bucket: draining,
// inbound KV wire work, or idle. batchStart owns the busy buckets.
func (o *obsState) slotIdle(r *replica, now sim.Time) {
	if o == nil || o.led == nil || r.cur != nil {
		return
	}
	b := obs.BucketIdle
	if r.draining {
		b = obs.BucketDrain
	} else if r.inbound > 0 {
		b = obs.BucketMigration
	}
	o.led.RepMark(r.uid, b, float64(now))
}

// suspend: b was checkpointed at a quantum boundary (b.preempts counts
// it). The partial segment becomes its own exec slice, an instant marks
// the boundary, and every request parks in SegPreempt; the ledger
// remembers the parked segment for resume.
func (o *obsState) suspend(r *replica, b *batch, now sim.Time) {
	if o == nil {
		return
	}
	o.execSpan(r, b, "partial", 1, now)
	o.slotInstant("preempt", r.ten, r, now, -1, "preempts", int64(b.preempts), "victim", b.ten.cfg.Name)
	eachReq(b, func(q *request) { o.led.ReqSuspend(b.ten.cfg.Name, q.id, float64(now)) })
}

// resume: suspended batch b restarts on r.
func (o *obsState) resume(r *replica, b *batch, now sim.Time) {
	if o == nil {
		return
	}
	o.slotInstant("resume", r.ten, r, now, -1, "preempts", int64(b.preempts), "victim", b.ten.cfg.Name)
	eachReq(b, func(q *request) { o.led.ReqResume(b.ten.cfg.Name, q.id, float64(now)) })
}

// bypass: a higher-priority queue launched past suspended batch top.
func (o *obsState) bypass(r *replica, top *batch, now sim.Time) {
	o.slotInstant("bypass", r.ten, r, now, -1, "preempts", int64(top.preempts), "victim", top.ten.cfg.Name)
}

// spawn: replica r came up; its track is named, its cycle record opens.
func (o *obsState) spawn(r *replica, now float64) {
	if o == nil {
		return
	}
	name, chip := r.ten.cfg.Name, r.vnpu.Mapping.PNPU
	o.led.RepSpawn(name, r.uid, now)
	if o.trace != nil {
		o.trace.NameTrack(name, replicaTrack(r), fmt.Sprintf("replica %d (%s, chip %d)", r.id, r.role, chip))
		o.trace.Instant("spawn", "scale", name, obsTrackControl, now, -1,
			"replica", int64(r.id), "role", fmt.Sprintf("%s eus=%d chip=%d", r.role, r.eus, chip))
	}
}

// drain: replica r stopped taking work.
func (o *obsState) drain(r *replica, now sim.Time) {
	if o != nil {
		o.slotIdle(r, now)
		o.replicaInstant("drain", "scale", r, now)
	}
}

// retire: drained replica r returned its resources.
func (o *obsState) retire(r *replica, now sim.Time) {
	if o != nil {
		o.led.RepRetire(r.uid, float64(now))
		o.replicaInstant("retire", "scale", r, now)
	}
}

// crash: replica r died; its open cycle span becomes BucketFaulted.
func (o *obsState) crash(r *replica, now sim.Time) {
	if o != nil {
		o.led.RepCrash(r.uid, float64(now))
		o.replicaInstant("crash", "fault", r, now)
	}
}

// emergencySpawn: recovery brought up a replacement replica.
func (o *obsState) emergencySpawn(t *tenantState, eus int, role Role, now sim.Time) {
	if o != nil {
		o.ctl("emergency-spawn", "fault", t, now, -1, "eus", int64(eus), "role", role.String())
	}
}

// fault: a crash-class plan event hit victims replicas.
func (o *obsState) fault(kind FaultKind, victims int, now sim.Time) {
	if o != nil {
		o.trace.Instant("fault", "fault", obsProcFleet, obsTrackControl, float64(now), -1, "victims", int64(victims), "kind", kind.String())
	}
}

// linkScale: the fabric's bandwidth scale changed.
func (o *obsState) linkScale(scale float64, now sim.Time) {
	if o != nil && o.trace != nil {
		o.trace.Instant("link-scale", "fault", obsProcFleet, obsTrackControl, float64(now), -1, "", 0, "scale", fmt.Sprintf("%g", scale))
	}
}

// crashed closes the trace phase a crash interrupted for request id;
// the ledger moves later, when the request is requeued or lost.
func (o *obsState) crashed(t *tenantState, id int64, phase string, now sim.Time) {
	o.move(t, id, phase, "", noSeg, now)
}

// crashSeq is crashed for a resident sequence: prefill while its prompt
// was in progress (a disaggregated handoff closed prefill at prefDone;
// its caller closes migrate), decode mid-generation.
func (o *obsState) crashSeq(t *tenantState, s *llmSeq, now sim.Time) {
	switch {
	case !s.prefilled && s.prefDone == 0:
		o.crashed(t, s.req.id, "prefill", now)
	case s.prefilled && s.req.output > 1:
		o.crashed(t, s.req.id, "decode", now)
	}
}

// lost: a crash-harvested request was dropped for reason; produced > 0
// only under policy-fail.
func (o *obsState) lost(t *tenantState, id int64, produced int, reason string, now sim.Time) {
	if o == nil {
		return
	}
	o.led.ReqDrop(t.cfg.Name, id)
	ak := ""
	if produced > 0 {
		ak = "produced"
	}
	o.ctl("crash-lost", "fault", t, now, id, ak, int64(produced), "reason", reason)
}

// replayed: a crashed sequence will replay, recomputing lost tokens.
func (o *obsState) replayed(t *tenantState, id int64, lost int, now sim.Time) {
	o.ctl("crash-replay", "fault", t, now, id, "lost_tokens", int64(lost), "", "")
}

// requeued: a crash-harvested request re-entered a survivor's queue.
func (o *obsState) requeued(t *tenantState, id int64, now sim.Time) {
	o.ctl("crash-requeue", "fault", t, now, id, "", 0, "", "")
	o.move(t, id, "", "queue", obs.SegCrashRequeue, now)
}

// ---- Instant helpers ----

// ctl records an instant on tenant t's control track.
func (o *obsState) ctl(name, cat string, t *tenantState, now sim.Time, id int64, ak string, av int64, sk, sv string) {
	if o != nil {
		o.trace.Instant(name, cat, t.cfg.Name, obsTrackControl, float64(now), id, ak, av, sk, sv)
	}
}

// slotInstant records a scheduling instant on replica r's track in
// tenant proc's trace process.
func (o *obsState) slotInstant(name string, proc *tenantState, r *replica, now sim.Time, id int64, ak string, av int64, sk, sv string) {
	if o != nil {
		o.trace.Instant(name, "sched", proc.cfg.Name, replicaTrack(r), float64(now), id, ak, av, sk, sv)
	}
}

// replicaInstant records a replica-lifecycle instant (non-nil sink only).
func (o *obsState) replicaInstant(name, cat string, r *replica, now sim.Time) {
	o.ctl(name, cat, r.ten, now, -1, "replica", int64(r.id), "role", r.role.String())
}

// execSpan draws b's execution slice on r's track (non-nil sink only);
// its width is b's requests or sequences, whichever it holds.
func (o *obsState) execSpan(r *replica, b *batch, bk string, bv int64, now sim.Time) {
	o.trace.Span(execName[b.kind], "exec", r.ten.cfg.Name, replicaTrack(r),
		float64(b.started), float64(now), -1, "width", int64(len(b.reqs)+len(b.seqs)), bk, bv, "tenant", b.ten.cfg.Name)
}

// us converts cycles to whole microseconds for trace args.
func (o *obsState) us(cycles float64) int64 { return int64(cycles / o.freqHz * 1e6) }

// ---- Timelines and end of run ----

// scheduleObs arms the recurring timeline sampling tick (no-op without
// timelines). Like the autoscaler tick, sampling stops at the scenario
// horizon; obsFinish takes one final sample at the drain end so the
// last point of every cumulative series equals the run aggregate.
func (f *fleet) scheduleObs() {
	o := f.obs
	if o == nil || o.tl == nil {
		return
	}
	at := float64(f.eng.Now()) + o.cfg.SampleEveryMs/1e3*o.freqHz
	if at > f.durCycles {
		return
	}
	if o.tick == nil {
		o.tick = func(now sim.Time) {
			f.obsSample(float64(now))
			f.scheduleObs()
		}
	}
	f.eng.At(sim.Time(at), o.tick)
}

// obsSample records one timeline tick at `now` cycles. All reads are
// pure or lazily-advancing integrals (kv accrue, link advance), so a
// sample never changes simulation behavior. Each series' handle is
// resolved at its first sample; after that a tick builds no name and
// looks none up.
func (f *fleet) obsSample(now float64) {
	o := f.obs
	if o == nil || o.tl == nil || now < o.lastSample {
		return
	}
	dt := now - o.lastSample
	o.lastSample = now
	o.tl.Tick(now)
	// Queue depth and running-set size, attributed to the QUEUE OWNER
	// tenant (shared slots carry one queue per group member).
	for _, t := range f.tenants {
		name, tt := t.cfg.Name, &o.tenTL[t.idx]
		var depth, running int
		for _, p := range t.peers {
			for _, r := range p.replicas {
				if q := r.queueFor(t); q != nil {
					depth += len(q.reqs)
					running += len(q.running)
				}
			}
		}
		o.gauge(&tt.queue, name, "/queue", float64(depth))
		o.gauge(&tt.active, name, "/replicas_active", float64(t.activeCount()))
		if t.llm != nil {
			o.gauge(&tt.running, name, "/running", float64(running))
		}
		if t.disagg() != nil {
			o.gauge(&tt.prefill, name, "/prefill_replicas", float64(t.activeRole(RolePrefill)))
			o.gauge(&tt.decode, name, "/decode_replicas", float64(t.activeRole(RoleDecode)))
		}
		// Per-replica KV occupancy fraction (live replicas only; a
		// retired replica's occupancy is folded into the tenant
		// aggregate at retire time, same as the report).
		for _, r := range t.replicas {
			if r.kv == nil {
				continue
			}
			for len(o.repTL) <= r.uid {
				o.repTL = append(o.repTL, replicaTL{})
			}
			rt := &o.repTL[r.uid]
			if r.kv.totalBlocks > 0 {
				if rt.kvFrac == nil {
					rt.kvFrac = o.tl.Track(fmt.Sprintf("%s/kv_frac/r%d", name, r.id))
				}
				rt.kvFrac.Set(float64(r.kv.usedBlocks) / float64(r.kv.totalBlocks))
			}
			// Paged-policy internals (absent for reserve tenants, so
			// legacy timeline sets are unchanged): reclaimable cold cache
			// blocks and the swapped-out sequence backlog.
			if p := r.kv.paged; p != nil {
				if rt.kvCold == nil {
					rt.kvCold = o.tl.Track(fmt.Sprintf("%s/kv_cold/r%d", name, r.id))
					rt.kvSwapQ = o.tl.Track(fmt.Sprintf("%s/kv_swap_q/r%d", name, r.id))
				}
				rt.kvCold.Set(float64(p.cold))
				rt.kvSwapQ.Set(float64(len(p.swapQ)))
			}
		}
		// Dominant-blame share over the sliding window: the largest
		// segment's fraction of all attributed cycles completed in the
		// last obsWindowSamples ticks (0 while the window saw no completion).
		if o.led != nil {
			cur := o.led.SegTotals(name)
			win := append(o.attribWin[t.idx], cur)
			if len(win) > obsWindowSamples+1 {
				n := copy(win, win[1:])
				win = win[:n]
			}
			o.attribWin[t.idx] = win
			old := win[0]
			var sum, max float64
			for i := range cur {
				d := cur[i] - old[i]
				sum += d
				if d > max {
					max = d
				}
			}
			share := 0.0
			if sum > 0 {
				share = max / sum
			}
			o.gauge(&tt.attribDom, name, "/attrib_dom", share)
		}
		// Cumulative attainment (and its numerator/denominator, which
		// the report post-processes into a sliding-window series).
		o.gauge(&tt.arrivals, name, "/arrivals", float64(t.arrivals))
		o.gauge(&tt.sloOK, name, "/slo_ok", float64(o.sloOK[t.idx]))
		attain := 0.0
		if t.arrivals > 0 {
			attain = float64(o.sloOK[t.idx]) / float64(t.arrivals)
		}
		o.gauge(&tt.attain, name, "/attain", attain)
		if f.faulted {
			fw := 0.0
			if t.fwArrivals > 0 {
				fw = float64(t.fwSloOK) / float64(t.fwArrivals)
			}
			o.gauge(&tt.fwAttain, name, "/fw_attain", fw)
		}
		// Rolling per-interval latency percentiles (0 without a completion).
		h := &o.hist[t.idx]
		o.gauge(&tt.latN, name, "/lat_n", float64(h.Count()))
		o.gauge(&tt.latP50, name, "/lat_p50_ms", h.P50())
		o.gauge(&tt.latP99, name, "/lat_p99_ms", h.P99())
		h.Reset()
	}
	if f.fabric != nil {
		i := 0
		f.fabric.EachLink(func(l *xfer.Link) {
			if i == len(o.linkTL) {
				p := "link/" + l.Name()
				o.linkTL = append(o.linkTL, linkTL{util: o.tl.Track(p + "/util"),
					backlog: o.tl.Track(p + "/backlog_mb"), active: o.tl.Track(p + "/active")})
			}
			lt := &o.linkTL[i]
			i++
			busy := l.BusyCycles(now)
			util := 0.0
			if dt > 0 {
				util = (busy - lt.busy) / dt
			}
			lt.busy = busy
			lt.util.Set(util)
			lt.backlog.Set(l.Backlog(now) / (1 << 20))
			lt.active.Set(float64(l.Active()))
		})
	}
}

// gauge records v on the series *h, tracking name+suffix the first time.
func (o *obsState) gauge(h **obs.Series, name, suffix string, v float64) {
	if *h == nil {
		*h = o.tl.Track(name + suffix)
	}
	(*h).Set(v)
}

// obsFinish seals the ledger into the attribution report sections
// (attrib.go), takes the final timeline sample, derives the
// windowed-attainment series, adopts each tenant's replica timeline
// (converted from cycles to ms) and attaches every collector to the
// report.
func (f *fleet) obsFinish(rep *Report, end float64) {
	o := f.obs
	if o == nil {
		return
	}
	o.attribFinish(rep, end)
	rep.Trace = o.trace
	if o.tl == nil {
		return
	}
	f.obsSample(end)
	for _, t := range f.tenants {
		name := t.cfg.Name
		if num, den := o.tl.Get(name+"/slo_ok"), o.tl.Get(name+"/arrivals"); num != nil && den != nil {
			if win, err := obs.WindowedRatio(name+"/attain_win", num, den, obsWindowSamples); err == nil {
				o.tl.Attach(win)
			}
		}
		// The tenant's replica-count timeline, re-based from cycles to ms.
		rt := metrics.NewTimeSeries(name+"/replicas", 0)
		for i := range t.replicaTL.Times {
			rt.Add(t.replicaTL.Times[i]/f.cfg.Core.FrequencyHz*1e3, t.replicaTL.Values[i])
		}
		o.tl.Attach(rt)
	}
	rep.Timelines = o.tl
}
