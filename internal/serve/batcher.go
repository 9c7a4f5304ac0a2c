package serve

import "neu10/internal/sim"

// The scheduling/batching policy layer. Every tenant owns a batcher —
// the policy object that decides what work the tenant has on a slot,
// composes/costs/starts the invocation, and retires it — while the
// slot machinery (slot.go) stays policy-free: bestWork ranks the
// batchers' proposals, launch/finish dispatch through the interface,
// and priority preemption, autoscaling signals, fault harvesting and
// observability hooks therefore compose with ANY batcher rather than
// special-casing LLM kinds.
//
// Concrete policies:
//
//   - dynamicBatch (this file): the single-shot dense-model path —
//     coalesce queued requests up to MaxBatch behind the batch-window
//     timer, serve the whole batch in one invocation. Vision and
//     recommendation tenants from the model registry serve through it.
//   - continuousLLM (llm.go): autoregressive serving — continuous
//     (per-iteration joins, vLLM-style) or the static baseline, chosen
//     by LLMConfig.Static.
//   - disaggBatcher (disagg.go): a decorator wrapping continuousLLM
//     with role awareness — prefill-pool admission and chunked prompt
//     processing on RolePrefill slots, KV migration over the fabric,
//     decode delegated to the wrapped batcher on RoleDecode slots.

// batcher is one tenant's scheduling/batching policy, bound at fleet
// build (newFleet phase 1). All methods run inside engine events and
// must stay deterministic: next is a pure read, launch/finish mutate
// only through the slot and cost machinery.
type batcher interface {
	// next proposes the launchable work tenant q.ten has on slot r: the
	// batch kind and its FIFO key (the oldest contributing arrival).
	// ok=false means no launchable work on this queue right now.
	// bestWork ranks proposals across the slot's queues by priority
	// (under Preempt) and key.
	next(r *replica, q *slotQueue) (kind batchKind, key sim.Time, ok bool)
	// launch composes, costs (CostDB) and starts one invocation of a
	// kind this batcher proposed, paying `restore` switch cycles first.
	launch(r *replica, q *slotQueue, kind batchKind, now sim.Time, restore float64)
	// finish retires a completed invocation of this batcher and returns
	// a chained follow-up batch to keep the slot occupied, or nil. (The
	// static LLM prefill leg chains its monolithic decode leg; every
	// other policy returns nil.)
	finish(r *replica, b *batch, now sim.Time) *batch
	// coalesces reports whether the policy holds arrivals for the
	// batch-window timer (dynamic batching, static LLM) or wants an
	// idle slot to start work immediately (continuous LLM, disagg) —
	// poke's fast-path switch.
	coalesces() bool
	// passedOver is called once per launch decision for every queue of
	// the slot that was NOT picked, so a policy can account work it has
	// but could not start (the static batcher's KV-pressure stall).
	passedOver(r *replica, q *slotQueue)
}

// newBatcher builds tenant t's policy object from its config.
func newBatcher(f *fleet, t *tenantState) batcher {
	if t.llm == nil {
		return &dynamicBatch{f: f, t: t}
	}
	c := &continuousLLM{f: f, t: t}
	if t.disagg() != nil {
		return &disaggBatcher{f: f, t: t, inner: c}
	}
	return c
}

// dynamicBatch is the single-shot dense-model policy: queued requests
// coalesce behind the batch-window timer and serve as one whole-model
// invocation of up to MaxBatch requests.
type dynamicBatch struct {
	f *fleet
	t *tenantState
}

func (d *dynamicBatch) next(r *replica, q *slotQueue) (batchKind, sim.Time, bool) {
	if len(q.reqs) > 0 {
		return kindInvoke, q.reqs[0].at, true
	}
	return 0, 0, false
}

// launch takes up to MaxBatch requests off queue q and starts the
// batch on slot r, with `restore` switch cycles to pay first (the
// checkpoint save of a just-preempted victim, or zero).
func (d *dynamicBatch) launch(r *replica, q *slotQueue, _ batchKind, now sim.Time, restore float64) {
	f, t := d.f, q.ten
	f.disarmTimer(r)
	n := len(q.reqs)
	if n > t.cfg.MaxBatch {
		n = t.cfg.MaxBatch
	}
	b := f.takeBatch()
	b.ten, b.restore = t, restore
	b.reqs = append(b.reqs[:0], q.reqs[:n]...)
	rest := copy(q.reqs, q.reqs[n:])
	q.reqs = q.reqs[:rest]
	f.obs.launched(b, now)
	cycles, err := r.costs.service(t, n)
	f.costFailed("launched batch", err)
	b.total, b.remaining = cycles, cycles
	t.issuedCycles += cycles
	f.startSegment(r, b, now)
}

// finish completes every request of the batch.
func (d *dynamicBatch) finish(r *replica, b *batch, now sim.Time) *batch {
	for i := range b.reqs {
		d.f.recordDone(b.ten, &b.reqs[i], 0, now)
	}
	return nil
}

// recordDone books one completion with out generated tokens: its
// end-to-end latency against the SLO (whole run and, for requests that
// arrived from the first fault on, the fault window) and into the
// autoscaler and priority recorders, then the observation sink.
func (f *fleet) recordDone(t *tenantState, req *request, out int, now sim.Time) {
	lat := float64(now - req.at)
	t.lat.Add(lat)
	if lat <= t.sloCycles {
		t.sloOK++
		if f.faulted && float64(req.at) >= f.fwStart {
			t.fwSloOK++
		}
	}
	if f.cfg.Autoscale {
		// The observation window only exists for the autoscaler; a
		// fixed fleet would just duplicate every sample unread.
		t.windowLat.Add(lat)
	}
	if f.prioEnabled {
		f.prioLat[t.cfg.Priority].Add(lat)
	}
	t.completed++
	f.obs.complete(t, req, out, now)
}

func (d *dynamicBatch) coalesces() bool                 { return true }
func (d *dynamicBatch) passedOver(*replica, *slotQueue) {}
