package serve

import (
	"neu10/internal/sched"
	"neu10/internal/sim"
)

// Slot scheduling: dynamic batching plus priority-aware preemptive
// temporal sharing. A replica is a slot that can interleave batches
// from every tenant in its share group. With Config.Preempt off, the
// slot serves its queues FIFO by arrival (the no-priority baseline);
// with it on, a waiting higher-priority batch preempts the in-flight
// lower-priority one at the next µTOp-quantum boundary:
//
//	maybePreempt: pick boundary via sched.CheckpointAt ──► suspend:
//	cancel completion, bank Remaining (work conservation), pay the
//	checkpoint save (virt.SwitchCycles), launch the preemptor ──►
//	dispatch on completion: resume the suspended batch (paying the
//	restore) unless an even higher-priority queue is waiting and the
//	victim still has aging credit.
//
// Starvation is bounded by AGING CREDIT, denominated in delay rather
// than events: every batch tolerates up to MaxPreemptsPerBatch ×
// PreemptQuantumCycles cycles of victimization wait (time suspended,
// whether it got there by preemption or was bypassed while suspended).
// A batch whose accrued wait exhausts the credit is immune to further
// preemption and bypass, so its total extra delay is hard-bounded in
// cycles — many cheap interruptions spend the credit slowly, one long
// one spends it at once, and either way the victim's wait cannot
// exceed the budget plus the one interloper in flight when the credit
// ran out.

// takeBatch returns a recycled (or new) batch instance; retired
// batches go back through putBatch so the steady-state launch path
// reuses the struct, its request slices and its completion closure
// instead of allocating per invocation (the same pooling discipline as
// sched's µTOp pool).
func (f *fleet) takeBatch() *batch {
	if n := len(f.batchFree); n > 0 {
		b := f.batchFree[n-1]
		f.batchFree[n-1] = nil
		f.batchFree = f.batchFree[:n-1]
		return b
	}
	b := &batch{}
	b.done = func(now sim.Time) { f.finish(b.slot, b, now) }
	return b
}

func (f *fleet) putBatch(b *batch) {
	for _, s := range b.seqs {
		if s.done {
			f.putSeq(s) // this batch completed s and held it last
		}
	}
	clear(b.seqs)
	// Zero, then restore what the batch keeps: assigning a literal that
	// sets them would build it aside and copy it whole.
	reqs, seqs, chunks, done := b.reqs[:0], b.seqs[:0], b.chunks[:0], b.done
	*b = batch{}
	b.reqs, b.seqs, b.chunks, b.done = reqs, seqs, chunks, done
	f.batchFree = append(f.batchFree, b)
}

// takeSeq returns a recycled (or new) sequence for req, its context the
// prompt. Sequences return through putSeq only where nothing can reach
// them any more (see llmSeq), so a steady-state admission allocates
// nothing, and one the ledger refuses hands its sequence straight back.
func (f *fleet) takeSeq(req request) *llmSeq {
	var s *llmSeq
	if n := len(f.seqFree); n > 0 {
		s = f.seqFree[n-1]
		f.seqFree = f.seqFree[:n-1]
	} else {
		s = new(llmSeq)
	}
	*s = llmSeq{} // then set, as in putBatch
	s.req, s.ctx = req, req.prompt
	return s
}

func (f *fleet) putSeq(s *llmSeq) { f.seqFree = append(f.seqFree, s) }

// creditLeft returns the unexhausted victimization allowance of batch
// b at `now`, counting the open suspension interval. ≤ 0 means immune:
// b can neither be preempted (while running) nor bypassed (while
// suspended) again.
func (f *fleet) creditLeft(b *batch, now sim.Time) float64 {
	w := b.victimWait
	if b.waiting {
		w += float64(now - b.waitFrom)
	}
	return f.preemptBudget - w
}

// disarmTimer cancels the slot's armed batch-window timer, if any.
func (f *fleet) disarmTimer(r *replica) {
	if r.timerSet {
		f.eng.Cancel(r.timer)
		r.timerSet = false
	}
}

// bestWork is the slot's SINGLE DECISION POINT: every queue's batcher
// proposes its launchable work (batcher.next), and the slot picks the
// highest-priority proposal under Preempt, else FIFO by each
// proposal's oldest waiting request. Ties break by arrival time, then
// by tenant index (queue order), so the choice is deterministic. Each
// wakeup (arrival poke, timer, completion, resume) derives the
// decision at most once and threads it straight into launch — see
// BenchmarkBestWork/BenchmarkDispatchChain for the hot-path cost.
func (f *fleet) bestWork(r *replica) (*slotQueue, batchKind) {
	var pick *slotQueue
	var kind batchKind
	var pickKey sim.Time
	for i := range r.qs {
		q := &r.qs[i]
		k, key, ok := q.ten.batcher.next(r, q)
		if !ok {
			continue
		}
		if pick != nil {
			if f.cfg.Preempt {
				if q.ten.cfg.Priority < pick.ten.cfg.Priority {
					continue
				}
				if q.ten.cfg.Priority == pick.ten.cfg.Priority && key >= pickKey {
					continue
				}
			} else if key >= pickKey {
				continue
			}
		}
		pick, kind, pickKey = q, k, key
	}
	return pick, kind
}

// launch starts the given kind of work from queue q on slot r, with
// `restore` switch cycles to pay first (a just-preempted victim's
// checkpoint save, or zero). Every other queue's batcher is told it
// was passed over — the hook static LLM queues use to count
// KV-pressure stalls.
func (f *fleet) launch(r *replica, q *slotQueue, kind batchKind, now sim.Time, restore float64) {
	for i := range r.qs {
		if sq := &r.qs[i]; sq != q {
			sq.ten.batcher.passedOver(r, sq)
		}
	}
	q.ten.batcher.launch(r, q, kind, now, restore)
}

// poke reacts to a new arrival of tenant t on slot r: it may preempt
// the running batch, launch immediately when t's queue already fills a
// batch, or arm the batch-window timer so stragglers can coalesce. On
// a shared slot each tenant waits at most its OWN window: when the
// armed deadline (set by a slower tenant's window) lands later than
// this arrival's, the timer is re-armed to the sooner deadline, so an
// Interactive request is never held behind a Batch tenant's much
// longer coalescing wait.
func (f *fleet) poke(r *replica, t *tenantState, now sim.Time) {
	if r.retired {
		return
	}
	if r.cur != nil {
		f.maybePreempt(r, now)
		return
	}
	// A non-coalescing batcher (continuous LLM, disagg) never waits at
	// the door: joins happen at iteration boundaries, so an idle slot
	// starts work immediately — but only non-coalescing work. On a
	// shared slot the best work can be a PEER's queue still coalescing
	// under an armed batch-window timer; launching it early here would
	// defeat the peer's batching, so anything else keeps its own trigger
	// (timer, completion, or a suspended batch's resume through the
	// regular dispatch path).
	if !t.batcher.coalesces() {
		if len(r.susp) > 0 {
			f.dispatch(r, now)
			return
		}
		if q, kind := f.bestWork(r); q != nil && !q.ten.batcher.coalesces() {
			f.launch(r, q, kind, now, 0)
		}
		return
	}
	if len(r.queueFor(t).reqs) >= t.cfg.MaxBatch {
		f.dispatch(r, now)
		return
	}
	deadline := now + sim.Time(t.batchWindow) + 1
	if r.timerSet {
		if deadline >= r.timerAt {
			return
		}
		f.eng.Cancel(r.timer)
	}
	r.timerSet = true
	r.timerAt = deadline
	r.timer = f.eng.At(deadline, func(now sim.Time) {
		r.timerSet = false
		if r.cur == nil && !r.retired {
			f.dispatch(r, now)
		}
	})
}

// dispatch fills a free slot: resume the most recently suspended batch
// or launch from the best ready queue — and under Preempt, let a
// strictly higher-priority queue bypass the suspended batch while its
// preempt budget lasts. A draining slot with nothing left retires.
func (f *fleet) dispatch(r *replica, now sim.Time) {
	if r.retired || r.cur != nil {
		return
	}
	if n := len(r.susp); n > 0 {
		top := r.susp[n-1]
		if f.cfg.Preempt {
			if q, kind := f.bestWork(r); q != nil && q.ten.cfg.Priority > top.ten.cfg.Priority &&
				f.creditLeft(top, now) > 0 {
				// A bypass spends the same aging credit a preemption
				// does — the victim keeps waiting, and that wait is what
				// the credit denominates.
				top.preempts++
				if top.preempts > top.ten.maxPreempts {
					top.ten.maxPreempts = top.preempts
				}
				f.obs.bypass(r, top, now)
				f.launch(r, q, kind, now, 0)
				return
			}
		}
		r.susp = r.susp[:n-1]
		f.resume(r, top, now)
		return
	}
	if q, kind := f.bestWork(r); q != nil {
		f.launch(r, q, kind, now, 0)
		return
	}
	if r.draining && r.idleEmpty() {
		f.retire(r, now)
	}
}

// startSegment puts batch b in service on slot r and schedules the
// segment's completion: restore debt first, then the remaining service.
func (f *fleet) startSegment(r *replica, b *batch, now sim.Time) {
	b.started = now
	b.slot = r
	r.cur = b
	f.obs.batchStart(r, b, now)
	seg := b.restore + b.remaining
	b.doneH = f.eng.After(sim.Time(seg)+1, b.done)
}

// finish retires a completed invocation through its tenant's batcher —
// per-request latencies for single-shot batches, generation
// bookkeeping for LLM kinds (llm.go) — settles the work-conservation
// ledger, then refills the slot. A batcher may return a chained batch
// to keep the slot occupied (the static LLM prefill chains its decode
// leg, static batching's defining trait).
func (f *fleet) finish(r *replica, b *batch, now sim.Time) {
	t := b.ten
	f.obs.batchEnd(r, b, now)
	chain := t.batcher.finish(r, b, now)
	r.busyEUCycles += (b.restore + b.remaining) * float64(r.nm+r.nv)
	t.servedCycles += b.remaining
	r.cur = nil
	if r.preemptSet { // defensive: a preemption can never outlive its target
		f.eng.Cancel(r.preemptH)
		r.preemptSet = false
	}
	wasDecode := b.kind == kindLLMDecode
	f.putBatch(b)
	if chain != nil {
		f.startSegment(r, chain, now)
		return
	}
	f.obs.slotIdle(r, now)
	// A crash-time rebalance that found its movable sequences locked
	// inside this very iteration parked itself; the batch boundary is
	// the first instant their state is frozen and shippable.
	if wasDecode && t.llm != nil && t.llm.rebalPending {
		t.llm.rebalPending = false
		f.rebalanceDecode(t, now)
	}
	f.dispatch(r, now)
}

// maybePreempt checks whether the running batch should yield to a
// waiting higher-priority one and, if so, schedules the suspension at
// the next µTOp-quantum boundary (sched.CheckpointAt). Each segment is
// guaranteed at least one quantum of fresh progress, so preemption can
// never livelock a batch, and MaxPreemptsPerBatch caps how often one
// batch yields at all.
func (f *fleet) maybePreempt(r *replica, now sim.Time) {
	if !f.cfg.Preempt || r.cur == nil || r.preemptSet {
		return
	}
	b := r.cur
	q, _ := f.bestWork(r)
	if q == nil || q.ten.cfg.Priority <= b.ten.cfg.Priority {
		return
	}
	if f.creditLeft(b, now) <= 0 {
		return // aging credit exhausted: the batch runs non-preemptible
	}
	done := b.total - b.remaining
	serviceStart := float64(b.started) + b.restore
	elapsed := done + (float64(now) - serviceStart)
	if elapsed < done {
		elapsed = done // still paying the restore: no service progress yet
	}
	rp := sched.CheckpointAt(b.total, elapsed, f.cfg.PreemptQuantumCycles)
	if rp.Completed <= done {
		// Sitting exactly on the last checkpoint: insist on one quantum
		// of fresh progress before yielding again.
		rp = sched.CheckpointAt(b.total, done+f.cfg.PreemptQuantumCycles, f.cfg.PreemptQuantumCycles)
	}
	if rp.Remaining < 1 {
		return // the batch completes at (or within a cycle of) the boundary
	}
	at := serviceStart + (rp.Completed - done)
	r.preemptSet = true
	r.preemptH = f.eng.At(sim.Time(at)+1, func(now sim.Time) { f.suspend(r, b, rp, now) })
}

// suspend checkpoints the running batch at its quantum boundary: the
// completed fraction rp reports is banked (work conservation: served +
// Remaining == total exactly), the checkpoint save is charged to the
// slot, and the waiting higher-priority batch launches behind it.
func (f *fleet) suspend(r *replica, b *batch, rp sched.ResumePoint, now sim.Time) {
	r.preemptSet = false
	if r.cur != b {
		return // the batch finished first (defensive; finish cancels us)
	}
	q, kind := f.bestWork(r)
	if q == nil || q.ten.cfg.Priority <= b.ten.cfg.Priority {
		return // urgency evaporated before the boundary (defensive)
	}
	f.eng.Cancel(b.doneH)
	t := b.ten
	t.servedCycles += rp.Completed - (b.total - b.remaining)
	r.busyEUCycles += float64(now-b.started) * float64(r.nm+r.nv)
	b.remaining = rp.Remaining
	b.preempts++
	if b.preempts > t.maxPreempts {
		t.maxPreempts = b.preempts
	}
	t.preempted++
	q.ten.preemptsIssued++
	sw := f.switches.RecordPreempt(r.nm, r.nv)
	t.stolenCycles += sw
	r.cur = nil
	b.waiting, b.waitFrom = true, now
	r.susp = append(r.susp, b)
	f.obs.suspend(r, b, now)
	// The preemptor pays the victim's checkpoint save before it runs.
	f.launch(r, q, kind, now, sw)
}

// resume restores a suspended batch: it owes exactly its banked
// remaining service plus the checkpoint-restore debt. The closed
// suspension interval is charged against the batch's aging credit.
func (f *fleet) resume(r *replica, b *batch, now sim.Time) {
	t := b.ten
	if b.waiting {
		b.victimWait += float64(now - b.waitFrom)
		b.waiting = false
		if b.victimWait > t.maxVictimWait {
			t.maxVictimWait = b.victimWait
		}
	}
	sw := f.switches.RecordResume(r.nm, r.nv)
	b.restore = sw
	t.resumes++
	t.stolenCycles += sw
	f.obs.resume(r, b, now)
	f.startSegment(r, b, now)
}
