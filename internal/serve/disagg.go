package serve

import (
	"neu10/internal/model"
	"neu10/internal/obs"
	"neu10/internal/sim"
)

// Disaggregated prefill/decode serving (LLMConfig.Disagg). The
// colocated continuous batcher time-multiplexes prefill and decode on
// the same slot, so a burst of long prompts — prefill is prioritized,
// exactly so TTFT stays low — stalls every running generation and
// inflates TPOT. Disaggregation specializes the fleet instead:
//
//	arrivals ─► prefill pool (RolePrefill; whole-prompt or chunked
//	invocations, prompt-only KV) ─► KV migration over the modeled
//	chip-to-chip link (internal/xfer; priced into TTFT) ─► decode pool
//	(RoleDecode; admission-checked continuous decode, full
//	prompt+output KV) ─► completion
//
// The migration is the subsystem's conservation-critical step. At
// migration START the full reservation is charged to the decode
// replica (so concurrent in-flight migrations can never oversubscribe
// the target); during the transfer the prompt KV is resident on BOTH
// chips — the source cannot drop pages it is still copying; at
// migration COMPLETION the prefill-side blocks are released, the
// sequence joins the decode replica's running set and its first token
// is delivered (TTFT therefore prices queue + prefill + migration). A
// prefill completion that finds no admitting decode slot parks in a
// FIFO migration queue with its prompt KV still held — that
// backpressure is deliberate: a slow link or a full decode pool
// surfaces as prefill-side KV pressure and admission stalls, not as
// silent overcommit.
//
// The same transfer path (beginTransfer/landTransfer below) ships crash
// evacuations between decode slots (recovery.go): the sequence freezes
// on the wire instead, and landing thaws it rather than delivering a
// first token.

// disaggBatcher decorates the continuous policy with role awareness:
// prefill-pool admission and (possibly chunked) prompt processing on
// RolePrefill slots, decode delegated to the wrapped continuousLLM on
// RoleDecode slots, and the KV migration between the two pools riding
// on the fleet's transfer path below.
type disaggBatcher struct {
	f     *fleet
	t     *tenantState
	inner *continuousLLM
}

// next: role-specialized slots see exactly one work kind — prompt
// processing on the prefill pool, and on the decode pool the wrapped
// policy's decode iterations (no arrival ever queues there).
func (d *disaggBatcher) next(r *replica, q *slotQueue) (batchKind, sim.Time, bool) {
	if r.role != RolePrefill {
		return d.inner.next(r, q)
	}
	key, ok := d.prefillWork(r, q)
	return kindLLMPrefill, key, ok
}

func (d *disaggBatcher) launch(r *replica, q *slotQueue, kind batchKind, now sim.Time, restore float64) {
	if kind == kindLLMPrefill {
		d.launchPrefill(r, q, now, restore)
		return
	}
	d.inner.launchDecode(r, q, now, restore)
}

func (d *disaggBatcher) finish(r *replica, b *batch, now sim.Time) *batch {
	if b.kind == kindLLMPrefill {
		d.finishPrefill(r, b, now)
		return nil
	}
	return d.inner.finish(r, b, now)
}

// coalesces: like continuous batching, a disaggregated slot starts
// work the moment it has any — chunked prefill and decode joins both
// happen at invocation boundaries, never behind a batch-window timer.
func (d *disaggBatcher) coalesces() bool                 { return false }
func (d *disaggBatcher) passedOver(*replica, *slotQueue) {}

// prefilling returns the prefill width in use on q — its in-flight
// prompts — and the FIFO key of the oldest of them.
func prefilling(q *slotQueue) (width int, key sim.Time) {
	for _, s := range q.running {
		if s.promptDone < s.req.prompt {
			if width == 0 || s.req.at < key {
				key = s.req.at
			}
			width++
		}
	}
	return width, key
}

// prefillWork reports whether slot r (RolePrefill) has launchable
// prefill work on queue q and, if so, the FIFO key of its oldest
// contributor: an in-flight chunked prompt, or the queue head if it is
// admittable (the ledger admits it and the prefill width has room).
func (d *disaggBatcher) prefillWork(r *replica, q *slotQueue) (sim.Time, bool) {
	width, key := prefilling(q)
	found := width > 0
	if len(q.reqs) > 0 && width < q.ten.cfg.MaxBatch && r.kv.canAdmit(q.reqs[0]) &&
		(!found || q.reqs[0].at < key) {
		key, found = q.reqs[0].at, true
	}
	return key, found
}

// launchPrefill starts one prefill invocation on a RolePrefill slot:
// admit queue-head requests through the shared admission loop
// (continuousLLM.admit; the ledger charges prompt KV only) while the
// prefill width has room, then advance up to MaxBatch in-flight prompts
// by one chunk each (the whole remaining prompt when chunking is off).
// next only proposes this kind when prefillWork holds, so the
// invocation always carries work.
func (db *disaggBatcher) launchPrefill(r *replica, q *slotQueue, now sim.Time, restore float64) {
	f, t := db.f, q.ten
	d := t.cfg.LLM.Disagg
	f.disarmTimer(r)
	width, _ := prefilling(q)
	db.inner.admit(r, q, nil, width, now)

	b := f.takeBatch()
	b.ten, b.restore, b.kind = t, restore, kindLLMPrefill
	maxChunk, maxCtx := 0, 0
	for _, s := range q.running {
		if s.promptDone >= s.req.prompt {
			continue
		}
		if len(b.seqs) >= t.cfg.MaxBatch {
			break
		}
		n := s.req.prompt - s.promptDone
		if d.ChunkTokens > 0 && n > d.ChunkTokens {
			n = d.ChunkTokens
		}
		b.seqs = append(b.seqs, s)
		b.chunks = append(b.chunks, n)
		if n > maxChunk {
			maxChunk = n
		}
		if s.promptDone > maxCtx {
			maxCtx = s.promptDone
		}
	}
	if len(b.seqs) == 0 {
		panic("serve: disaggregated prefill launch with no work")
	}
	f.obs.launched(b, now)
	// A chunk is NOT a fresh short prefill: its attention spans the
	// whole cached context behind it, so a late chunk of a long prompt
	// costs real work beyond the weight re-streaming. The invocation is
	// priced at the batch's widest chunk and deepest context.
	cycles, err := r.costs.prefill(len(b.seqs), maxChunk, maxCtx)
	f.costFailed("disaggregated prefill", err)
	b.total, b.remaining = cycles, cycles
	t.issuedCycles += cycles
	f.startSegment(r, b, now)
}

// finishPrefill retires one prefill invocation: every sequence
// advances by its chunk; fully prefilled prompts leave for the decode
// pool through startMigration. No token is emitted here — the first
// token is delivered when the KV lands on the decode replica.
func (d *disaggBatcher) finishPrefill(r *replica, b *batch, now sim.Time) {
	f, t := d.f, b.ten
	t.llm.prefills++
	for i, s := range b.seqs {
		s.promptDone += b.chunks[i]
		if s.promptDone >= s.req.prompt {
			s.prefDone = now
			f.obs.handoff(t, s.req.id, now)
			f.startMigration(r, s, now)
		} else {
			f.obs.seg(t, s.req.id, obs.SegChunkGap, now)
		}
	}
}

// pickDecode selects the decode replica to migrate s to: the
// least-committed non-draining RoleDecode slot (running plus inbound
// migrations, ties toward the older slot) whose ledger admits the
// sequence and whose running set has width room. Returns nil when no
// slot can admit it now.
func (f *fleet) pickDecode(t *tenantState, s *llmSeq) *replica {
	var best *replica
	bestLoad := 0
	for _, r := range t.replicas {
		if r.role != RoleDecode || r.draining {
			continue
		}
		q := r.queueFor(t)
		load := len(q.running) + r.inbound
		if load >= 2*t.cfg.MaxBatch {
			continue
		}
		if !r.kv.canAdmit(s.req) {
			continue
		}
		if best == nil || load < bestLoad || (load == bestLoad && r.uid < best.uid) {
			best, bestLoad = r, load
		}
	}
	return best
}

// dropStranded resolves the handoffs a drained engine left parked by a
// tenant with no live, non-draining decode replica: with no event left,
// its decode pool died and nothing will respawn it. Each is lost to the
// crash, and its source frees the prompt KV and serves its queue on,
// which may park more. Handoffs parked beside a live decode pool stay
// parked, for the drain checks to report. It reports whether it dropped
// any.
func (f *fleet) dropStranded() bool {
	now := f.eng.Now()
	var srcs []*replica
	for _, t := range f.tenants {
		if !t.decodeDead() {
			continue
		}
		for _, m := range t.llm.migQ {
			f.obs.crashed(t, m.seq.req.id, "migrate", now)
			m.from.queueFor(t).removeRunning(m.seq)
			m.from.kv.drop(m.seq, float64(now))
			t.crashLost++
			f.obs.lost(t, m.seq.req.id, "no-decode", now)
			f.putSeq(m.seq)
			srcs = append(srcs, m.from)
		}
		t.llm.migQ = nil
	}
	for _, r := range srcs {
		f.dispatch(r, now)
	}
	return len(srcs) > 0
}

// startMigration ships a freshly prefilled sequence's KV toward the
// decode pool, or parks it (FIFO, prompt KV still held on the prefill
// slot) when no decode replica can admit it yet.
func (f *fleet) startMigration(src *replica, s *llmSeq, now sim.Time) {
	t := src.ten
	if dst := f.pickDecode(t, s); dst != nil {
		f.beginTransfer(src, dst, s, false, now)
		return
	}
	t.llm.migQ = append(t.llm.migQ, migPending{seq: s, from: src})
	t.llm.migStalls++
	if f.cfg.Autoscale {
		t.llm.windowMigStalls++
	}
	f.obs.migStall(t, s.req.id, len(t.llm.migQ), now)
}

// beginTransfer puts one sequence's resident KV on the wire from src to
// dst: a prefill→decode handoff, or (evac) a crash evacuation of a
// mid-generation sequence. dst's ledger footprint — the full
// prompt+output reservation — is charged at start, so concurrent
// transfers can never oversubscribe it; src's blocks stay held until
// the last byte lands — the pages cannot be dropped while they are
// still being copied. An evacuated sequence freezes (no decode advances
// it) while its pages are on the wire. The flight enters the tenant's
// in-flight registry so a crash can abort it mid-copy with conservation
// intact (recovery.go).
func (f *fleet) beginTransfer(src, dst *replica, s *llmSeq, evac bool, now sim.Time) {
	t := src.ten
	s.migrating = evac
	dblocks := dst.kv.footprint(s.req, 0)
	dst.kv.alloc(dblocks, float64(now))
	dst.inbound++
	bytes := model.LLMKVTransferBytes(s.ctx)
	if evac {
		t.llm.evacStarted++
	} else {
		t.llm.migrations++
	}
	fl := &migFlight{seq: s, src: src, dst: dst, dblocks: dblocks, bytes: bytes, evac: evac}
	link := f.fabric.Link(src.vnpu.Mapping.PNPU, dst.vnpu.Mapping.PNPU)
	fl.xfr = link.Start(bytes, func(now sim.Time) { f.landTransfer(fl, now) })
	t.llm.migInflight = append(t.llm.migInflight, fl)
	f.obs.xferStart(fl, link.Name(), now)
}

// landTransfer lands a KV transfer: the sequence drops from src's
// ledger (its blocks released exactly now), counts into dst's, whose
// reservation (charged at start) takes over, and joins dst's running
// set. A handoff then delivers the first
// token — TTFT prices queueing, prefill and the migration; an
// evacuated sequence thaws mid-generation. Payload bytes count at
// landing, so an aborted transfer never inflates the conservation
// ledger.
func (f *fleet) landTransfer(fl *migFlight, now sim.Time) {
	src, dst, s := fl.src, fl.dst, fl.seq
	t := src.ten
	t.llm.dropFlight(fl)
	src.kv.drop(s, float64(now))
	src.queueFor(t).removeRunning(s)
	s.blocks = fl.dblocks
	s.migrating = false
	dst.inbound--
	dst.kv.seqIn()
	dst.queueFor(t).running = append(dst.queueFor(t).running, s)
	f.obs.xferLand(fl, now)
	if fl.evac {
		t.llm.evacLanded++
		t.llm.evacBytes += fl.bytes
	} else {
		t.llm.migLanded++
		t.llm.migBytes += fl.bytes
		t.llm.migWaitCycles += float64(now - s.prefDone)
		f.emitFirstToken(t, s, now)
		if s.produced >= s.req.output {
			f.completeSeq(dst, t, s, now)
			f.putSeq(s)
		}
	}
	// Freed source KV may unblock queued admissions or a parked
	// migration; both ends have fresh scheduling state.
	f.drainMigQ(t, now)
	if src.cur == nil && !src.retired {
		f.dispatch(src, now)
	}
	if dst.cur == nil && !dst.retired {
		f.dispatch(dst, now)
	}
}

// drainMigQ starts transfers for parked sequences while decode slots
// admit them — strictly FIFO: if the head cannot be placed, everything
// behind it waits, so migration order never depends on shape.
func (f *fleet) drainMigQ(t *tenantState, now sim.Time) {
	l := t.llm
	for len(l.migQ) > 0 {
		m := l.migQ[0]
		dst := f.pickDecode(t, m.seq)
		if dst == nil {
			return
		}
		n := copy(l.migQ, l.migQ[1:])
		l.migQ[n] = migPending{}
		l.migQ = l.migQ[:n]
		f.beginTransfer(m.from, dst, m.seq, false, now)
	}
}
