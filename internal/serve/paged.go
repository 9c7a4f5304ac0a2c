package serve

import (
	"neu10/internal/model"
	"neu10/internal/obs"
	"neu10/internal/sim"
)

// Paged decode scheduling (the policy half of kv_paged.go): block
// grants at iteration launch, youngest-first sequence eviction under
// pressure, and the swap-out/swap-in pipeline over the host link.
//
// The contract with the slot machinery is the same as every batcher
// arm's: next() (via pagedDecodeReady) only proposes a decode the
// launch can actually run, and both run inside one event, so the
// predicate's view cannot go stale before the grants happen.

// pagedDecodeReady reports whether a paged decode iteration can launch:
// there is a decodable resident sequence (prefilled, not frozen by a
// swap or evacuation, output unfinished) AND the iteration can make
// progress — some candidate already has room for its next token, or a
// block can be granted (free or reclaimable-cold), or there are at
// least two candidates so the launch can evict the youngest to feed the
// oldest. A lone candidate with no grantable block cannot help itself
// by eviction, so the slot waits for a completion or swap landing.
func pagedDecodeReady(p *pagedKV, q *slotQueue) (sim.Time, bool) {
	var at sim.Time
	cands, allNeed := 0, true
	for _, s := range q.running {
		if !s.prefilled || s.migrating || s.swapped || s.produced >= s.req.output {
			continue
		}
		if cands == 0 {
			at = s.req.at // FIFO key: the oldest decodable sequence's arrival
		}
		cands++
		if !p.needsBlock(s) {
			allNeed = false
		}
	}
	if cands == 0 {
		return 0, false
	}
	if !allNeed || p.avail() >= 1 || cands >= 2 {
		return at, true
	}
	return 0, false
}

// launchPagedDecode starts one decode iteration under block-on-demand
// allocation. Sequences needing a block for the token this iteration
// produces are granted one; if demand exceeds what is free plus cold,
// the YOUNGEST sequences evict (vLLM's preemption order — they lose the
// least work and the oldest finish soonest) until demand fits or one
// sequence remains. Any still-ungrantable sequence just sits this
// iteration out.
func (c *continuousLLM) launchPagedDecode(r *replica, q *slotQueue, now sim.Time, restore float64) {
	f, t := c.f, q.ten
	p := r.kv.paged
	var live []*llmSeq
	for _, s := range q.running {
		if s.prefilled && !s.migrating && !s.swapped && s.produced < s.req.output {
			live = append(live, s)
		}
	}
	need := 0
	for _, s := range live {
		if p.needsBlock(s) {
			need++
		}
	}
	for need > p.avail() && len(live) > 1 {
		victim := live[len(live)-1]
		live = live[:len(live)-1]
		if p.needsBlock(victim) {
			need--
		}
		f.evictSeq(r, q, victim, now)
	}
	b := f.takeBatch()
	b.ten, b.restore, b.kind = t, restore, kindLLMDecode
	maxCtx := 0
	for _, s := range live {
		if p.needsBlock(s) {
			if p.avail() < 1 {
				continue // skipped this iteration; retried at the next
			}
			p.extendSeq(s, float64(now))
		}
		b.seqs = append(b.seqs, s)
		if s.ctx > maxCtx {
			maxCtx = s.ctx
		}
	}
	if len(b.seqs) == 0 {
		panic("serve: paged decode launch granted no sequence")
	}
	f.obs.launched(b, now)
	cycles, err := f.costs.LLMCycles(PhaseDecode, len(b.seqs), maxCtx, r.nm, r.nv)
	f.costFailed("paged decode iteration", err)
	b.total, b.remaining = cycles, cycles
	t.issuedServiceCycles += cycles
	f.startSegment(r, b, now)
}

// evictSeq removes one victim from the decode set per the tenant's
// eviction policy: recompute drops its device state and replays it
// through admission (crash-replay style, prefix cache softening the
// re-prefill), swap freezes it in place and ships its KV to host
// memory.
func (f *fleet) evictSeq(r *replica, q *slotQueue, s *llmSeq, now sim.Time) {
	t := q.ten
	p := r.kv.paged
	p.evictions++
	if p.evict == KVEvictSwap {
		f.swapOut(p, r, s, now)
		return
	}
	p.evictRecompute++
	p.recomputeTokens += int64(s.ctx - s.hit)
	p.unpin(s)
	if s.blocks > 0 {
		p.a.free(s.blocks, float64(now))
		s.blocks = 0
	}
	p.a.curSeqs--
	q.removeRunning(s)
	// Replay with the original arrival — the eviction penalty lands on
	// the SLO — and the generated prefix folded into the prompt, exactly
	// the crash-replay shape (crashSeqOutcome). Requeued at the FRONT:
	// the victim re-admits before newer arrivals, vLLM's preemption
	// re-entry order, which also keeps it from starving.
	req := s.req
	req.replay = true
	req.hadTok = true
	req.prompt = s.req.prompt + s.produced
	req.output = s.req.output - s.produced
	q.reqs = append(q.reqs, request{})
	copy(q.reqs[1:], q.reqs)
	q.reqs[0] = req
	f.obs.evicted(t, r, s, now)
}

// swapOut freezes a victim in its running set and ships its whole
// context to host memory. Its device blocks and prefix pins release
// IMMEDIATELY — the copy-out drains asynchronously while the scheduler
// reuses the pages — so a swapped sequence holds nothing on the chip,
// which is what makes the eviction loop's progress guarantee
// unconditional. The price: the return restores the full context as
// private blocks (no cache credit), and admission backpressures until
// the swap queue drains.
func (f *fleet) swapOut(p *pagedKV, r *replica, s *llmSeq, now sim.Time) {
	t := p.t
	p.evictSwap++
	p.unpin(s)
	if s.blocks > 0 {
		p.a.free(s.blocks, float64(now))
		s.blocks = 0
	}
	s.hit = 0
	s.swapped, s.swapReady = true, false
	p.a.curSeqs--
	bytes := model.LLMKVTransferBytes(s.ctx)
	p.swapOutBytes += bytes
	fl := &swapFlight{seq: s, out: true}
	fl.xfr = p.hostLink.Start(bytes, func(at sim.Time) {
		p.dropFlight(fl)
		s.swapReady = true
		f.obs.seg(t, s.req.id, obs.SegSwapQ, at)
		f.drainSwaps(r, at)
	})
	p.flights = append(p.flights, fl)
	p.swapQ = append(p.swapQ, s)
	f.obs.swapOut(t, r, s, bytes, now)
}

// drainSwaps restores swapped sequences FIFO: the head returns once its
// outbound copy landed in host memory and its full context fits on the
// device again. Called when blocks free (completeSeq) and when an
// outbound copy lands; head-of-line order keeps the pipeline
// deterministic and starvation-free.
func (f *fleet) drainSwaps(r *replica, now sim.Time) {
	p := r.kv.paged
	if p == nil || r.retired {
		return
	}
	for len(p.swapQ) > 0 {
		s := p.swapQ[0]
		if !s.swapReady {
			return
		}
		blocks := p.a.blocksFor(s.ctx)
		if !p.canAlloc(blocks) {
			return
		}
		p.swapQ = p.swapQ[1:]
		p.ensureFree(blocks, float64(now))
		p.a.alloc(blocks, float64(now))
		s.blocks = blocks
		s.swapReady = false
		f.obs.seg(p.t, s.req.id, obs.SegSwapIn, now)
		bytes := model.LLMKVTransferBytes(s.ctx)
		p.swapInBytes += bytes
		fl := &swapFlight{seq: s}
		fl.xfr = p.hostLink.Start(bytes, func(at sim.Time) {
			p.dropFlight(fl)
			f.swapInLanded(r, s, at)
		})
		p.flights = append(p.flights, fl)
	}
}

// swapInLanded unfreezes a restored sequence and wakes the slot: the
// sequence decodes again from exactly where it stopped (swap never
// replays tokens — that is recompute's trade).
func (f *fleet) swapInLanded(r *replica, s *llmSeq, now sim.Time) {
	p := r.kv.paged
	s.swapped = false
	p.a.seqIn()
	f.obs.swapIn(p.t, r, s, now)
	f.dispatch(r, now)
}
