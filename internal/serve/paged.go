package serve

import (
	"neu10/internal/model"
	"neu10/internal/obs"
	"neu10/internal/sim"
)

// Paged KV's eviction half (the policy half of kv_paged.go): the
// youngest-first victims launchDecode (llm.go) picks under block
// pressure evict here, by recompute or by the swap-out/swap-in pipeline
// over the host link.

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
	r.kv.drop(s, float64(now))
	q.removeRunning(s)
	// Replay with the original arrival — the eviction penalty lands on
	// the SLO — exactly the crash-replay shape (crashSeqOutcome).
	// Requeued at the FRONT: the victim re-admits before newer arrivals,
	// vLLM's preemption re-entry order, which also keeps it from
	// starving.
	q.reqs = append(q.reqs, request{})
	copy(q.reqs[1:], q.reqs)
	q.reqs[0] = s.replay()
	f.obs.evicted(t, r, s, now)
	f.putSeq(s)
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
	p.a.drop(s, float64(now))
	s.hit = 0
	s.swapped, s.swapReady = true, false
	bytes := model.LLMKVTransferBytes(s.ctx)
	p.swapOutBytes += bytes
	s.flight = p.hostLink.Start(bytes, func(at sim.Time) {
		p.dropFlight(s.flight)
		s.swapReady = true
		f.obs.seg(t, s.req.id, obs.SegSwapQ, at)
		f.drainSwaps(r, at)
	})
	p.flights = append(p.flights, s.flight)
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
		if p.a.avail() < blocks {
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
		s.flight = p.hostLink.Start(bytes, func(at sim.Time) {
			p.dropFlight(s.flight)
			f.swapInLanded(r, s, at)
		})
		p.flights = append(p.flights, s.flight)
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
