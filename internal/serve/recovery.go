package serve

import "neu10/internal/sim"

// Crash recovery: the machinery that absorbs the faults fault.go
// injects. crashReplicas orchestrates one crash event end to end;
// the phases below it (teardown, sequence resolution, re-queueing,
// decode-pool evacuation) keep every conservation ledger exact.

// crashReplicas executes one crash event over its full victim set. The
// phases are strictly ordered so a pod outage can never re-route work
// onto a sibling dying in the same event:
//
//  1. bookkeeping — time-to-recover anchors per affected tenant, then
//     every victim is tombstoned (retired+draining) so routing, decode
//     picking and stale events all skip it;
//  2. migration triage — every in-flight KV transfer touching a dead
//     chip aborts with conservation intact, parked migrations whose
//     source died resolve per policy;
//  3. teardown — victims are torn out of the fleet, harvesting their
//     queued requests and running sequences;
//  4. recovery spawns — emergency replacements (RecoveryConfig) come up
//     BEFORE the harvest is re-queued, so recovered work can land on
//     them;
//  5. re-queue — harvested requests re-enter through the ordinary
//     router and admission control (full queues shed: a crash under
//     overload loses work, deterministically);
//  6. rebalance — decode-pool evacuation, re-routing of orphaned
//     migrations, and the parked-migration drain.
func (f *fleet) crashReplicas(victims []*replica, now sim.Time) {
	// Phase 1: anchors, then tombstones. preFaultActive must be read
	// before any victim is marked draining.
	var affected []*tenantState
	seen := map[*tenantState]bool{}
	for _, t := range f.tenants { // tenant-index order: deterministic
		for _, r := range victims {
			if r.ten == t && !seen[t] {
				seen[t] = true
				affected = append(affected, t)
			}
		}
	}
	for _, t := range affected {
		if t.crashAt == 0 {
			t.crashAt = float64(now)
			t.preFaultActive = t.activeCount()
		}
	}
	type respawn struct {
		t    *tenantState
		role Role
		eus  int
	}
	var respawns []respawn
	for _, r := range victims {
		if r.retired {
			continue // listed twice (overlapping chip sets); already dead
		}
		r.retired = true
		r.draining = true
		respawns = append(respawns, respawn{r.ten, r.role, r.eus})
	}

	// Phase 2: abort migrations touching a dead chip. The flight
	// registry is per owning tenant; iterate owners in tenant-index
	// order and flights in start order.
	var out []harvested
	type pokeSrc struct{ r *replica }
	var pokes []pokeSrc
	type remig struct {
		src *replica
		seq *llmSeq
	}
	var remigs []remig
	for _, t := range f.tenants {
		if t.llm == nil {
			continue
		}
		kept := t.llm.migInflight[:0]
		for _, fl := range t.llm.migInflight {
			srcDead, dstDead := fl.src.retired, fl.dst.retired
			if !srcDead && !dstDead {
				kept = append(kept, fl)
				continue
			}
			fl.xfr.Cancel()
			if fl.evac {
				t.llm.evacAborted++
			} else {
				t.llm.migAborted++
			}
			if !dstDead {
				// The reservation charged to the target at transfer start
				// rolls back exactly — the landing that would have consumed
				// it can never come.
				fl.dst.kv.free(fl.dblocks, float64(now))
				fl.dst.inbound--
			}
			switch {
			case srcDead:
				// The payload's source pages died mid-copy: the sequence's
				// KV is gone wherever the transfer was headed.
				f.obs.xferLost(fl, now)
				fl.src.queueFor(t).removeRunning(fl.seq)
				f.crashSeqOutcome(t, fl.seq, &out, now)
			case fl.evac:
				// Target died under an evacuation: the sequence never left
				// the source — unfreeze it and let the source keep decoding.
				fl.seq.migrating = false
				f.obs.evacAbort(t, fl.seq.req.id, now)
				pokes = append(pokes, pokeSrc{fl.src})
			default:
				// Target died under a prefill→decode handoff: the prompt KV
				// is still whole on the source; re-route after teardown.
				remigs = append(remigs, remig{fl.src, fl.seq})
			}
		}
		for i := len(kept); i < len(t.llm.migInflight); i++ {
			t.llm.migInflight[i] = nil
		}
		t.llm.migInflight = kept
		// Parked migrations whose source died lost their prompt KV with
		// the chip; resolve them per policy (FIFO order preserved). The
		// sequence also leaves the victim's running set here — it is
		// resolved NOW, and the teardown below must not harvest it again.
		if len(t.llm.migQ) > 0 {
			keptQ := t.llm.migQ[:0]
			for _, m := range t.llm.migQ {
				if m.from.retired {
					f.obs.crashed(t, m.seq.req.id, "migrate", now)
					m.from.queueFor(t).removeRunning(m.seq)
					f.crashSeqOutcome(t, m.seq, &out, now)
					continue
				}
				keptQ = append(keptQ, m)
			}
			for i := len(keptQ); i < len(t.llm.migQ); i++ {
				t.llm.migQ[i] = migPending{}
			}
			t.llm.migQ = keptQ
		}
	}

	// Phase 3: teardown.
	for _, r := range victims {
		f.destroyReplica(r, now, &out)
	}

	// Phase 4: emergency spawns — replacement capacity comes up before
	// the harvest re-queues, so recovered work can route onto it.
	if rec := f.cfg.Recover; rec != nil && rec.EmergencySpawn {
		for _, rs := range respawns {
			if err := f.spawnReplica(rs.t, rs.eus, rs.role); err != nil {
				rs.t.scaleFails++
			} else {
				rs.t.emergencySpawns++
				f.obs.emergencySpawn(rs.t, rs.eus, rs.role, now)
			}
		}
	}

	// Phase 5: re-queue the harvest in recovery order (victims oldest
	// first, each victim's queues in tenant-index order, requests FIFO).
	for _, h := range out {
		f.requeue(h, now)
	}

	// Phase 6: rebalance and drain.
	if rec := f.cfg.Recover; rec != nil && rec.Evacuate {
		for _, t := range affected {
			if t.disagg() != nil {
				f.rebalanceDecode(t, now)
			}
		}
	}
	for _, rm := range remigs {
		if !rm.src.retired {
			f.startMigration(rm.src, rm.seq, now)
		}
	}
	for _, t := range f.tenants {
		if t.disagg() != nil {
			f.drainMigQ(t, now)
		}
	}
	for _, p := range pokes {
		if p.r.cur == nil && !p.r.retired {
			f.dispatch(p.r, now)
		}
	}
}

// destroyReplica tears one tombstoned victim out of the fleet: batches
// in flight are un-issued (the work-conservation ledger only ever
// counts delivered service), queued requests and running sequences are
// harvested for re-queueing, and then the slot leaves the fleet through
// removeReplica exactly as a graceful retire would.
func (f *fleet) destroyReplica(r *replica, now sim.Time, out *[]harvested) {
	t := r.ten
	t.crashes++
	f.obs.crash(r, now)
	harvestBatch := func(b *batch) {
		// Un-issue the undelivered remainder: issued−served stays exact
		// (served was settled at the last checkpoint; the partial segment
		// since then was never settled and is now never delivered).
		b.ten.issuedCycles -= b.remaining
		if b.kind == kindInvoke {
			for _, req := range b.reqs {
				f.obs.crashed(b.ten, req.id, "service", now)
				*out = append(*out, harvested{b.ten, req})
			}
		}
		// LLM batches advance sequences that live in the running sets
		// harvested below — nothing request-shaped to recover here.
		f.putBatch(b)
	}
	if b := r.cur; b != nil {
		f.eng.Cancel(b.doneH)
		// The chip was genuinely busy until the instant it died.
		r.busyEUCycles += float64(now-b.started) * float64(r.nm+r.nv)
		r.cur = nil
		harvestBatch(b)
	}
	for _, b := range r.susp {
		harvestBatch(b)
	}
	r.susp = r.susp[:0]
	for i := range r.qs {
		q := &r.qs[i]
		qt := q.ten
		for _, req := range q.reqs {
			f.obs.crashed(qt, req.id, "queue", now)
			*out = append(*out, harvested{qt, req})
		}
		q.reqs = q.reqs[:0]
		for _, s := range q.running {
			f.crashSeqOutcome(qt, s, out, now)
		}
		for j := range q.running {
			q.running[j] = nil
		}
		q.running = q.running[:0]
	}
	// The blocks die with the chip (surviving replicas' conservation is
	// what the property tests reconcile); the occupancy books fold.
	f.removeReplica(r, now)
	t.replicaTL.Add(float64(now), float64(t.activeCount()))
}

// crashSeqOutcome resolves one sequence whose resident KV died with its
// replica: re-queue it, replaying any generated prefix by folding it
// into the prompt. The KV tokens lost — everything resident at the
// crash — are itemized as recompute debt.
func (f *fleet) crashSeqOutcome(t *tenantState, s *llmSeq, out *[]harvested, now sim.Time) {
	f.obs.crashSeq(t, s, now)
	lost := 0
	if s.prefilled {
		lost = s.ctx // prompt + produced so far
	} else if s.promptDone > 0 {
		lost = s.promptDone // chunked-prefill progress
	}
	defer f.putSeq(s)
	req := s.replay()
	req.crashed = true
	if s.produced > 0 {
		t.replays++
	}
	t.recomputeTokens += int64(lost)
	f.obs.replayed(t, req.id, lost, now)
	*out = append(*out, harvested{t, req})
}

// requeue routes one harvested request back into the surviving fleet
// through the ordinary router and admission control. No survivor with
// queue room → the request is lost to the crash (counted, never
// silently dropped); the router's total-crash behavior — nil only when
// the tenant has no replicas at all — is exactly the PR-3 hardening.
func (f *fleet) requeue(h harvested, now sim.Time) {
	t := h.ten
	r := f.route(t)
	if r == nil {
		t.crashLost++
		f.obs.lost(t, h.req.id, "no-replica", now)
		return
	}
	q := r.queueFor(t)
	if len(q.reqs) >= t.cfg.QueueCap {
		t.crashLost++
		f.obs.lost(t, h.req.id, "queue-cap", now)
		return
	}
	f.obs.requeued(t, h.req.id, now)
	q.reqs = append(q.reqs, h.req)
	if len(q.reqs) > t.maxQueue {
		t.maxQueue = len(q.reqs)
	}
	t.crashRequeued++
	f.poke(r, t, now)
}

// rebalanceDecode evacuates mid-generation sequences from overloaded
// decode slots toward underloaded ones (typically fresh emergency
// spawns) after a crash: while the widest load gap is ≥ 2 sequences,
// the cheapest movable sequence (smallest resident context — least
// bytes on the wire) migrates over the interconnect. Sequences already
// migrating count toward their TARGET's load, so each move closes the
// gap by two and the loop terminates.
func (f *fleet) rebalanceDecode(t *tenantState, now sim.Time) {
	if t.disagg() == nil || f.fabric == nil {
		return
	}
	load := func(r *replica) int {
		n := r.inbound
		for _, s := range r.queueFor(t).running {
			if !s.migrating {
				n++
			}
		}
		return n
	}
	for {
		var hi, lo *replica
		for _, r := range t.replicas {
			if r.role != RoleDecode || r.draining {
				continue
			}
			l := load(r)
			if hi == nil || l > load(hi) || (l == load(hi) && r.uid < hi.uid) {
				hi = r
			}
			if lo == nil || l < load(lo) || (l == load(lo) && r.uid < lo.uid) {
				lo = r
			}
		}
		if hi == nil || lo == nil || hi == lo || load(hi)-load(lo) < 2 {
			return
		}
		if load(lo) >= 2*t.cfg.MaxBatch {
			return // the light slot has no width room either
		}
		// Cheapest movable sequence: not already migrating, not finished,
		// and not inside the decode iteration currently in flight (its
		// state must freeze for the copy). Ties break by arrival.
		inCur := func(s *llmSeq) bool {
			if hi.cur == nil {
				return false
			}
			for _, x := range hi.cur.seqs {
				if x == s {
					return true
				}
			}
			return false
		}
		var pick *llmSeq
		for _, s := range hi.queueFor(t).running {
			if !s.decodable() || inCur(s) {
				continue
			}
			if pick == nil || s.ctx < pick.ctx || (s.ctx == pick.ctx && s.req.at < pick.req.at) {
				pick = s
			}
		}
		if pick == nil {
			// Under continuous batching every resident sequence is usually
			// inside the in-flight iteration, so a crash-instant rebalance
			// finds the gap but nothing frozen to ship. Retry when the
			// iteration drains (finish() checks the flag at every decode
			// batch boundary, before the next batch collects).
			for _, s := range hi.queueFor(t).running {
				if s.decodable() && inCur(s) {
					t.llm.rebalPending = true
					break
				}
			}
			return
		}
		if !lo.kv.canAdmit(pick.req) {
			return
		}
		f.beginTransfer(hi, lo, pick, true, now)
	}
}
