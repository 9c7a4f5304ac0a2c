package serve

import (
	"fmt"

	"neu10/internal/cluster"
	"neu10/internal/core"
	"neu10/internal/model"
	"neu10/internal/sim"
)

// The autoscaler: a periodic control loop that compares each tenant's
// windowed p99 latency against its SLO and adjusts the tenant's vNPU
// fleet through the paper's machinery — every replica is sized by the
// §III-B allocator (EU budget → utilization-optimal ME:VE split) and
// placed by the §III-C mapper under the configured cluster policy.
//
// Decision ladder per tenant, per interval:
//
//  1. violated & below MaxReplicas      → scale OUT: spawn one replica.
//  2. violated & at MaxReplicas         → scale UP: spawn one replica at
//     EUs+2 (make-before-break) and drain a small one — the vertical
//     grow path, re-running the allocator at the larger budget.
//  3. calm & above MinReplicas          → scale IN: drain one replica.
//  4. calm & grown & at MinReplicas     → scale DOWN: spawn one replica
//     at EUs−2 and drain a big one — vertical shrink back toward the
//     configured budget.
//
// "Violated" means the window saw rejections, a p99 above
// ScaleUpP99Frac×SLO, or queued work with zero completions (a stalled
// fleet has no percentiles to read). "Calm" means no rejections and a
// p99 under ScaleDownP99Frac×SLO. Draining replicas stop receiving new
// requests and retire once their queue empties, so no admitted request
// is ever dropped by a scaling action.

// scheduleScale runs the control loop every `every` cycles until the
// scenario's traffic ends.
func (f *fleet) scheduleScale(every float64) {
	var tick func(at float64)
	tick = func(at float64) {
		if at > f.durCycles {
			return
		}
		f.eng.At(sim.Time(at), func(now sim.Time) {
			f.snapshot(float64(now))
			for _, t := range f.tenants {
				f.scaleTenant(t, now)
			}
			tick(at + every)
		})
	}
	tick(every)
}

func (f *fleet) scaleTenant(t *tenantState, now sim.Time) {
	if t.disagg() != nil {
		f.scaleTenantDisagg(t, now)
		return
	}
	// Resurrection floor, checked BEFORE the ladder: MinReplicas is a
	// capacity promise, not a decay asymptote. A fleet crashed below it
	// (fault.go) presents an empty window — no samples, and a backlog of
	// zero once everything shed — which the ladder reads as idle calm;
	// without this a tenant crashed to nothing would stay dead forever
	// while every arrival sheds at the door. Warm spares raise the floor
	// the same way they raised the initial spawn.
	floor := t.cfg.MinReplicas + f.warmSpares()
	for t.activeCount() < floor {
		if err := f.spawnReplica(t, t.curEUs, RoleMixed); err != nil {
			t.scaleFails++
			break
		}
		t.scaleUps++
	}
	samples := t.windowLat.Count()
	p99 := t.windowLat.P99()
	backlog := f.tenantBacklog(t)
	violated := t.windowRejected > 0 ||
		(samples > 0 && p99 > f.cfg.ScaleUpP99Frac*t.sloCycles) ||
		(samples == 0 && backlog > t.cfg.MaxBatch)
	// An empty window is read three ways, not two. With queued or
	// suspended work it is either violated (deep backlog, above) or a
	// deliberate HOLD (work in flight but nothing completed — a
	// preemption-heavy interval, or service times longer than the
	// window — where percentiles would be guesses). With no work at all
	// it DECAYS: a truly idle tenant is calm, so the fleet shrinks
	// toward MinReplicas instead of freezing at its last size forever.
	idle := samples == 0 && backlog == 0
	calm := t.windowRejected == 0 &&
		((samples > 0 && p99 < f.cfg.ScaleDownP99Frac*t.sloCycles) || idle)

	switch {
	case violated && t.activeCount() < t.cfg.MaxReplicas:
		if err := f.spawnReplica(t, t.curEUs, RoleMixed); err != nil {
			t.scaleFails++
		} else {
			t.scaleUps++
		}
	case violated && f.splitFits(t, t.curEUs+2):
		// Horizontal headroom exhausted: grow the vNPU size instead.
		if err := f.spawnReplica(t, t.curEUs+2, RoleMixed); err != nil {
			t.scaleFails++
		} else {
			t.curEUs += 2
			t.resizes++
			f.drainOne(t, RoleMixed, now, true)
		}
	case calm && t.activeCount() > floor:
		f.drainOne(t, RoleMixed, now, false)
		t.scaleDowns++
	case calm && t.curEUs > t.cfg.EUs:
		// Idle and previously grown: shrink back toward the configured
		// budget, again make-before-break.
		if err := f.spawnReplica(t, t.curEUs-2, RoleMixed); err != nil {
			t.scaleFails++
		} else {
			t.curEUs -= 2
			t.resizes++
			f.drainOne(t, RoleMixed, now, true)
		}
	}
	t.windowLat.Reset()
	t.windowRejected = 0
}

// scaleTenantDisagg runs the two independent per-pool control loops of
// a disaggregated tenant. Each pool reads its OWN signal — the shared
// end-to-end p99 would conflate a slow link, a prompt burst and a
// decode backlog into one number and scale the wrong pool:
//
//   - The prefill pool scales against windowed p99 QUEUE DELAY (arrival
//     → first prefill invocation) vs prefillSLO, plus admission
//     rejections — arrivals only ever touch prefill slots, so sheds and
//     queue growth are prefill-pool symptoms by construction.
//   - The decode pool scales against windowed TPOT p99 vs tpotSLO,
//     plus migration stalls — a prefill completion that found no
//     admitting decode slot is a direct "decode pool full" signal, and
//     reacting to it drains the parked migrations.
//
// Both pools apply the same hold/decay reading of an empty window as
// the colocated ladder; vertical resizes stay a colocated-only move
// (one EU budget serves both pools).
func (f *fleet) scaleTenantDisagg(t *tenantState, now sim.Time) {
	d := t.cfg.LLM.Disagg
	l := t.llm

	// Per-pool resurrection floors — see scaleTenant: a pool crashed
	// below its Min (+ warm spares) must come back regardless of what
	// the windowed signals say about an empty window.
	preFloor := d.MinPrefill + f.warmSpares()
	for t.activeRole(RolePrefill) < preFloor {
		if err := f.spawnReplica(t, t.curEUs, RolePrefill); err != nil {
			t.scaleFails++
			break
		}
		t.scaleUps++
	}
	decFloor := d.MinDecode + f.warmSpares()
	for t.activeRole(RoleDecode) < decFloor {
		if err := f.spawnReplica(t, t.curEUs, RoleDecode); err != nil {
			t.scaleFails++
			break
		}
		t.scaleUps++
		f.drainMigQ(t, now)
	}

	// The pool's backlog is queued arrivals PLUS prompts mid-prefill —
	// a window with empty queues but chunked prefills still in flight
	// is busy, not idle (sequences already handed to migration hold no
	// prefill compute and do not count).
	preBacklog := 0
	for _, r := range t.replicas {
		if r.role == RolePrefill {
			if q := r.queueFor(t); q != nil {
				preBacklog += len(q.reqs)
				for _, s := range q.running {
					if s.promptDone < s.req.prompt {
						preBacklog++
					}
				}
			}
		}
	}
	waitN := l.windowWait.Count()
	waitP99 := l.windowWait.P99()
	preViolated := t.windowRejected > 0 ||
		(waitN > 0 && waitP99 > f.cfg.ScaleUpP99Frac*t.prefillSLO) ||
		(waitN == 0 && preBacklog > t.cfg.MaxBatch)
	preIdle := waitN == 0 && preBacklog == 0
	preCalm := t.windowRejected == 0 &&
		((waitN > 0 && waitP99 < f.cfg.ScaleDownP99Frac*t.prefillSLO) || preIdle)
	switch {
	case preViolated && t.activeRole(RolePrefill) < d.MaxPrefill:
		if err := f.spawnReplica(t, t.curEUs, RolePrefill); err != nil {
			t.scaleFails++
		} else {
			t.scaleUps++
		}
	case preCalm && t.activeRole(RolePrefill) > preFloor:
		f.drainOne(t, RolePrefill, now, false)
		t.scaleDowns++
	}

	decBusy := len(l.migQ)
	for _, r := range t.replicas {
		if r.role == RoleDecode {
			if q := r.queueFor(t); q != nil {
				decBusy += len(q.running)
			}
			decBusy += r.inbound
		}
	}
	tpotN := l.windowTPOT.Count()
	tpotP99 := l.windowTPOT.P99()
	decViolated := l.windowMigStalls > 0 ||
		(tpotN > 0 && tpotP99 > f.cfg.ScaleUpP99Frac*t.tpotSLO)
	decIdle := tpotN == 0 && decBusy == 0
	// A parked migration queue vetoes calm outright: the backlog shows
	// up as migration WAIT, not TPOT (decode iterations stay healthy by
	// construction), so per-iteration percentiles alone would happily
	// drain the exact pool whose admission is the bottleneck.
	decCalm := l.windowMigStalls == 0 && len(l.migQ) == 0 &&
		((tpotN > 0 && tpotP99 < f.cfg.ScaleDownP99Frac*t.tpotSLO) || decIdle)
	switch {
	case decViolated && t.activeRole(RoleDecode) < d.MaxDecode:
		if err := f.spawnReplica(t, t.curEUs, RoleDecode); err != nil {
			t.scaleFails++
		} else {
			t.scaleUps++
			// A fresh decode slot can admit parked migrations immediately.
			f.drainMigQ(t, now)
		}
	case decCalm && t.activeRole(RoleDecode) > decFloor:
		f.drainOne(t, RoleDecode, now, false)
		t.scaleDowns++
	}

	l.windowWait.Reset()
	l.windowTPOT.Reset()
	l.windowMigStalls = 0
	t.windowLat.Reset()
	t.windowRejected = 0
}

// tenantBacklog counts t's own outstanding requests — queued, in
// service or suspended — across every slot in its serving group. On
// shared slots this deliberately follows the tenant's requests to
// peers' replicas: each tenant autoscales against its own demand, not
// the pool's.
func (f *fleet) tenantBacklog(t *tenantState) int {
	n := 0
	for _, p := range t.peers {
		for _, r := range p.replicas {
			if q := r.queueFor(t); q != nil {
				n += len(q.reqs) + len(q.running)
			}
			if r.cur != nil && r.cur.ten == t && r.cur.kind == kindInvoke {
				n += len(r.cur.reqs)
			}
			for _, b := range r.susp {
				if b.ten == t && b.kind == kindInvoke {
					n += len(b.reqs)
				}
			}
		}
	}
	return n
}

// splitFits reports whether the allocator's split at the given EU budget
// can map onto one physical core at all.
func (f *fleet) splitFits(t *tenantState, eus int) bool {
	nm, nv, err := f.alloc.ChooseSplit(t.profile.M, t.profile.V, eus)
	if err != nil {
		return false
	}
	return nm <= f.cfg.Core.MEs && nv <= f.cfg.Core.VEs
}

// spawnReplica sizes a new vNPU with the §III-B allocator at the given
// EU budget, maps it through the §III-C mapper under the fleet's
// placement policy, and puts it in service. For disaggregated tenants
// the role specializes the slot (and its KV floor: a prefill slot only
// ever holds prompt KV); colocated callers pass RoleMixed. Spawning
// measures no cost: each launch prices its batch through the CostDB,
// which measures an entry the first time any slot asks for it.
func (f *fleet) spawnReplica(t *tenantState, eus int, role Role) error {
	a, err := f.alloc.Allocate(t.profile, t.footprint, eus)
	if err != nil {
		return err
	}
	vc := f.alloc.ConfigFor(a)
	if vc.NumMEsPerCore > f.cfg.Core.MEs || vc.NumVEsPerCore > f.cfg.Core.VEs {
		return fmt.Errorf("serve: %dME+%dVE vNPU exceeds the physical core", vc.NumMEsPerCore, vc.NumVEsPerCore)
	}
	// Cap memory so several tenants can share one pNPU's HBM — the same
	// collocation headroom internal/cluster's request catalog leaves.
	if vc.MemSizePerCore > f.cfg.Core.HBMBytes/2 {
		vc.MemSizePerCore = f.cfg.Core.HBMBytes / 2
	}
	// LLM peers need a KV-cache partition carved out of this slot's HBM
	// (§III memory partitioning): whatever MemSizePerCore leaves after
	// the LLM's resident weights, block-granular. A slot whose share
	// group includes LLM peers must provision for them even when its
	// owner's own model is small: its partition grows to the LLM weights
	// plus at least one maximal request's KV per LLM peer — the floor
	// below which a queue head could block forever.
	var kv kvBackend
	{
		var weights, minKV int64
		blockTokens, capOverride, anyLLM := 0, 0, false
		for _, p := range t.peers {
			if p.llm == nil {
				continue
			}
			anyLLM = true
			weights += model.LLMWeightBytes()
			if blockTokens == 0 {
				blockTokens = p.cfg.LLM.BlockTokens
			}
			if p.cfg.LLM.KVCapTokens > 0 {
				capOverride = p.cfg.LLM.KVCapTokens
			}
			worst := p.cfg.LLM.Trace.MaxTokens()
			if role == RolePrefill && f.cfg.Faults == nil {
				// A prefill slot only ever holds prompt KV: generated
				// tokens live on the decode side of the migration. Under
				// fault injection a crash replay folds generated tokens
				// back into the prompt (up to MaxTokens−1), so faulted
				// fleets keep the full floor — otherwise a replayed head
				// could block the prefill queue forever.
				worst = p.cfg.LLM.Trace.MaxPrompt()
			}
			worstTokens := (worst + blockTokens - 1) / blockTokens * blockTokens
			minKV += int64(worstTokens) * model.LLMKVBytesPerToken()
		}
		if anyLLM {
			if need := weights + minKV; vc.MemSizePerCore < need {
				if need > f.cfg.Core.HBMBytes {
					return fmt.Errorf("serve: tenant %s: share group needs %d HBM bytes for LLM weights+KV, core has %d",
						t.cfg.Name, need, f.cfg.Core.HBMBytes)
				}
				vc.MemSizePerCore = need
			}
			capBytes := vc.MemSizePerCore - weights
			if capOverride > 0 {
				capBytes = int64(capOverride) * model.LLMKVBytesPerToken()
			}
			kv = f.newKVBackend(t, capBytes, blockTokens)
			for _, p := range t.peers {
				if p.llm == nil {
					continue
				}
				worstTok := p.cfg.LLM.Trace.MaxTokens()
				if role == RolePrefill && f.cfg.Faults == nil {
					worstTok = p.cfg.LLM.Trace.MaxPrompt()
				}
				// The floor holds under EITHER backend: with full
				// reservation it keeps the queue head admissible; with
				// paging it guarantees one maximal sequence can always be
				// made resident by evicting everything else — the
				// eviction-progress guarantee.
				if worst := kv.blocksFor(worstTok); worst > kv.total() {
					return fmt.Errorf("serve: tenant %s: %s replica KV capacity of %d blocks cannot hold one maximal request of %s (%d blocks)",
						t.cfg.Name, role, kv.total(), p.cfg.Name, worst)
				}
			}
		}
	}
	v := &core.VNPU{ID: f.nextVNPU, Tenant: t.cfg.Name, Config: vc, State: core.StateCreated}
	f.nextVNPU++
	if err := f.mapper.Map(v, core.SpatialIsolated); err != nil {
		f.mapRejects++
		return err
	}
	f.mapAccepts++
	now := float64(f.eng.Now())
	f.snapshot(now)
	f.allocatedEUs += vc.TotalEUs()
	r := &replica{id: t.nextReplicaID, uid: f.nextUID, ten: t, vnpu: v, nm: a.MEs, nv: a.VEs, eus: eus, role: role, kv: kv}
	f.nextUID++
	t.nextReplicaID++
	if p, ok := kv.(*pagedKV); ok {
		// The paged backend needs its slot for swap scheduling (link
		// naming, wake-ups); the ledger itself never looks back.
		p.bind(r)
	}
	for _, p := range t.peers {
		r.qs = append(r.qs, slotQueue{ten: p})
	}
	t.replicas = append(t.replicas, r)
	if n := t.activeCount(); n > t.peakReplicas {
		t.peakReplicas = n
	}
	switch role {
	case RolePrefill:
		if n := t.activeRole(RolePrefill); n > t.prefPeak {
			t.prefPeak = n
		}
	case RoleDecode:
		if n := t.activeRole(RoleDecode); n > t.decPeak {
			t.decPeak = n
		}
	}
	t.replicaTL.Add(now, float64(t.activeCount()))
	f.obs.spawn(r, now)
	// Recovery milestone (fault.go): the first time a crashed tenant's
	// active count regains its pre-fault level — through emergency
	// spawns, the resurrection floor, or the ordinary ladder — closes
	// its time-to-recover clock.
	if t.crashAt > 0 && t.recoveredAt == 0 && t.activeCount() >= t.preFaultActive {
		t.recoveredAt = now
	}
	return nil
}

// drainOne marks one replica of the given role as draining: the router
// (and, for decode slots, the migration target picker) stops sending it
// work and it retires once idle. With bySize, the replica whose EU
// budget differs most from the tenant's current target goes first (the
// vertical-resize path retiring the old size); otherwise the
// least-backlogged goes (the cheapest to finish off).
func (f *fleet) drainOne(t *tenantState, role Role, now sim.Time, bySize bool) {
	var pick *replica
	score := func(r *replica) int {
		if bySize {
			d := r.eus - t.curEUs
			if d < 0 {
				d = -d
			}
			// Most-mismatched size first; backlog breaks ties.
			return -(d*1_000_000 - r.backlog())
		}
		return r.backlog() + r.inbound
	}
	for _, r := range t.replicas {
		if r.draining || r.role != role {
			continue
		}
		if pick == nil || score(r) < score(pick) || (score(r) == score(pick) && r.uid > pick.uid) {
			// Prefer the youngest among equals: older replicas carry the
			// longer-lived queues.
			pick = r
		}
	}
	if pick == nil {
		return
	}
	pick.draining = true
	f.obs.drain(pick, now)
	if pick.idleEmpty() {
		f.retire(pick, now)
	}
	t.replicaTL.Add(float64(now), float64(t.activeCount()))
}

// retire unmaps a drained replica and returns its resources to the
// fleet.
func (f *fleet) retire(r *replica, now sim.Time) {
	t := r.ten
	if r.retired {
		return
	}
	r.retired = true
	if r.timerSet {
		f.eng.Cancel(r.timer)
		r.timerSet = false
	}
	if r.preemptSet {
		f.eng.Cancel(r.preemptH)
		r.preemptSet = false
	}
	f.obs.retire(r, now)
	f.snapshot(float64(now))
	f.allocatedEUs -= r.vnpu.Config.TotalEUs()
	f.busySum += r.busyEUCycles
	if r.kv != nil {
		t.foldKV(r.kv, float64(now))
	}
	f.mapper.Unmap(r.vnpu)
	for i, x := range t.replicas {
		if x == r {
			t.replicas = append(t.replicas[:i], t.replicas[i+1:]...)
			break
		}
	}
}

// snapshot accrues the time-weighted fleet accumulators (allocated EU
// fraction, stranded EUs) up to now — the lazy-update pattern shared
// with internal/cluster's churn study.
func (f *fleet) snapshot(now float64) {
	dt := now - f.lastSnap
	if dt <= 0 {
		return
	}
	f.allocArea += float64(f.allocatedEUs) * dt
	f.strandArea += float64(cluster.StrandedEUs(f.mapper)) * dt
	f.lastSnap = now
}
