package serve

import (
	"fmt"

	"neu10/internal/cluster"
	"neu10/internal/core"
	"neu10/internal/metrics"
	"neu10/internal/model"
	"neu10/internal/sim"
)

// The autoscaler: a periodic control loop that compares each replica
// pool's windowed p99 latency against its objective and adjusts the
// tenant's vNPU fleet through the paper's machinery — every replica is
// sized by the §III-B allocator (EU budget → utilization-optimal ME:VE
// split) and placed by the §III-C mapper under the configured cluster
// policy.
//
// A colocated tenant has one pool, its RoleMixed fleet, read against
// end-to-end p99 vs the SLO. A disaggregated tenant has two, each read
// against its OWN signal — the shared end-to-end p99 would conflate a
// slow link, a prompt burst and a decode backlog into one number and
// scale the wrong pool:
//
//   - prefill: windowed p99 QUEUE DELAY (arrival → first prefill
//     invocation) vs prefillSLO. Arrivals only ever touch prefill
//     slots, so rejections are prefill-pool symptoms by construction.
//   - decode: windowed TPOT p99 vs tpotSLO. A migration stall (a
//     prefill completion that found no admitting decode slot) is a
//     direct "decode pool full" signal.
//
// Decision ladder per pool, per interval:
//
//  1. violated & below max          → scale OUT: spawn one replica.
//  2. violated & at max (mixed)     → scale UP: spawn one replica at
//     EUs+2 (make-before-break) and drain a small one — the vertical
//     grow path, re-running the allocator at the larger budget.
//  3. calm & above the floor        → scale IN: drain one replica.
//  4. calm & grown & at the floor (mixed) → scale DOWN: spawn one
//     replica at EUs−2 and drain a big one — vertical shrink back
//     toward the configured budget.
//
// Vertical resizes are RoleMixed-only: one EU budget serves both
// disaggregated pools. "Violated" means the pool is hot (see readPool:
// rejections, migration stalls, or queued work with zero completions —
// a stalled pool has no percentiles to read) or its p99 is above the
// objective. "Calm" means the pool may cool at all and its p99 is under
// scaleDownP99Frac × objective, or it is idle.
// Draining replicas stop receiving new requests and retire once their
// queue empties, so no admitted request is ever dropped by a scaling
// action.

// scaleDownP99Frac is the fraction of a pool's objective its windowed
// p99 must stay under for the pool to read calm.
const scaleDownP99Frac = 0.4

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

// scaleTenant runs one control tick over t's pools: every pool's
// resurrection floor first, then each pool's ladder in turn.
func (f *fleet) scaleTenant(t *tenantState, now sim.Time) {
	pools := []Role{RoleMixed}
	if t.disagg() != nil {
		pools = []Role{RolePrefill, RoleDecode}
	}
	// The resurrection floor: a pool's minimum is a capacity promise, not
	// a decay asymptote. A pool crashed below it (fault.go) presents an
	// empty window — no samples, and a backlog of zero once everything
	// shed — which the ladder reads as idle calm; without this a tenant
	// crashed to nothing would stay dead forever while every arrival
	// sheds at the door. Warm spares raise the floor the same way they
	// raised the initial spawn.
	for _, role := range pools {
		lo, _ := t.poolBounds(role)
		for t.activeRole(role) < lo+f.warmSpares() && f.scaleOut(t, role, now) {
		}
	}
	for _, role := range pools {
		f.scalePool(t, f.readPool(t, role), now)
	}
	t.windowLat.Reset()
	t.windowRejected = 0
	if l := t.llm; l != nil {
		l.windowWait.Reset()
		l.windowTPOT.Reset()
		l.windowMigStalls = 0
	}
}

// poolBounds returns the replica bounds of t's role pool. A
// disaggregated pool's floor is one replica.
func (t *tenantState) poolBounds(role Role) (lo, hi int) {
	switch d := t.disagg(); role {
	case RolePrefill:
		return 1, d.MaxPrefill
	case RoleDecode:
		return 1, d.MaxDecode
	}
	return t.cfg.MinReplicas, t.cfg.MaxReplicas
}

// poolReading is one pool's state at a control tick: its latency window
// against its objective, its outstanding work, its bounds (floor
// includes warm spares), and two overrides — hot marks the pool
// violated whatever the percentiles say, cool allows calm at all.
type poolReading struct {
	role       Role
	win        *metrics.Latencies
	slo        float64
	backlog    int
	floor, max int
	hot, cool  bool
}

// readPool takes t's role pool reading for this tick.
func (f *fleet) readPool(t *tenantState, role Role) poolReading {
	lo, hi := t.poolBounds(role)
	p := poolReading{role: role, floor: lo + f.warmSpares(), max: hi}
	switch l := t.llm; role {
	case RoleMixed:
		p.win, p.slo, p.backlog = &t.windowLat, t.sloCycles, f.tenantBacklog(t)
	case RolePrefill:
		// The backlog is queued arrivals PLUS prompts mid-prefill — a
		// window with empty queues but chunked prefills still in flight is
		// busy, not idle (sequences already handed to migration hold no
		// prefill compute and do not count).
		p.win, p.slo = &l.windowWait, t.prefillSLO
		for _, r := range t.replicas {
			if r.role == RolePrefill {
				q := r.queueFor(t)
				p.backlog += len(q.reqs)
				for _, s := range q.running {
					if s.promptDone < s.req.prompt {
						p.backlog++
					}
				}
			}
		}
	case RoleDecode:
		p.win, p.slo, p.backlog = &l.windowTPOT, t.tpotSLO, len(l.migQ)
		for _, r := range t.replicas {
			if r.role == RoleDecode {
				p.backlog += len(r.queueFor(t).running) + r.inbound
			}
		}
		// A parked migration queue vetoes calm outright: the backlog shows
		// up as migration WAIT, not TPOT (decode iterations stay healthy by
		// construction), so per-iteration percentiles alone would happily
		// drain the exact pool whose admission is the bottleneck.
		p.hot = l.windowMigStalls > 0
		p.cool = l.windowMigStalls == 0 && len(l.migQ) == 0
		return p
	}
	// Rejections, or a deep backlog with nothing completed (a stalled
	// pool has no percentiles to read), heat the mixed and prefill pools.
	p.hot = t.windowRejected > 0 || (p.win.Count() == 0 && p.backlog > t.cfg.MaxBatch)
	p.cool = t.windowRejected == 0
	return p
}

// scalePool runs one pool's decision ladder on its reading.
func (f *fleet) scalePool(t *tenantState, p poolReading, now sim.Time) {
	n, p99 := p.win.Count(), p.win.P99()
	// An empty window is read three ways, not two. With outstanding work
	// it is either violated (hot: a deep backlog) or a deliberate HOLD
	// (work in flight but nothing completed — a preemption-heavy
	// interval, or service times longer than the window — where
	// percentiles would be guesses). With no work at all it DECAYS: a
	// truly idle pool is calm, so it shrinks toward its floor instead of
	// freezing at its last size forever.
	violated := p.hot || (n > 0 && p99 > p.slo)
	calm := p.cool && ((n > 0 && p99 < scaleDownP99Frac*p.slo) || (n == 0 && p.backlog == 0))
	active := t.activeRole(p.role)
	switch {
	case violated && active < p.max:
		f.scaleOut(t, p.role, now)
	case violated && p.role == RoleMixed && f.splitFits(t, t.curEUs+2):
		// Horizontal headroom exhausted: grow the vNPU size instead.
		f.resize(t, 2, now)
	case calm && active > p.floor:
		f.drainOne(t, p.role, now, false)
		t.scaleDowns++
	case calm && p.role == RoleMixed && t.curEUs > t.cfg.EUs:
		// Idle and previously grown: shrink back toward the configured
		// budget, again make-before-break.
		f.resize(t, -2, now)
	}
}

// scaleOut spawns one replica into t's role pool at the current EU budget
// and counts the outcome; a fresh decode slot admits parked migrations
// at once. It reports whether the spawn succeeded.
func (f *fleet) scaleOut(t *tenantState, role Role, now sim.Time) bool {
	if err := f.spawnReplica(t, t.curEUs, role); err != nil {
		t.scaleFails++
		return false
	}
	t.scaleUps++
	if role == RoleDecode {
		f.drainMigQ(t, now)
	}
	return true
}

// resize swaps a RoleMixed replica for one at curEUs+delta,
// make-before-break: the new size spawns first, then the most
// mismatched replica drains.
func (f *fleet) resize(t *tenantState, delta int, now sim.Time) {
	if err := f.spawnReplica(t, t.curEUs+delta, RoleMixed); err != nil {
		t.scaleFails++
		return
	}
	t.curEUs += delta
	t.resizes++
	f.drainOne(t, RoleMixed, now, true)
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
	var kv *kvAccountant
	{
		// worst is a peer's maximal request in tokens. A prefill slot only
		// ever holds prompt KV: generated tokens live on the decode side
		// of the migration. Under fault injection a crash replay folds
		// generated tokens back into the prompt (up to MaxTokens−1), so
		// faulted fleets keep the full floor — otherwise a replayed head
		// could block the prefill queue forever.
		worst := func(p *tenantState) int {
			if role == RolePrefill && f.cfg.Faults == nil {
				return p.cfg.LLM.Trace.MaxPrompt()
			}
			return p.cfg.LLM.Trace.MaxTokens()
		}
		var weights, minKV int64
		capOverride, anyLLM := 0, false
		for _, p := range t.peers {
			if p.llm == nil {
				continue
			}
			anyLLM = true
			weights += model.LLMWeightBytes()
			if p.cfg.LLM.KVCapTokens > 0 {
				capOverride = p.cfg.LLM.KVCapTokens
			}
			worstTokens := (worst(p) + kvBlockTokens - 1) / kvBlockTokens * kvBlockTokens
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
			kv = f.newKV(t, capBytes, role)
			for _, p := range t.peers {
				if p.llm == nil {
					continue
				}
				// The floor holds under EITHER policy: with full
				// reservation it keeps the queue head admissible; with
				// paging it guarantees one maximal sequence can always be
				// made resident by evicting everything else — the
				// eviction-progress guarantee.
				if blocks := kv.blocksFor(worst(p)); blocks > kv.totalBlocks {
					return fmt.Errorf("serve: tenant %s: %s replica KV capacity of %d blocks cannot hold one maximal request of %s (%d blocks)",
						t.cfg.Name, role, kv.totalBlocks, p.cfg.Name, blocks)
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
	if kv != nil && kv.paged != nil {
		// The paged policy needs its slot for swap scheduling (link
		// naming, wake-ups); the ledger itself never looks back.
		kv.paged.bind(r)
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
	// Recovery milestone (recovery.go): the first time a crashed tenant's
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
	if r.retired {
		return
	}
	r.retired = true
	f.obs.retire(r, now)
	f.removeReplica(r, now)
}

// removeReplica takes a retired or crashed replica out of the fleet:
// its pending timers cancel, the fleet's EU and busy-time books settle,
// its KV ledger folds into the owner (in-flight swap copies cancel
// first) and its vNPU unmaps. Only the KV contents are ever lost, never
// the books.
func (f *fleet) removeReplica(r *replica, now sim.Time) {
	t := r.ten
	if r.timerSet {
		f.eng.Cancel(r.timer)
		r.timerSet = false
	}
	if r.preemptSet {
		f.eng.Cancel(r.preemptH)
		r.preemptSet = false
	}
	f.snapshot(float64(now))
	f.allocatedEUs -= r.vnpu.Config.TotalEUs()
	f.busySum += r.busyEUCycles
	if r.kv != nil {
		if p := r.kv.paged; p != nil {
			p.teardown()
		}
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
