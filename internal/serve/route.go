package serve

import (
	"neu10/internal/sim"
)

// scheduleArrival queues the next candidate arrival of the tenant's
// thinned Poisson stream. Candidates are drawn at the peak rate; each is
// accepted with probability rate(t)/peak, which realizes the exact
// non-homogeneous process deterministically from the tenant's RNG.
func (f *fleet) scheduleArrival(t *tenantState) {
	gap := t.arrRNG.Exp(1 / (t.basePerCycle * t.peakMult))
	at := float64(f.eng.Now()) + gap
	if at > f.durCycles {
		return // traffic ends with the scenario; in-flight work drains
	}
	if t.arrival == nil {
		t.arrival = func(now sim.Time) {
			if t.arrRNG.Float64()*t.peakMult <= t.rateMult(float64(now), f.durCycles) {
				f.arrive(t, now)
			}
			f.scheduleArrival(t)
		}
	}
	f.eng.At(sim.Time(at), t.arrival)
}

// arrive routes one request and applies admission control (admitTo),
// shedding at the front door what would otherwise queue into certain
// SLO violation or never be served.
func (f *fleet) arrive(t *tenantState, now sim.Time) {
	t.arrivals++
	if f.faulted && float64(now) >= f.fwStart {
		t.fwArrivals++
	}
	req := request{at: now, id: int64(t.arrivals)}
	if t.llm != nil {
		// Shape draws happen before admission, so every configuration
		// compared on a seed (continuous vs static, any router) sees the
		// identical request trace. Session traces likewise evolve their
		// chains here, independent of serving outcomes.
		if t.llm.sess != nil {
			shape := t.cfg.LLM.Trace.DrawSession(t.llm.rng, t.llm.sess)
			req.prompt, req.output = shape.Prompt, shape.Output
			req.prefix, req.sealKey = shape.Prefix, shape.SealKey
		} else {
			shape := t.cfg.LLM.Trace.Draw(t.llm.rng)
			req.prompt, req.output = shape.Prompt, shape.Output
		}
	}
	r, reason := f.admitTo(t)
	if r == nil {
		t.rejected++
		if f.cfg.Autoscale {
			t.windowRejected++
		}
		f.obs.rejected(t, req.id, reason, now)
		return
	}
	q := r.queueFor(t)
	f.obs.admitted(t, req.id, now)
	q.reqs = append(q.reqs, req)
	if len(q.reqs) > t.maxQueue {
		t.maxQueue = len(q.reqs)
	}
	f.poke(r, t, now)
}

// admitTo picks the slot an arrival of t queues on, or returns nil and
// the reason it is rejected:
//   - "no-decode": t is disaggregated, has no live, non-draining decode
//     replica (decodeDead), and the autoscaler is off. Nothing can bring
//     a decode replica back: emergency spawns replace only the victims of
//     a crash, and there is no decode replica left to crash. The request
//     would be prefilled and then lost when the engine drains
//     (dropStranded);
//   - "no-replica": t has no replica at all (see route);
//   - "queue-cap": t's queue on the routed slot is at QueueCap.
func (f *fleet) admitTo(t *tenantState) (*replica, string) {
	if !f.cfg.Autoscale && t.decodeDead() {
		return nil, "no-decode"
	}
	r := f.route(t)
	switch {
	case r == nil:
		return nil, "no-replica"
	case len(r.queueFor(t).reqs) >= t.cfg.QueueCap:
		return nil, "queue-cap"
	}
	return r, ""
}

// route picks the target slot among the serving group's non-draining
// replicas (the tenant's own, plus every share-group peer's). Decode
// slots take no arrivals: a disaggregated tenant's decode pool gets
// work only through KV migration. All ties break toward the older slot
// (smaller fleet-wide uid), keeping the decision deterministic.
//
// When every slot in the group is draining — make-before-break resize
// churn and preemptive drains reach exactly this state — the request
// falls back deterministically to the least-loaded *draining* slot: a
// draining slot still serves its queue to completion, so queueing
// there beats shedding. (Before this guard the function indexed
// cands[0] on an empty slice, and the PowerOfTwo path called
// routeRNG.Intn(0); a fully draining tenant panicked the router.)
// Only a tenant with no replicas at all returns nil, and arrive then
// sheds the request.
func (f *fleet) route(t *tenantState) *replica {
	cands := f.routeScratch[:0]
	for _, p := range t.peers {
		for _, r := range p.replicas {
			if !r.draining && r.role != RoleDecode {
				cands = append(cands, r)
			}
		}
	}
	f.routeScratch = cands
	if len(cands) == 0 {
		// Prefer a draining slot where t's queue still has room (the
		// same open-queue filter the non-draining path applies below) so
		// the fallback never sheds while a sibling could still queue.
		var pick, open *replica
		better := func(r, cur *replica) bool {
			return cur == nil || r.backlog() < cur.backlog() ||
				(r.backlog() == cur.backlog() && r.uid < cur.uid)
		}
		for _, p := range t.peers {
			for _, r := range p.replicas {
				if r.role == RoleDecode {
					continue
				}
				if better(r, pick) {
					pick = r
				}
				if len(r.queueFor(t).reqs) < t.cfg.QueueCap && better(r, open) {
					open = r
				}
			}
		}
		if open != nil {
			return open
		}
		return pick
	}
	// On a shared pool the load signal (whole-slot backlog) can disagree
	// with the tenant's own queue depth — a slot can look light because
	// the PEER's queue is empty while t's queue there is already at
	// QueueCap. Never route into a full per-tenant queue while a sibling
	// slot still has room; when every queue is full, fall through to the
	// plain candidates and let admission shed as before.
	if len(t.peers) > 1 {
		open := f.routeScratch2[:0]
		for _, r := range cands {
			if len(r.queueFor(t).reqs) < t.cfg.QueueCap {
				open = append(open, r)
			}
		}
		f.routeScratch2 = open
		if len(open) > 0 {
			cands = open
		}
	}
	if len(cands) == 1 {
		return cands[0]
	}
	load := func(r *replica) int {
		if f.cfg.Router == JSQ {
			return r.queued()
		}
		return r.backlog()
	}
	if f.cfg.Router == PowerOfTwo {
		i := t.routeRNG.Intn(len(cands))
		j := t.routeRNG.Intn(len(cands) - 1)
		if j >= i {
			j++
		}
		a, b := cands[i], cands[j]
		if load(b) < load(a) || (load(b) == load(a) && b.uid < a.uid) {
			return b
		}
		return a
	}
	best := cands[0]
	for _, r := range cands[1:] {
		if load(r) < load(best) || (load(r) == load(best) && r.uid < best.uid) {
			best = r
		}
	}
	return best
}
