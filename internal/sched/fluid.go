package sched

import (
	"fmt"

	"neu10/internal/arch"
	"neu10/internal/compiler"
	"neu10/internal/isa"
	"neu10/internal/metrics"
	"neu10/internal/sim"
)

// Simulator is the event-driven fluid simulator. Build one with New,
// run with Run.
type Simulator struct {
	cfg     Config
	tenants []*tenant

	// Physical ME state.
	meOwner    []int     // ME -> owning tenant (spatial modes) or -1
	meHeld     []*utop   // ME -> running µTOp
	meBlocked  []float64 // ME -> blocked-until time (preemption penalties)
	blockedMax float64   // watermark: no meBlocked entry exceeds it
	harvesters int       // bound µTOps running on another vNPU's ME

	// Per-run constants, and the harvested VE share that applySpeeds adds
	// to every VE µTOp's grant (set by redistributeVE, 0 when none).
	hbmCap, reclaimCost float64
	veShare             float64

	// Temporal-sharing state.
	activeTenant int // PMT: the tenant owning the whole core
	complexOwner int // V10: the tenant owning the ME complex
	quantumStart float64

	now        float64
	events     uint64
	nextSample float64

	// Accumulators.
	meBusyArea float64
	veBusyArea float64
	bwArea     float64
	hbmTL      *metrics.TimeSeries

	// Zero-alloc machinery: retired µTOp instances are recycled through
	// utopFree, and every per-event temporary (bandwidth demand items,
	// waterfill buffers, VE grant lists) lives in scratch so the steady
	// state of the event loop performs no heap allocation. The buffers
	// only ever grow; result bytes are unaffected because the arithmetic
	// runs in exactly the order the allocating version used.
	utopFree []*utop
	// solo records the run's events when SoloLatency runs it; its ends
	// are nil otherwise.
	solo    soloTrace
	scratch struct {
		items   []bwItem
		tDemand []float64
		tGrant  []float64
		demands []float64
		grants  []float64
		unsat   []int
		ves     []*utop
		unmet   []*utop
		freeMEs []int
		one     [1]*tenant
	}
}

// bwItem pairs a µTOp with its bandwidth demand during applySpeeds.
type bwItem struct {
	u *utop
	d float64
}

// takeUTop returns a recycled (or new) µTOp initialized for the spec.
func (s *Simulator) takeUTop(t *tenant, opIdx int, spec compiler.UTopSpec) *utop {
	var u *utop
	if n := len(s.utopFree); n > 0 {
		u = s.utopFree[n-1]
		s.utopFree = s.utopFree[:n-1]
	} else {
		u = new(utop)
	}
	u.init(t, opIdx, spec)
	return u
}

const eps = 1e-6

// New validates the scenario and builds a simulator.
func New(cfg Config, specs []TenantSpec) (*Simulator, error) {
	if cfg.Policy == NeuNH {
		cfg.DisableMEHarvest, cfg.DisableVEHarvest = true, true
	}
	if err := cfg.Core.Validate(); err != nil {
		return nil, err
	}
	if cfg.Requests < 1 {
		return nil, fmt.Errorf("sched: request count %d, want at least 1", cfg.Requests)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("sched: no tenants")
	}
	s := &Simulator{
		cfg:          cfg,
		meOwner:      make([]int, cfg.Core.MEs),
		meHeld:       make([]*utop, cfg.Core.MEs),
		meBlocked:    make([]float64, cfg.Core.MEs),
		tenants:      make([]*tenant, 0, len(specs)),
		activeTenant: -1,
		complexOwner: -1,
		hbmCap:       cfg.Core.HBMBytesPerCycle(),
		reclaimCost:  float64(cfg.Core.MEPreemptCycles),
	}
	if cfg.SampleEvery > 0 {
		s.hbmTL = metrics.NewTimeSeries("hbm", 4096)
	}
	for i := range s.meOwner {
		s.meOwner[i] = -1
	}
	spatial := cfg.Policy == NeuNH || cfg.Policy == Neu10
	nextME := 0
	for i, spec := range specs {
		if spec.Graph == nil {
			return nil, fmt.Errorf("sched: tenant %q has no graph", spec.Name)
		}
		if spec.Graph.ISA != cfg.Policy.ISAFor() {
			return nil, fmt.Errorf("sched: tenant %q compiled for %s but policy %s needs %s",
				spec.Name, spec.Graph.ISA, cfg.Policy, cfg.Policy.ISAFor())
		}
		if spec.MEs < 1 || spec.VEs < 1 {
			return nil, fmt.Errorf("sched: tenant %q allocated %d MEs / %d VEs", spec.Name, spec.MEs, spec.VEs)
		}
		t := &tenant{
			spec: spec,
			idx:  i,
			lat:  &metrics.Latencies{},
		}
		durs := make([]float64, 2*len(spec.Graph.Ops))
		t.opDurSum, t.opDurN = durs[:len(spec.Graph.Ops)], durs[len(spec.Graph.Ops):]
		if spec.ArrivalRate < 0 {
			return nil, fmt.Errorf("sched: tenant %q has negative arrival rate", spec.Name)
		}
		if spec.ArrivalRate > 0 {
			t.rng = sim.NewRNG(cfg.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
		}
		if cfg.SampleEvery > 0 {
			t.meTL = metrics.NewTimeSeries(spec.Name+"/ME", 4096)
			t.veTL = metrics.NewTimeSeries(spec.Name+"/VE", 4096)
		}
		if spatial {
			if nextME+spec.MEs > cfg.Core.MEs {
				return nil, fmt.Errorf("sched: spatial mapping exceeds %d MEs", cfg.Core.MEs)
			}
			t.ownMEs = make([]int, 0, spec.MEs)
			for k := 0; k < spec.MEs; k++ {
				t.ownMEs = append(t.ownMEs, nextME)
				s.meOwner[nextME] = i
				nextME++
			}
		}
		s.tenants = append(s.tenants, t)
	}
	if spatial {
		totVE := 0
		for _, t := range s.tenants {
			totVE += t.spec.VEs
		}
		if totVE > cfg.Core.VEs {
			return nil, fmt.Errorf("sched: spatial VE allocation %d exceeds %d", totVE, cfg.Core.VEs)
		}
	}
	return s, nil
}

// Run simulates to steady state and returns the results.
func (s *Simulator) Run() (*Result, error) {
	for _, t := range s.tenants {
		if t.spec.ArrivalRate > 0 {
			t.idle = true
			t.opIdx = len(t.spec.Graph.Ops) // no current group while idle
			t.nextArrival = s.interarrival(t)
		} else {
			s.beginService(t, 0)
		}
	}
	for {
		s.events++
		if s.events > maxEvents {
			return nil, fmt.Errorf("sched: exceeded %d events at cycle %.0f", uint64(maxEvents), s.now)
		}
		s.pumpArrivals()
		s.bind()
		s.grantVE()
		served, dt, anyWork := s.applySpeeds()
		dt, anyWork = s.horizon(dt, anyWork)
		if !anyWork {
			return nil, fmt.Errorf("sched: deadlock at cycle %.0f (no runnable work)", s.now)
		}
		if s.solo.ends != nil {
			s.solo.dts = append(s.solo.dts, dt)
		}
		if s.now+dt >= maxCycles || s.step(dt, served) {
			break
		}
	}
	return s.collect(), nil
}

// beginService starts serving a request that arrived at arrivedAt (for
// closed-loop tenants, arrival == service start, the §V-A methodology).
func (s *Simulator) beginService(t *tenant, arrivedAt float64) {
	t.opIdx, t.groupIdx = 0, 0
	t.reqStart = arrivedAt
	t.opStart = s.now
	t.idle = false
	s.emitGroup(t)
}

// interarrival draws the next exponential interarrival gap in cycles.
func (s *Simulator) interarrival(t *tenant) float64 {
	meanCycles := s.cfg.Core.FrequencyHz / t.spec.ArrivalRate
	return t.rng.Exp(meanCycles)
}

// pumpArrivals admits every open-loop arrival with timestamp <= now:
// an idle vNPU starts serving immediately, otherwise the request queues.
func (s *Simulator) pumpArrivals() {
	for _, t := range s.tenants {
		if t.spec.ArrivalRate <= 0 {
			continue
		}
		for t.nextArrival <= s.now+eps {
			at := t.nextArrival
			t.nextArrival += s.interarrival(t)
			if t.idle {
				s.beginService(t, at)
			} else {
				t.pending.Push(at)
			}
		}
	}
}

// emitGroup instantiates the µTOps of the tenant's current group.
func (s *Simulator) emitGroup(t *tenant) {
	g := t.currentGroup()
	if g == nil {
		return
	}
	t.inFlight = len(g.UTops)
	for _, spec := range g.UTops {
		u := s.takeUTop(t, t.opIdx, spec)
		if u.kind == isa.MEUTop {
			t.readyME.Push(u)
		} else {
			// "A ready VE µTOp is always executed" (§III-E): it enters
			// the running set immediately and progresses as granted.
			t.running = append(t.running, u)
		}
	}
}

// ---- policy: ME binding ----

func (s *Simulator) bind() {
	switch s.cfg.Policy {
	case NeuNH, Neu10:
		for _, t := range s.tenants {
			if s.harvesters == 0 {
				break // nothing to reclaim
			}
			s.reclaim(t)
		}
		ready := false
		for _, t := range s.tenants {
			s.bindOwn(t)
			ready = ready || t.readyME.Len() > 0
		}
		if ready && !s.cfg.DisableMEHarvest {
			s.harvestBind()
		}
	case V10:
		s.v10Bind()
	case PMT:
		s.pmtBind()
	}
}

func (s *Simulator) meFree(m int) bool {
	return s.meHeld[m] == nil && s.meBlocked[m] <= s.now+eps
}

func (s *Simulator) bindTo(u *utop, m int, harvested bool) {
	u.me = m
	u.harvested = harvested
	if harvested {
		s.harvesters++
	}
	s.meHeld[m] = u
	u.ten.running = append(u.ten.running, u)
}

func (s *Simulator) popReady(t *tenant) *utop {
	return t.readyME.Pop()
}

// bindOwn binds a tenant's ready ME µTOps to its own free engines.
func (s *Simulator) bindOwn(t *tenant) {
	for _, m := range t.ownMEs {
		if t.readyME.Len() == 0 {
			return
		}
		if s.meFree(m) {
			s.bindTo(s.popReady(t), m, false)
		}
	}
}

// reclaim preempts harvesting µTOps when the owner has ready work
// (§III-E: "If the allocated MEs are already being harvested by µTOps
// from other vNPUs, these µTOps will be preempted"). The reclaimed ME is
// blocked for the context-switch penalty (pop partials + pop weights).
func (s *Simulator) reclaim(t *tenant) {
	need := t.readyME.Len()
	if need == 0 {
		return
	}
	for _, m := range t.ownMEs {
		if need == 0 {
			return
		}
		u := s.meHeld[m]
		if u != nil && u.harvested {
			s.unbind(u)
			u.ten.readyME.Push(u) // state saved; work resumes later
			s.block(m, s.now+s.reclaimCost)
			need--
		} else if u == nil && s.meBlocked[m] > s.now+eps {
			need-- // already draining for us
		} else if u != nil && !u.harvested {
			need--
		}
	}
}

// block makes ME m unavailable until the given time.
func (s *Simulator) block(m int, until float64) {
	s.meBlocked[m] = until
	if until > s.blockedMax {
		s.blockedMax = until
	}
}

func (s *Simulator) unbind(u *utop) {
	if u.me >= 0 {
		s.meHeld[u.me] = nil
		u.me = -1
	}
	if u.harvested {
		s.harvesters--
	}
	u.harvested = false
	t := u.ten
	for i, r := range t.running {
		if r == u {
			t.running = append(t.running[:i], t.running[i+1:]...)
			break
		}
	}
}

// harvestBind gives idle MEs (whose owner has nothing ready) to tenants
// with excess ready µTOps, round-robin for fairness.
func (s *Simulator) harvestBind() {
	freeMEs := s.scratch.freeMEs[:0]
	for m := range s.meHeld {
		if !s.meFree(m) {
			continue
		}
		owner := s.meOwner[m]
		if owner >= 0 && s.tenants[owner].readyME.Len() > 0 {
			continue // owner wants it; bindOwn will have taken it already
		}
		freeMEs = append(freeMEs, m)
	}
	s.scratch.freeMEs = freeMEs
	if len(freeMEs) == 0 {
		return
	}
	// Round-robin across tenants with remaining ready µTOps.
	next := 0
	for progress := true; progress && next < len(freeMEs); {
		progress = false
		for _, t := range s.tenants {
			if next == len(freeMEs) {
				break
			}
			if t.readyME.Len() == 0 {
				continue
			}
			m := freeMEs[next]
			next++
			s.bindTo(s.popReady(t), m, s.meOwner[m] != t.idx)
			progress = true
		}
	}
}

// v10Bind models the VLIW coupling: one tenant owns the entire ME
// complex; its group's µTOps bind together; other tenants may only run
// VE µTOps concurrently. The complex is re-arbitrated to the tenant with
// the least weighted service at *operator group boundaries only* — the
// VLIW ISA couples all MEs for the duration of an operator, so a waiting
// tenant's ME work queues behind the remaining length of the running
// operator. This imbalanced-operator-length head-of-line blocking is
// exactly the tail-latency failure mode the paper attributes to V10
// (§V-B), despite its otherwise fair priority-based policy.
func (s *Simulator) v10Bind() {
	// An operator group boundary: the owner has no µTOps left on the MEs.
	prev := s.complexOwner
	if s.complexOwner >= 0 && !s.hasBoundME(s.tenants[s.complexOwner]) {
		s.complexOwner = -1
	}
	// Grant the complex to the neediest ready tenant.
	if s.complexOwner < 0 {
		var pick *tenant
		for _, t := range s.tenants {
			if t.readyME.Len() == 0 {
				continue
			}
			if pick == nil || t.serviceCycles < pick.serviceCycles {
				pick = t
			}
		}
		if pick != nil {
			s.complexOwner = pick.idx
			if prev >= 0 && prev != pick.idx {
				// Ownership changed hands: pay the ME-complex switch cost.
				for m := range s.meBlocked {
					if s.meBlocked[m] < s.now+v10SwitchPenalty {
						s.block(m, s.now+v10SwitchPenalty)
					}
				}
			}
		}
	}
	if s.complexOwner >= 0 {
		o := s.tenants[s.complexOwner]
		for m := 0; m < len(s.meHeld) && o.readyME.Len() > 0; m++ {
			if s.meFree(m) {
				s.bindTo(s.popReady(o), m, false)
			}
		}
	}
}

func (s *Simulator) hasBoundME(t *tenant) bool {
	for _, u := range t.running {
		if u.me >= 0 {
			return true
		}
	}
	return false
}

// pmtBind models PREMA-style whole-core time sharing with a quantum.
func (s *Simulator) pmtBind() {
	hasWork := func(t *tenant) bool {
		return t.readyME.Len() > 0 || len(t.running) > 0
	}
	// Quantum expiry or empty slot → switch to least-served tenant.
	cur := s.activeTenant
	needSwitch := cur < 0 || !hasWork(s.tenants[cur]) ||
		s.now-s.quantumStart >= pmtQuantumCycles
	if needSwitch {
		var pick *tenant
		for _, t := range s.tenants {
			if !hasWork(t) {
				continue
			}
			if pick == nil || t.serviceCycles < pick.serviceCycles {
				pick = t
			}
		}
		if pick != nil && pick.idx != cur {
			// Context switch: evict the old tenant's bound µTOps and pay
			// the full-core switch penalty.
			if cur >= 0 {
				old := s.tenants[cur]
				for m, u := range s.meHeld {
					if u != nil && u.ten == old {
						s.unbind(u)
						old.readyME.Push(u)
						_ = m
					}
				}
				for m := range s.meBlocked {
					s.block(m, s.now+pmtSwitchPenalty)
				}
			}
			s.activeTenant = pick.idx
			s.quantumStart = s.now
		} else if pick != nil {
			s.quantumStart = s.now
		}
	}
	if s.activeTenant >= 0 {
		a := s.tenants[s.activeTenant]
		for m := 0; m < len(s.meHeld) && a.readyME.Len() > 0; m++ {
			if s.meFree(m) {
				s.bindTo(s.popReady(a), m, false)
			}
		}
	}
}

// ---- policy: VE grants ----

func (s *Simulator) grantVE() {
	s.veShare = 0
	// The spatial policies' grants are zeroed in grantTenantVE's pass.
	if s.cfg.Policy == V10 || s.cfg.Policy == PMT {
		for _, t := range s.tenants {
			for _, u := range t.running {
				u.veGrant = 0
			}
		}
	}
	switch s.cfg.Policy {
	case NeuNH, Neu10:
		pool, ves := 0.0, 0
		for _, t := range s.tenants {
			left, n := s.grantTenantVE(t, float64(t.spec.VEs))
			pool += left
			ves += n
		}
		if !s.cfg.DisableVEHarvest {
			s.redistributeVE(pool, ves)
		}
	case V10:
		pool := float64(s.cfg.Core.VEs)
		if s.complexOwner >= 0 {
			pool -= s.grantMEUTopVE(s.tenants[s.complexOwner], pool)
		}
		// All tenants' VE µTOps share what remains.
		s.grantVEUTops(s.tenants, pool)
	case PMT:
		if s.activeTenant >= 0 {
			t := s.tenants[s.activeTenant]
			pool := float64(s.cfg.Core.VEs)
			pool -= s.grantMEUTopVE(t, pool)
			s.scratch.one[0] = t
			s.grantVEUTops(s.scratch.one[:], pool)
		}
	}
}

// grantMEUTopVE serves the VE needs of a tenant's bound ME µTOps from a
// budget, returning the amount consumed. The operation scheduler
// prioritizes VE operations from ME µTOps so MEs free up sooner (§III-E).
// Every ME µTOp in t.running is bound: bindTo adds it, unbind removes it.
func (s *Simulator) grantMEUTopVE(t *tenant, budget float64) float64 {
	var need float64
	for _, u := range t.running {
		if u.kind == isa.MEUTop {
			need += u.veNeed
		}
	}
	return s.scaleMEUTopVE(t, need, budget)
}

// scaleMEUTopVE grants each of t's ME µTOps its VE need, scaled down to
// the budget when their total need exceeds it, and returns the total.
func (s *Simulator) scaleMEUTopVE(t *tenant, need, budget float64) float64 {
	if need == 0 {
		return 0
	}
	scale := 1.0
	if need > budget {
		scale = budget / need
	}
	var used float64
	for _, u := range t.running {
		if u.kind == isa.MEUTop {
			u.veGrant = u.veNeed * scale
			used += u.veGrant
		}
	}
	return used
}

// grantVEUTops splits a budget across the VE µTOps of the given tenants.
func (s *Simulator) grantVEUTops(ts []*tenant, budget float64) {
	if budget <= 0 {
		return
	}
	ves := s.scratch.ves[:0]
	for _, t := range ts {
		for _, u := range t.running {
			if u.kind == isa.VEUTop {
				ves = append(ves, u)
			}
		}
	}
	s.scratch.ves = ves
	if len(ves) == 0 {
		return
	}
	share := budget / float64(len(ves))
	max := float64(s.cfg.Core.VEs)
	for _, u := range ves {
		g := share
		if g > max {
			g = max
		}
		u.veGrant = g
	}
}

// grantTenantVE serves a tenant from its own VE allocation: bound ME
// µTOps first, then its VE µTOps. It returns the unused remainder
// (harvestable under Neu10) and the tenant's VE µTOp count. One pass
// zeroes the grants, sums the ME µTOps' need (in grantMEUTopVE's order)
// and counts the VE µTOps.
func (s *Simulator) grantTenantVE(t *tenant, cap float64) (float64, int) {
	var need float64
	ves := 0
	for _, u := range t.running {
		u.veGrant = 0
		if u.kind == isa.MEUTop {
			need += u.veNeed
		} else {
			ves++
		}
	}
	t.veShort = need > cap // else every ME µTOp's grant is its need, exactly
	cap -= s.scaleMEUTopVE(t, need, cap)
	if cap <= 0 {
		return 0, ves
	}
	if ves == 0 {
		return cap, 0
	}
	share := cap / float64(ves)
	for _, u := range t.running {
		if u.kind == isa.VEUTop {
			u.veGrant = share
		}
	}
	return 0, ves
}

// redistributeVE implements VE harvesting (Fig. 18b): leftover VE
// capacity flows to other tenants' unmet ME-µTOp needs first, then to
// the ves VE µTOps, in equal shares that applySpeeds adds.
func (s *Simulator) redistributeVE(pool float64, ves int) {
	if pool <= 0 {
		return
	}
	unmet := s.scratch.unmet[:0]
	var totalUnmet float64
	for _, t := range s.tenants {
		if !t.veShort {
			continue
		}
		for _, u := range t.running {
			if u.kind == isa.MEUTop && u.me >= 0 && u.veGrant < u.veNeed-eps {
				unmet = append(unmet, u)
				totalUnmet += u.veNeed - u.veGrant
			}
		}
	}
	s.scratch.unmet = unmet
	if totalUnmet > 0 {
		scale := 1.0
		if totalUnmet > pool {
			scale = pool / totalUnmet
		}
		for _, u := range unmet {
			extra := (u.veNeed - u.veGrant) * scale
			u.veGrant += extra
			pool -= extra
		}
	}
	// Remaining pool → VE µTOps (they can absorb arbitrary rate).
	if pool > eps && ves > 0 {
		s.veShare = pool / float64(ves)
	}
}

// ---- rates, horizon, advance ----

// preSpeed computes a µTOp's progress rate before bandwidth scaling.
func (s *Simulator) preSpeed(u *utop) float64 {
	switch u.kind {
	case isa.MEUTop:
		if u.me < 0 {
			return 0
		}
		if u.veNeed <= eps || u.veGrant == u.veNeed { // x/x is exactly 1
			return 1
		}
		sp := u.veGrant / u.veNeed
		if sp > 1 {
			sp = 1
		}
		return sp
	default:
		return u.veGrant
	}
}

// waterfill allocates cap across demands max-min fairly: demands below
// the progressively recomputed fair share are fully satisfied; the rest
// split the remainder equally. Grants are written into the caller's
// slice (len(grants) == len(demands)); the unsatisfied-index worklist is
// scratch owned by the simulator so repeated calls do not allocate.
func (s *Simulator) waterfill(demands, grants []float64, cap float64) {
	for i := range grants {
		grants[i] = 0
	}
	unsat := s.scratch.unsat[:0]
	var total float64
	for i, d := range demands {
		total += d
		unsat = append(unsat, i)
	}
	s.scratch.unsat = unsat
	if total <= cap {
		copy(grants, demands)
		return
	}
	remaining := cap
	for len(unsat) > 0 {
		share := remaining / float64(len(unsat))
		next := unsat[:0]
		progressed := false
		for _, i := range unsat {
			if demands[i] <= share+1e-12 {
				grants[i] = demands[i]
				remaining -= demands[i]
				progressed = true
			} else {
				next = append(next, i)
			}
		}
		if !progressed {
			for _, i := range next {
				grants[i] = share
			}
			return
		}
		unsat = next
	}
}

// growFloats returns buf resized to n, reallocating only on growth.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n, n+n/2+8)
	}
	return buf[:n]
}

// applySpeeds sets every running µTOp's progress rate: the engine-grant
// speed, throttled by a two-level max-min fair share of HBM bandwidth —
// first across vNPUs (the paper's §III-B "fair sharing of HBM bandwidth
// by default"), then across each vNPU's µTOps. Light consumers
// (compute-bound tenants) receive their full demand; the shortage lands
// on the heavy, memory-bound ones. It returns the bandwidth served
// (bytes/cycle) and the horizon's µTOp part: the time to the first µTOp
// completion (at most maxCycles-now) and whether any µTOp progresses.
// The first pass also adds redistributeVE's share to each VE µTOp.
func (s *Simulator) applySpeeds() (served, dt float64, any bool) {
	sc := &s.scratch
	sc.tDemand = growFloats(sc.tDemand, len(s.tenants))
	dt = maxCycles - s.now
	maxVE := float64(s.cfg.Core.VEs)
	var totalDemand float64
	for ti, t := range s.tenants {
		var demand float64
		for _, u := range t.running {
			if s.veShare > 0 && u.kind == isa.VEUTop {
				if u.veGrant += s.veShare; u.veGrant > maxVE {
					u.veGrant = maxVE
				}
			}
			pre := s.preSpeed(u)
			u.speed = pre
			if pre > 0 && u.bwNeed > 0 {
				demand += u.bwNeed * pre
			}
			if pre > eps {
				any = true
				if d := u.rem / pre; d < dt {
					dt = d
				}
			}
		}
		sc.tDemand[ti] = demand
		totalDemand += demand
	}
	if totalDemand <= s.hbmCap {
		return totalDemand, dt, any
	}
	// Over capacity: list each tenant's demands again, in the same
	// order, to share its grant among them.
	sc.tGrant = growFloats(sc.tGrant, len(s.tenants))
	s.waterfill(sc.tDemand, sc.tGrant, s.hbmCap)
	for ti, t := range s.tenants {
		items := sc.items[:0]
		for _, u := range t.running {
			if u.speed > 0 && u.bwNeed > 0 {
				items = append(items, bwItem{u, u.bwNeed * u.speed})
			}
		}
		sc.items = items
		if len(items) == 0 {
			continue
		}
		sc.demands = growFloats(sc.demands, len(items))
		sc.grants = growFloats(sc.grants, len(items))
		demands, grants := sc.demands, sc.grants
		for i, it := range items {
			demands[i] = it.d
		}
		s.waterfill(demands, grants, sc.tGrant[ti])
		for i, it := range items {
			if grants[i] < it.d {
				it.u.speed *= grants[i] / it.d
			}
			served += grants[i]
		}
	}
	// The throttled speeds move the first completion.
	dt, any = maxCycles-s.now, false
	for _, t := range s.tenants {
		for _, u := range t.running {
			if u.speed > eps {
				any = true
				if d := u.rem / u.speed; d < dt {
					dt = d
				}
			}
		}
	}
	return served, dt, any
}

// horizon takes applySpeeds' µTOp horizon to the time to the next event,
// and reports whether any progress or pending unblock exists.
func (s *Simulator) horizon(dt float64, any bool) (float64, bool) {
	if s.blockedMax > s.now+eps { // else no ME is blocked past now
		for _, until := range s.meBlocked {
			if until > s.now+eps {
				any = true
				if d := until - s.now; d < dt {
					dt = d
				}
			}
		}
	}
	for _, t := range s.tenants {
		if t.spec.ArrivalRate > 0 {
			any = true
			if d := t.nextArrival - s.now; d > eps && d < dt {
				dt = d
			}
		}
	}
	if s.cfg.Policy == PMT && s.activeTenant >= 0 {
		if d := s.quantumStart + pmtQuantumCycles - s.now; d > eps && d < dt {
			dt = d
		}
	}
	if s.cfg.SampleEvery > 0 {
		if d := s.nextSample - s.now; d > eps {
			if d < dt {
				dt = d
			}
		} else {
			s.sample()
			s.nextSample = s.now + s.cfg.SampleEvery
		}
	}
	if dt < 0 {
		dt = 0
	}
	return dt, any
}

func (s *Simulator) sample() {
	for _, t := range s.tenants {
		if t.meTL == nil {
			continue
		}
		mes, ves := 0, 0.0
		for _, u := range t.running {
			if u.me >= 0 {
				mes++
			}
			ves += u.veGrant
		}
		t.meTL.Add(s.now, float64(mes))
		t.veTL.Add(s.now, ves)
	}
}

// step advances every running µTOp by dt, retires the finished ones and
// moves each tenant on to its next group, operator or request. It
// returns true when every tenant has completed the target. One pass per
// tenant both advances and retires; what reads the engines as they were
// over the interval (the Table III flags, V10's service charge) runs
// first, before a retiring µTOp frees its ME.
func (s *Simulator) step(dt, servedBW float64) bool {
	// Table III accounting: the tenant is "blocked due to being
	// harvested" when it has ready µTOps while one of its own MEs is
	// running a harvester or draining a reclaim.
	for _, t := range s.tenants {
		if t.readyME.Len() == 0 {
			continue
		}
		for _, m := range t.ownMEs {
			if u := s.meHeld[m]; (u != nil && u.harvested) || s.meBlocked[m] > s.now+eps {
				t.harvestBlocked += dt
				break
			}
		}
	}
	// Fairness accounting for temporal policies.
	switch s.cfg.Policy {
	case V10:
		// Service accrues only while the owner actually occupies the
		// MEs; charging during switch-penalty windows would flip the
		// arbitration every penalty and livelock the complex.
		if s.complexOwner >= 0 {
			o := s.tenants[s.complexOwner]
			if s.hasBoundME(o) {
				o.serviceCycles += dt * float64(s.cfg.Core.MEs)
			}
		}
	case PMT:
		if s.activeTenant >= 0 {
			s.tenants[s.activeTenant].serviceCycles += dt * float64(s.cfg.Core.MEs+s.cfg.Core.VEs)
		}
	}
	s.bwArea += servedBW * dt
	if s.hbmTL != nil {
		s.hbmTL.Add(s.now, servedBW)
	}
	s.now += dt
	done := true
	for _, t := range s.tenants {
		active := false
		kept := t.running[:0]
		for _, u := range t.running {
			if u.speed > eps {
				active = true
				u.rem -= u.speed * dt
				if u.kind == isa.MEUTop {
					s.meBusyArea += u.meFrac * u.speed * dt
					s.veBusyArea += u.veNeed * u.speed * dt
				} else {
					s.veBusyArea += u.speed * dt
				}
			}
			if u.rem > eps {
				kept = append(kept, u)
				continue
			}
			if u.me >= 0 {
				s.meHeld[u.me] = nil
			}
			if u.harvested {
				s.harvesters--
			}
			t.inFlight--
			s.utopFree = append(s.utopFree, u)
		}
		t.running = kept
		if active {
			t.activeCycles += dt
		}
		for !t.idle && t.inFlight == 0 && t.currentGroup() != nil {
			s.advanceGroup(t)
		}
		done = done && t.completed >= s.cfg.Requests
	}
	return done
}

func (s *Simulator) advanceGroup(t *tenant) {
	op := &t.spec.Graph.Ops[t.opIdx]
	t.groupIdx++
	if t.groupIdx < len(op.Groups) {
		s.emitGroup(t)
		return
	}
	// Operator finished.
	if s.solo.ends != nil {
		s.solo.ends[t.opIdx+1] = int32(len(s.solo.dts))
	}
	t.opDurSum[t.opIdx] += s.now - t.opStart
	t.opDurN[t.opIdx]++
	t.opIdx++
	t.groupIdx = 0
	t.opStart = s.now
	if t.opIdx < len(t.spec.Graph.Ops) {
		s.emitGroup(t)
		return
	}
	// Request finished.
	t.lat.Add(s.now - t.reqStart)
	t.completed++
	if t.spec.ArrivalRate > 0 {
		if t.pending.Len() > 0 {
			s.beginService(t, t.pending.Pop())
		} else {
			t.idle = true
		}
	} else {
		// Closed loop: the next request starts immediately (§V-A).
		s.beginService(t, s.now)
	}
}

func (s *Simulator) collect() *Result {
	res := &Result{
		Policy:         s.cfg.Policy,
		DurationCycles: s.now,
		HBMTimeline:    s.hbmTL,
	}
	if s.now > 0 {
		res.MEUtil = s.meBusyArea / (s.now * float64(s.cfg.Core.MEs))
		res.VEUtil = s.veBusyArea / (s.now * float64(s.cfg.Core.VEs))
		res.AvgBandwidth = s.bwArea / s.now
	}
	seconds := s.cfg.Core.CyclesToSeconds(uint64(s.now))
	for _, t := range s.tenants {
		tr := TenantResult{
			Name:           t.spec.Name,
			Requests:       t.completed,
			MeanLatency:    t.lat.Mean(),
			P95Latency:     t.lat.P95(),
			ActiveCycles:   t.activeCycles,
			HarvestBlocked: t.harvestBlocked,
			METimeline:     t.meTL,
			VETimeline:     t.veTL,
		}
		if seconds > 0 {
			tr.Throughput = float64(t.completed) / seconds
		}
		tr.OpDurations = make([]float64, len(t.opDurSum))
		for i := range t.opDurSum {
			if t.opDurN[i] > 0 {
				tr.OpDurations[i] = t.opDurSum[i] / t.opDurN[i]
			}
		}
		res.Tenants = append(res.Tenants, tr)
	}
	return res
}

// Run is the package-level convenience: build and run in one call.
func Run(cfg Config, specs []TenantSpec) (*Result, error) {
	s, err := New(cfg, specs)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// soloTrace is what SoloLatency records of its run: every event's dt;
// operator d's events are dts[ends[d]:ends[d+1]].
type soloTrace struct {
	dts  []float64
	ends []int32
}

// SoloLatency returns, bit for bit, the MeanLatency of
//
//	Run(Config{Core: core, Policy: NeuNH, Requests: 1},
//		[]TenantSpec{{Name: cg.Model, Graph: g, MEs: mes, VEs: ves}})
//
// where g is cg with its ops in order: g's op k is cg's op order[k], and
// an empty order makes g cg itself. An order index outside cg is an
// error, and so is a run that completes no request: a deadlock (named
// at a cycle of the distinct-operator run below), or a run cut off at
// the event or cycle cap. It simulates each distinct operator of cg
// once, ops that share groups being one operator, in first-occurrence
// order, recording every event's dt and where each operator's events
// end, then adds the dts along the order, as Run adds them to its
// clock. This is exact because in a lone NeuNH closed-loop run no ME is
// blocked or harvested and nothing arrives, so every operator starts on
// an idle vNPU and its events depend on it alone; the clock is read
// only to add dt to it and to stop at the cycle cap, which the sum
// applies as Run does. g itself is never built.
func SoloLatency(core arch.CoreConfig, cg *compiler.CompiledGraph, order []int32, mes, ves int) (float64, error) {
	// rep[i] is op i's index among the distinct ops; firsts[d] is the
	// graph index of distinct op d, and then the trace's ends[d+1].
	n := len(cg.Ops)
	buf := make([]int32, 2*n+1)
	rep, firsts := buf[:n], buf[n+1:n+1]
	utops := 0
	for i := range cg.Ops {
		gs := cg.Ops[i].Groups
		d := 0
		for d < len(firsts) && !sameGroups(cg.Ops[firsts[d]].Groups, gs) {
			d++
		}
		if d == len(firsts) {
			firsts = append(firsts, int32(i))
			for _, g := range gs {
				utops += len(g.UTops)
			}
		}
		rep[i] = int32(d)
	}
	distinct := *cg
	if len(firsts) < n {
		distinct.Ops = make([]compiler.CompiledOp, len(firsts))
		for d, i := range firsts {
			distinct.Ops[d] = cg.Ops[i]
		}
	}
	s, err := New(Config{Core: core, Policy: NeuNH, Requests: 1},
		[]TenantSpec{{Name: cg.Model, Graph: &distinct, MEs: mes, VEs: ves}})
	if err != nil {
		return 0, err
	}
	// A µTOp's completion is usually its own event.
	s.solo = soloTrace{dts: make([]float64, 0, utops+len(firsts)), ends: buf[n : n+1+len(firsts)]}
	res, err := s.Run()
	if err != nil {
		return 0, err
	}
	if res.Tenants[0].Requests == 0 {
		return 0, errCutOff
	}
	steps := len(order)
	if steps == 0 {
		steps = n
	}
	var now float64
	events := 0
	for k := range steps {
		i := k
		if len(order) > 0 {
			if i = int(order[k]); i < 0 || i >= n {
				return 0, fmt.Errorf("sched: op order index %d outside the graph's %d ops", i, n)
			}
		}
		d := rep[i]
		for _, dt := range s.solo.dts[s.solo.ends[d]:s.solo.ends[d+1]] {
			if events++; events > maxEvents {
				return 0, fmt.Errorf("sched: exceeded %d events at cycle %.0f", uint64(maxEvents), now)
			}
			if c := maxCycles - now; c < dt {
				dt = c // Run's horizon never passes the cap
			}
			if now+dt >= maxCycles {
				return 0, errCutOff
			}
			now += dt
		}
	}
	return now, nil
}

// errCutOff is SoloLatency's error for a run that reaches the cycle cap
// before its request completes.
var errCutOff = fmt.Errorf("sched: no request completed within %.0f cycles", float64(maxCycles))

// sameGroups reports whether a and b are one groups array.
func sameGroups(a, b []compiler.GroupSpec) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}
