package serve

import (
	"math"
	"testing"

	"neu10/internal/arch"
	"neu10/internal/virt"
)

// priorityConfig is the fast mixed-priority scenario the preemption
// tests run, with serve-priority's pairing: an Interactive ENet tenant
// and a Batch TFMR tenant pooling their replicas in one share group.
// TFMR batches span many 0.5 ms preemption quanta, so without
// preemption an interactive request routinely waits far past its SLO
// behind an in-flight TFMR batch, and with it a batch is checkpointed
// many times.
func priorityConfig(seed uint64, preempt bool) Config {
	return Config{
		Scenario:      "prio-test",
		Core:          arch.TPUv4Like(),
		Cores:         3,
		Router:        LeastLoaded,
		DurationSec:   0.2,
		Seed:          seed,
		Autoscale:     true,
		ScaleEverySec: 0.004,
		Preempt:       preempt,
		Tenants: []TenantConfig{
			{Name: "fg", Model: "ENet", Priority: Interactive, ShareGroup: "pool",
				Load: 0.35, EUs: 2, MaxBatch: 2, QueueCap: 16, InitialReplicas: 1, MaxReplicas: 2},
			{Name: "bg", Model: "TFMR", Priority: Batch, ShareGroup: "pool",
				Load: 0.7, EUs: 2, MaxBatch: 8, QueueCap: 32, InitialReplicas: 1, MaxReplicas: 2},
		},
	}
}

// TestRouteSurvivesFullDrain is the regression test for the full-drain
// routing panic: make-before-break churn can leave every replica of a
// tenant draining, and the pre-fix route() then indexed cands[0] on an
// empty candidate slice (LeastLoaded/JSQ) or called routeRNG.Intn(0)
// (PowerOfTwo) and panicked. The fixed router falls back to the
// least-loaded draining replica, which still serves its queue to
// completion. The drain sequence below is exactly the autoscaler's own
// machinery: a make-before-break resize (spawn bigger, drain the old)
// followed by one more drain of the replacement before any new
// replica maps — the churn preemptive temporal sharing produces.
func TestRouteSurvivesFullDrain(t *testing.T) {
	for _, router := range []RouterPolicy{LeastLoaded, JSQ, PowerOfTwo} {
		cfg := Config{
			Scenario:    "drain-test",
			Core:        arch.TPUv4Like(),
			Cores:       2,
			Router:      router,
			DurationSec: 0.01,
			Seed:        1,
			Tenants: []TenantConfig{
				{Name: "a", Model: "MNIST", Load: 0.5, EUs: 2, MaxBatch: 4, QueueCap: 8},
			},
		}
		f, err := newFleet(cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", router, err)
		}
		ten := f.tenants[0]

		// Make-before-break resize: spawn the bigger replica, drain the
		// old one (it is idle, so it retires on the spot).
		if err := f.spawnReplica(ten, ten.curEUs+2, RoleMixed); err != nil {
			t.Fatalf("%s: resize spawn: %v", router, err)
		}
		ten.curEUs += 2
		f.drainOne(ten, RoleMixed, 0, true)
		if got := ten.activeCount(); got != 1 {
			t.Fatalf("%s: after resize, %d active replicas, want 1", router, got)
		}

		// Queue work on the survivor, then drain it too — the state the
		// pre-fix router could not survive.
		f.arrive(ten, 0)
		f.drainOne(ten, RoleMixed, 0, false)
		if got := ten.activeCount(); got != 0 {
			t.Fatalf("%s: tenant not fully draining (%d active)", router, got)
		}

		// Pre-fix: panic. Post-fix: deterministic fallback onto the
		// least-loaded draining replica; nothing is shed.
		f.arrive(ten, 0)
		f.arrive(ten, 0)
		if ten.rejected != 0 {
			t.Errorf("%s: %d requests shed during full drain; want queued on a draining replica",
				router, ten.rejected)
		}

		// The draining replica still serves its queue and then retires.
		f.eng.Run()
		if ten.completed != ten.arrivals {
			t.Errorf("%s: %d/%d requests completed after full drain", router, ten.completed, ten.arrivals)
		}
		if len(ten.replicas) != 0 {
			t.Errorf("%s: %d replicas linger after drain completed", router, len(ten.replicas))
		}

		// With no replicas at all, admission rejects instead of panicking.
		before := ten.rejected
		f.arrive(ten, f.eng.Now())
		if ten.rejected != before+1 {
			t.Errorf("%s: request for a replica-less tenant not admission-rejected", router)
		}
	}
}

// TestPreemptionWorkConservation is the core preempt/resume invariant:
// every batch's service cycles are priced once at launch and must be
// delivered exactly once across all of its segments — no work lost, no
// work duplicated, regardless of how often it was suspended. The FIFO
// baseline must additionally never preempt at all.
func TestPreemptionWorkConservation(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	totalPreempts := 0
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := priorityConfig(seed, true)
		f, err := newFleet(cfg, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, ten := range f.tenants {
			f.scheduleArrival(ten)
		}
		f.scheduleScale(cfg.ScaleEverySec * cfg.Core.FrequencyHz)
		f.eng.Run()
		rep := f.report()

		pre, res, overhead := rep.Preemptions, rep.Resumes, rep.SwitchOverheadMs
		totalPreempts += pre
		if pre != res {
			t.Errorf("seed %d: %d preemptions but %d resumes — a suspended batch was lost", seed, pre, res)
		}
		if pre > 0 && overhead <= 0 {
			t.Errorf("seed %d: %d preemptions with no switch overhead recorded", seed, pre)
		}
		for _, ten := range f.tenants {
			if diff := math.Abs(ten.issuedCycles - ten.servedCycles); diff > 1e-6*ten.issuedCycles {
				t.Errorf("seed %d tenant %s: issued %.3f service cycles, served %.3f — work not conserved",
					seed, ten.cfg.Name, ten.issuedCycles, ten.servedCycles)
			}
		}
		for _, tr := range rep.Tenants {
			if tr.Arrivals != tr.Rejected+tr.Completed {
				t.Errorf("seed %d tenant %s: %d arrivals ≠ %d rejected + %d completed",
					seed, tr.Name, tr.Arrivals, tr.Rejected, tr.Completed)
			}
		}

		// The FIFO baseline on the identical trace must never preempt.
		off, err := Run(priorityConfig(seed, false), db)
		if err != nil {
			t.Fatal(err)
		}
		if off.Preemptions != 0 || off.Resumes != 0 {
			t.Errorf("seed %d: FIFO baseline recorded %d preempts / %d resumes",
				seed, off.Preemptions, off.Resumes)
		}
	}
	if totalPreempts == 0 {
		t.Error("no preemption occurred across any seed — the invariant was never exercised")
	}
}

// TestBatchBoundedWait is the no-starvation property: under sustained
// Interactive pressure the Batch tenant keeps completing work and
// accounts for every arrival. The aging credit bounds a batch's wait,
// not its count of preempts and bypasses (TestAgingCreditBoundsWait);
// at this config the worst count also stays within the 64 quanta the
// credit is denominated in, which the test checks as a guard against
// runaway preemption (other pairings can exceed it, e.g. MNIST
// interactive over TFMR batch).
func TestBatchBoundedWait(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		cfg := priorityConfig(seed, true)
		cfg.Tenants[0].Load = 0.9 // sustained interactive load
		f, err := newFleet(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, ten := range f.tenants {
			f.scheduleArrival(ten)
		}
		f.scheduleScale(cfg.ScaleEverySec * cfg.Core.FrequencyHz)
		f.eng.Run()
		bg := f.tenants[1]
		if bg.maxPreempts > maxPreemptsPerBatch {
			t.Errorf("seed %d: a batch suffered %d preempts+bypasses, bound %d",
				seed, bg.maxPreempts, maxPreemptsPerBatch)
		}
		if bg.completed == 0 {
			t.Errorf("seed %d: Batch tenant starved outright (0 completions)", seed)
		}
		if bg.arrivals != bg.rejected+bg.completed {
			t.Errorf("seed %d: Batch accounting broken: %d ≠ %d + %d",
				seed, bg.arrivals, bg.rejected, bg.completed)
		}
	}
}

// TestAgingCreditBoundsWait pins the credit scheme's defining
// property: a batch's total victimization wait (time suspended, across
// preemptions and bypasses) never exceeds the aging-credit budget
// (preemptBudget) by more than the one interloper that was in flight
// when the credit ran out. Event counts are NOT the bound — delay is.
// The interactive load is past what one slot serves, so batches wait
// out their whole credit and the immunity that follows is what holds
// the bound.
func TestAgingCreditBoundsWait(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	exhausted := false
	for seed := uint64(1); seed <= 4; seed++ {
		cfg := priorityConfig(seed, true)
		cfg.Tenants[0].Load = 1.5 // interactive pressure past one slot's capacity
		f, err := newFleet(cfg, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, ten := range f.tenants {
			f.scheduleArrival(ten)
		}
		f.scheduleScale(cfg.ScaleEverySec * cfg.Core.FrequencyHz)
		f.eng.Run()
		fg, bg := f.tenants[0], f.tenants[1]
		// The designed overshoot: one interactive batch of MaxBatch on
		// the slowest split any pool replica of the run had, the
		// checkpoint save a preemptor pays before it runs, and the cycle
		// its completion event rounds up by.
		var slack float64
		for _, c := range f.tables {
			cycles, err := c.service(fg, fg.cfg.MaxBatch)
			if err != nil {
				t.Fatal(err)
			}
			slack = math.Max(slack, cycles+virt.SwitchCycles(c.nm, c.nv)+1)
		}
		budget := float64(preemptBudget)
		if bg.maxVictimWait > budget+slack {
			t.Errorf("seed %d: a batch waited %.0f cycles under a %.0f-cycle credit budget (overshoot bound %.0f)",
				seed, bg.maxVictimWait, budget, slack)
		}
		if bg.maxVictimWait >= budget {
			exhausted = true
		}
	}
	if !exhausted {
		t.Error("no batch ever spent its whole credit — the immunity it earns was never exercised")
	}
}

// TestPriorityByteIdenticalReport extends the determinism guarantee to
// preemptive runs: same seed, same bytes, warm or cold cost database.
func TestPriorityByteIdenticalReport(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	r1, err := Run(priorityConfig(9, true), db)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(priorityConfig(9, true), db)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Run(priorityConfig(9, true), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Table() != r2.Table() || r1.Table() != r3.Table() {
		t.Errorf("preemptive run is not byte-reproducible:\n%s\nvs\n%s\nvs\n%s",
			r1.Table(), r2.Table(), r3.Table())
	}
	if len(r1.Priorities) != 2 {
		t.Fatalf("priority report has %d classes, want 2:\n%s", len(r1.Priorities), r1.Table())
	}
	if r1.Priorities[0].Priority != Interactive.String() {
		t.Errorf("priority classes not ordered highest-first: %q", r1.Priorities[0].Priority)
	}
}

// TestPriorityImprovesInteractiveTail checks the mechanism does what it
// is for: on the identical trace, preemptive sharing must improve the
// Interactive class's SLO attainment over the FIFO baseline while the
// Batch class keeps completing work.
func TestPriorityImprovesInteractiveTail(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	on, err := Run(priorityConfig(2, true), db)
	if err != nil {
		t.Fatal(err)
	}
	off, err := Run(priorityConfig(2, false), db)
	if err != nil {
		t.Fatal(err)
	}
	if on.Tenants[0].Arrivals != off.Tenants[0].Arrivals {
		t.Fatalf("traces diverge: %d vs %d arrivals", on.Tenants[0].Arrivals, off.Tenants[0].Arrivals)
	}
	if on.Tenants[0].SLOAttainment <= off.Tenants[0].SLOAttainment {
		t.Errorf("preemption did not improve interactive attainment: %.3f vs %.3f",
			on.Tenants[0].SLOAttainment, off.Tenants[0].SLOAttainment)
	}
	if on.Tenants[1].Completed == 0 {
		t.Error("batch tenant completed nothing under preemption")
	}
}

// TestEmptyWindowAutoscalerDecision pins the documented three-way read
// of an empty observation window: backlogged-but-silent windows HOLD
// the fleet, truly idle windows DECAY it toward the one-replica floor
// (pre-fix, both held forever, freezing an idle tenant at its peak
// size).
func TestEmptyWindowAutoscalerDecision(t *testing.T) {
	mk := func() (*fleet, *tenantState) {
		cfg := Config{
			Scenario:    "window-test",
			Core:        arch.TPUv4Like(),
			Cores:       2,
			DurationSec: 0.01,
			Seed:        1,
			Autoscale:   true,
			Tenants: []TenantConfig{
				{Name: "a", Model: "MNIST", Load: 0.5, EUs: 2, MaxBatch: 4, QueueCap: 8,
					InitialReplicas: 2, MaxReplicas: 2},
			},
		}
		f, err := newFleet(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return f, f.tenants[0]
	}

	// Hold: an empty window with a small backlog (work in flight,
	// nothing completed) must change nothing.
	f, ten := mk()
	f.arrive(ten, 0)
	f.scaleTenant(ten, 0)
	if ten.activeCount() != 2 || ten.scaleDowns != 0 || ten.scaleUps != 0 {
		t.Errorf("hold: empty window with backlog acted (%d active, %d downs, %d ups)",
			ten.activeCount(), ten.scaleDowns, ten.scaleUps)
	}

	// Decay: an empty window with no work at all scales in.
	f, ten = mk()
	f.scaleTenant(ten, 0)
	if ten.activeCount() != 1 || ten.scaleDowns != 1 {
		t.Errorf("decay: idle window kept %d active replicas (%d scale-downs); want decay toward the floor",
			ten.activeCount(), ten.scaleDowns)
	}
	// And never below the floor of one replica.
	f.scaleTenant(ten, 0)
	if ten.activeCount() != 1 {
		t.Errorf("decay went below the floor: %d active", ten.activeCount())
	}
}

// TestDynamicBatchAllocBudget locks in the timers bound once per
// replica. It runs priorityConfig with preemption on and a fixed fleet
// at 1 and 2 simulated seconds, each after a warm-up run that fills the
// CostDB, so the per-run costs cancel in the difference, which must
// stay at most 0.1 allocations per extra arrival. An arrival at an idle
// slot arms the batch-window timer and one at a busy slot may arm a
// preemption; a closure per arming cost about 0.7 allocations per
// arrival here.
func TestDynamicBatchAllocBudget(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	run := func(sec float64) (allocs float64, arrivals, preempts int) {
		cfg := priorityConfig(1, true)
		cfg.Autoscale = false
		cfg.DurationSec = sec
		allocs = testing.AllocsPerRun(1, func() {
			rep, err := Run(cfg, db)
			if err != nil {
				t.Fatal(err)
			}
			arrivals = rep.Tenants[0].Arrivals + rep.Tenants[1].Arrivals
			preempts = rep.Preemptions
		})
		return allocs, arrivals, preempts
	}
	a1, n1, p1 := run(1)
	a2, n2, p2 := run(2)
	if n2 <= n1 || p2 <= p1 {
		t.Fatalf("%d arrivals and %d preemptions at 2 s, %d and %d at 1 s", n2, p2, n1, p1)
	}
	per := (a2 - a1) / float64(n2-n1)
	t.Logf("%.0f allocs / %d arrivals at 1 s, %.0f / %d at 2 s: %.3f per extra arrival", a1, n1, a2, n2, per)
	if per > 0.1 {
		t.Errorf("%.3f allocations per extra arrival, want ≤ 0.1 (a closure per timer arming?)", per)
	}
}
