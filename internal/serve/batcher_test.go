package serve

import (
	"testing"

	"neu10/internal/arch"
)

// The batcher interface promises that the slot machinery composes with
// ANY policy: priority preemption and fault-crash harvesting live in
// slot.go/recovery.go and must work for a plain dynamicBatch tenant
// exactly as they do for the LLM policies they were first built
// around. These tests pin that composition on non-LLM tenants.

// TestBatcherBinding checks newFleet binds the policy matching each
// tenant's config.
func TestBatcherBinding(t *testing.T) {
	cfg := fastConfig(1)
	f, err := newFleet(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range f.tenants {
		if _, ok := ts.batcher.(*dynamicBatch); !ok {
			t.Errorf("tenant %s: batcher %T, want *dynamicBatch", ts.cfg.Name, ts.batcher)
		}
		if !ts.batcher.coalesces() {
			t.Errorf("tenant %s: dynamic batcher must coalesce behind the batch window", ts.cfg.Name)
		}
	}
}

// sharedPoolConfig overloads a preemptive temporal-shared pool of two
// dynamic-batch tenants — an interactive ENet one and a batch TFMR one,
// serve-priority's pairing — so the interactive tenant's work has to
// preempt in-flight batch work, which spans many preemption quanta.
func sharedPoolConfig(seed uint64) Config {
	return Config{
		Scenario:    "batcher-test",
		Core:        arch.TPUv4Like(),
		Cores:       2,
		DurationSec: 0.2,
		Seed:        seed,
		Preempt:     true,
		Tenants: []TenantConfig{
			{Name: "inter", Model: "ENet", Load: 1.2, EUs: 2, MaxBatch: 4, QueueCap: 16,
				Priority: Interactive, ShareGroup: "pool", InitialReplicas: 1},
			{Name: "batch", Model: "TFMR", Load: 1.5, EUs: 2, MaxBatch: 8, QueueCap: 32,
				ShareGroup: "pool", InitialReplicas: 1},
		},
	}
}

// TestPreemptionComposesWithDynamicBatch: priority preemption on a
// shared slot must fire for dynamic-batch tenants routed through the
// batcher interface, with the work-conservation ledger intact — every
// offered request still ends rejected or completed, and preempted
// batches resume.
func TestPreemptionComposesWithDynamicBatch(t *testing.T) {
	preempted := false
	for seed := uint64(1); seed <= 4; seed++ {
		rep, err := Run(sharedPoolConfig(seed), nil)
		if err != nil {
			t.Fatal(err)
		}
		var batchTR *TenantReport
		for i := range rep.Tenants {
			tr := &rep.Tenants[i]
			if tr.Arrivals != tr.Rejected+tr.Completed {
				t.Errorf("seed %d tenant %s: %d arrivals ≠ %d rejected + %d completed",
					seed, tr.Name, tr.Arrivals, tr.Rejected, tr.Completed)
			}
			if tr.Name == "batch" {
				batchTR = tr
			}
		}
		if batchTR.Preemptions > 0 {
			preempted = true
			if batchTR.Resumes != batchTR.Preemptions {
				t.Errorf("seed %d: %d preemptions but %d resumes — a suspended dynamic batch was dropped",
					seed, batchTR.Preemptions, batchTR.Resumes)
			}
			if batchTR.StolenMs <= 0 {
				t.Errorf("seed %d: preemptions charged no switch overhead", seed)
			}
		}
	}
	if !preempted {
		t.Error("no seed preempted the batch tenant — the scenario does not exercise preemption")
	}
}

// TestCrashHarvestComposesWithDynamicBatch: crashing a dynamic-batch
// tenant's replica must harvest its queued and in-flight requests
// through the interface-dispatched slot machinery, keeping the offered
// ledger exact: arrivals = rejected + completed + crash-lost.
func TestCrashHarvestComposesWithDynamicBatch(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		cfg := fastConfig(seed)
		cfg.Autoscale = false
		cfg.Tenants[0].InitialReplicas = 2
		cfg.Tenants[0].MaxReplicas = 2
		cfg.Faults = &FaultPlan{Events: []FaultEvent{
			{Kind: FaultCrashReplica, Tenant: "a", AtFrac: 0.4},
		}}
		rep, err := Run(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := rep.Tenants[0]
		if tr.Crashes != 1 {
			t.Fatalf("seed %d: %d crashes recorded, want 1", seed, tr.Crashes)
		}
		if tr.Arrivals != tr.Rejected+tr.Completed+tr.CrashLost {
			t.Errorf("seed %d: %d arrivals ≠ %d rejected + %d completed + %d crash-lost",
				seed, tr.Arrivals, tr.Rejected, tr.Completed, tr.CrashLost)
		}
		if tr.CrashRequeued == 0 && tr.CrashLost == 0 {
			t.Errorf("seed %d: crash harvested nothing — victim idle at injection, scenario too calm", seed)
		}
		// The untouched tenant's ledger must not see the fault.
		other := rep.Tenants[1]
		if other.Crashes != 0 || other.CrashLost != 0 {
			t.Errorf("seed %d: fault leaked to tenant %s (%d crashes, %d lost)",
				seed, other.Name, other.Crashes, other.CrashLost)
		}
		if other.Arrivals != other.Rejected+other.Completed {
			t.Errorf("seed %d tenant %s: %d arrivals ≠ %d rejected + %d completed",
				seed, other.Name, other.Arrivals, other.Rejected, other.Completed)
		}
	}
}

// TestPreemptionAndCrashTogether: both composition seams at once — a
// preemptive shared pool whose batch-tenant replica crashes mid-run.
// Suspended batches harvested off the dead slot must re-enter the
// ledger, not leak.
func TestPreemptionAndCrashTogether(t *testing.T) {
	cfg := sharedPoolConfig(3)
	cfg.Faults = &FaultPlan{Events: []FaultEvent{
		{Kind: FaultCrashReplica, Tenant: "batch", AtFrac: 0.5},
	}}
	rep, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range rep.Tenants {
		if tr.Arrivals != tr.Rejected+tr.Completed+tr.CrashLost {
			t.Errorf("tenant %s: %d arrivals ≠ %d rejected + %d completed + %d crash-lost",
				tr.Name, tr.Arrivals, tr.Rejected, tr.Completed, tr.CrashLost)
		}
	}
	if rep.Tenants[1].Crashes != 1 {
		t.Errorf("batch tenant crashes = %d, want 1", rep.Tenants[1].Crashes)
	}
}
