package serve

import (
	"strings"
	"testing"

	"neu10/internal/arch"
	"neu10/internal/workload"
)

// llmConfig is the shared LLM test scenario: decode-dominated requests
// with long-tailed output lengths on a fixed two-replica fleet — the
// shape where continuous and static batching genuinely diverge — small
// enough that the phase-cost buckets measure in milliseconds.
func llmConfig(seed uint64, static bool) Config {
	return Config{
		Scenario:    "llm-test",
		Core:        arch.TPUv4Like(),
		Cores:       2,
		Router:      LeastLoaded,
		DurationSec: 10.0,
		Seed:        seed,
		Tenants: []TenantConfig{{
			Name: "gen", Model: "LLaMA", Load: 0.75, EUs: 4, MaxBatch: 8, QueueCap: 32,
			InitialReplicas: 2, MaxReplicas: 2,
			LLM: &LLMConfig{Static: static, Trace: workload.LLMTrace{
				PromptMin: 16, PromptMean: 32, PromptMax: 64,
				OutputMin: 2, OutputMean: 12, OutputMax: 48}},
		}},
	}
}

// TestLLMContinuousBeatsStatic is the tentpole's headline property: on
// the identical trace (same seed, same drawn shapes), the continuous
// batcher must beat the static baseline on goodput AND p99 per-token
// latency. Static batching pads every batch to its longest output, so
// short requests ride dead lanes for whole generations.
func TestLLMContinuousBeatsStatic(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	cont, err := Run(llmConfig(1, false), db)
	if err != nil {
		t.Fatal(err)
	}
	stat, err := Run(llmConfig(1, true), db)
	if err != nil {
		t.Fatal(err)
	}
	ct, st := cont.Tenants[0], stat.Tenants[0]
	if ct.Arrivals != st.Arrivals {
		t.Fatalf("trace not identical: %d vs %d arrivals", ct.Arrivals, st.Arrivals)
	}
	if ct.LLM == nil || st.LLM == nil {
		t.Fatal("LLM report section missing")
	}
	if ct.LLM.Batcher != "continuous" || st.LLM.Batcher != "static" {
		t.Fatalf("batcher labels %q/%q", ct.LLM.Batcher, st.LLM.Batcher)
	}
	if ct.GoodputRPS <= st.GoodputRPS {
		t.Errorf("continuous goodput %.2f did not beat static %.2f", ct.GoodputRPS, st.GoodputRPS)
	}
	if ct.LLM.TPOTP99Ms >= st.LLM.TPOTP99Ms {
		t.Errorf("continuous p99 TPOT %.2fms did not beat static %.2fms",
			ct.LLM.TPOTP99Ms, st.LLM.TPOTP99Ms)
	}
	// Output tokens are a property of the trace, not the batcher.
	if ct.LLM.TokensOut != st.LLM.TokensOut {
		t.Errorf("token totals diverge: continuous %d, static %d", ct.LLM.TokensOut, st.LLM.TokensOut)
	}
	for _, tr := range []TenantReport{ct, st} {
		if tr.Arrivals != tr.Rejected+tr.Completed {
			t.Errorf("%s: %d arrivals ≠ %d rejected + %d completed",
				tr.LLM.Batcher, tr.Arrivals, tr.Rejected, tr.Completed)
		}
	}
}

// TestLLMDeterminism extends the byte-identical guarantee to LLM runs:
// same seed ⇒ identical report, shared or private cost database;
// different seed ⇒ different report.
func TestLLMDeterminism(t *testing.T) {
	shared := NewCostDB(arch.TPUv4Like())
	r1, err := Run(llmConfig(3, false), shared)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(llmConfig(3, false), shared)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Run(llmConfig(3, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Table() != r2.Table() {
		t.Errorf("same seed, warm shared DB: reports differ\n%s\nvs\n%s", r1.Table(), r2.Table())
	}
	if r1.Table() != r3.Table() {
		t.Errorf("same seed, private DB: reports differ\n%s\nvs\n%s", r1.Table(), r3.Table())
	}
	r4, err := Run(llmConfig(4, false), shared)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Table() == r4.Table() {
		t.Error("different seeds produced identical LLM reports")
	}
	for _, want := range []string{"llm tenant", "ttft-p99(ms)", "tpot-p99(ms)", "kv-occ(peak)"} {
		if !strings.Contains(r1.Table(), want) {
			t.Errorf("LLM table section missing %q:\n%s", want, r1.Table())
		}
	}
}

// TestLLMKVAdmissionPressure squeezes the per-replica KV capacity with
// the KVCapTokens override until the admission rule has to act: the
// accountant must report stalls and a high peak occupancy, yet every
// request stays accounted for (queued-on-KV requests are served later,
// not lost) and the occupancy fractions stay in [0, 1]. The accountant
// itself panics on any overcommit, so completion of this test also
// certifies no reservation ever exceeded capacity.
func TestLLMKVAdmissionPressure(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := llmConfig(seed, false)
		// Max request = 64+48 = 112 tokens = 7 blocks; capacity 8 blocks.
		// MaxBatch 8 wants up to ~56 blocks — KV, not batch width, is the
		// binding constraint.
		cfg.Tenants[0].LLM.KVCapTokens = 128
		rep, err := Run(cfg, db)
		if err != nil {
			t.Fatal(err)
		}
		tr := rep.Tenants[0]
		if tr.LLM.KVStalls == 0 {
			t.Errorf("seed %d: KV capacity of 8 blocks produced no stalls — admission rule untested", seed)
		}
		if tr.LLM.KVOccPeak <= 0.5 || tr.LLM.KVOccPeak > 1 {
			t.Errorf("seed %d: peak KV occupancy %.2f not in (0.5, 1]", seed, tr.LLM.KVOccPeak)
		}
		if tr.LLM.KVOccMean < 0 || tr.LLM.KVOccMean > 1 {
			t.Errorf("seed %d: mean KV occupancy %.2f out of [0,1]", seed, tr.LLM.KVOccMean)
		}
		if tr.Arrivals != tr.Rejected+tr.Completed {
			t.Errorf("seed %d: %d arrivals ≠ %d rejected + %d completed",
				seed, tr.Arrivals, tr.Rejected, tr.Completed)
		}
		if tr.Completed == 0 {
			t.Errorf("seed %d: nothing completed under KV pressure", seed)
		}
	}
}

// TestLLMKVCapacityFloor: a replica whose KV partition cannot hold even
// one maximal request must be rejected at construction, not left to
// deadlock its queue head forever.
func TestLLMKVCapacityFloor(t *testing.T) {
	cfg := llmConfig(1, false)
	cfg.Tenants[0].LLM.KVCapTokens = 64 // max request needs 112 tokens
	if _, err := Run(cfg, nil); err == nil {
		t.Fatal("under-capacity KV partition accepted")
	}
}

// TestLLMPreemptionInterplay runs an Interactive single-shot tenant
// sharing slots with a Batch-priority LLM tenant under preemption: the
// multi-iteration decode stream must yield at quantum boundaries
// (preemptions observed), sequences must survive suspension (all
// admitted work completes), and the work-conservation ledger must hold.
func TestLLMPreemptionInterplay(t *testing.T) {
	cfg := Config{
		Scenario:    "llm-preempt",
		Core:        arch.TPUv4Like(),
		Cores:       2,
		Router:      LeastLoaded,
		DurationSec: 6.0,
		Seed:        2,
		// The ~0.5 ms preemption quanta give an ~86 ms decode iteration
		// plenty of checkpoints.
		Preempt: true,
		Tenants: []TenantConfig{
			{Name: "chat", Model: "ENet", Priority: Interactive, ShareGroup: "pool",
				Load: 0.25, EUs: 4, MaxBatch: 4, InitialReplicas: 1, MaxReplicas: 1},
			{Name: "gen", Model: "LLaMA", Priority: Batch, ShareGroup: "pool",
				Load: 0.5, EUs: 4, MaxBatch: 4, QueueCap: 32, SLOFactor: 6,
				InitialReplicas: 1, MaxReplicas: 1,
				LLM: &LLMConfig{Trace: workload.LLMTrace{
					PromptMin: 16, PromptMean: 32, PromptMax: 64,
					OutputMin: 2, OutputMean: 8, OutputMax: 16}}},
		},
	}
	rep, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Preemptions == 0 {
		t.Error("no preemptions: the interactive tenant never interrupted the decode stream")
	}
	for _, tr := range rep.Tenants {
		if tr.Arrivals != tr.Rejected+tr.Completed {
			t.Errorf("tenant %s: %d arrivals ≠ %d rejected + %d completed",
				tr.Name, tr.Arrivals, tr.Rejected, tr.Completed)
		}
	}
	if rep.Tenants[1].LLM == nil || rep.Tenants[1].LLM.TokensOut == 0 {
		t.Error("LLM tenant produced no tokens under preemption")
	}
}
