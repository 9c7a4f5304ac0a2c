package serve

import (
	"testing"

	"neu10/internal/arch"
	"neu10/internal/sim"
	"neu10/internal/workload"
)

// The dispatch hot path is the price every wakeup pays now that policy
// lives behind the batcher interface: bestWork asks each queue's
// batcher for a proposal and ranks them. These benchmarks pin that
// cost — BenchmarkBestWork isolates the decision itself on populated
// slots, BenchmarkDispatchChain measures a whole dispatch-heavy run —
// so an interface-dispatch regression shows up as a number, not a
// hunch.

// benchFleet builds (without running) a fleet exercising both decision
// shapes: four dynamic tenants of mixed priority pooling their slots,
// plus a private continuous-batching LLM tenant. b0's TFMR batches span
// many preemption quanta, so the interactive tenant preempts them; the
// other batch models finish inside one quantum. The LLM tenant's
// explicit rate gives it a handful of requests in the short run, so
// the chain prices continuous batching too.
func benchFleet(b *testing.B) *fleet {
	b.Helper()
	cfg := Config{
		Scenario:    "bench",
		Core:        arch.TPUv4Like(),
		Cores:       6,
		DurationSec: 0.02,
		Seed:        1,
		Preempt:     true,
		Tenants: []TenantConfig{
			{Name: "i0", Model: "MNIST", Load: 1, EUs: 2, Priority: Interactive, ShareGroup: "pool"},
			{Name: "b0", Model: "TFMR", Load: 1, EUs: 2, ShareGroup: "pool"},
			{Name: "b1", Model: "NCF", Load: 1, EUs: 2, ShareGroup: "pool"},
			{Name: "b2", Model: "MNIST", Load: 1, EUs: 2, ShareGroup: "pool"},
			{Name: "llm", Model: "LLaMA", RatePerSec: 400, EUs: 2, MaxBatch: 4,
				LLM: &LLMConfig{Trace: workload.LLMTrace{PromptMean: 128, OutputMean: 32}}},
		},
	}
	f, err := newFleet(cfg, NewCostDB(cfg.Core))
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkBestWork measures one launch decision on a pooled slot with
// four competing queues (priority ranking active) and on an LLM slot
// with queued admissions plus a live running set — the two next()
// shapes every wakeup pays for.
func BenchmarkBestWork(b *testing.B) {
	f := benchFleet(b)
	pool := f.tenants[0].replicas[0]
	for i := range pool.qs {
		q := &pool.qs[i]
		for k := 0; k < 8; k++ {
			q.reqs = append(q.reqs, request{at: sim.Time(i*8 + k), id: int64(k + 1)})
		}
	}
	llm := f.tenants[4]
	lr := llm.replicas[0]
	lq := lr.queueFor(llm)
	for k := 0; k < 4; k++ {
		lq.reqs = append(lq.reqs, request{at: sim.Time(k), id: int64(k + 1), prompt: 128, output: 32})
		lq.running = append(lq.running, &llmSeq{
			req:       request{at: sim.Time(k), id: int64(k + 5), prompt: 128, output: 32},
			prefilled: true, ctx: 130, produced: 2,
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if q, _ := f.bestWork(pool); q == nil {
			b.Fatal("pooled slot proposed no work")
		}
		if q, _ := f.bestWork(lr); q == nil {
			b.Fatal("LLM slot proposed no work")
		}
	}
}

// BenchmarkDispatchChain runs the full arrival→poke→bestWork→launch→
// finish chain end to end: a preemptive shared-pool scenario whose
// every completion re-enters the dispatcher.
func BenchmarkDispatchChain(b *testing.B) {
	cfg := benchFleet(b).cfg
	db := NewCostDB(cfg.Core)
	rep, err := Run(cfg, db) // warm the cost DB once
	if err != nil {
		b.Fatal(err)
	}
	if llm := rep.Tenants[4]; llm.Completed == 0 {
		b.Fatalf("LLM tenant completed none of its %d arrivals", llm.Arrivals)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, db); err != nil {
			b.Fatal(err)
		}
	}
}
