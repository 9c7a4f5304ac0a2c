// Package neu10 holds the repository-level benchmark harness: one
// testing.B benchmark per table and figure of the paper's evaluation
// (regenerating its rows through internal/experiments), plus
// microbenchmarks of the performance-critical substrates. Run with:
//
//	go test -bench=. -benchmem
//
// The per-figure benchmarks report the wall time to regenerate the
// figure; the figure *contents* are printed by cmd/neu10-bench and
// asserted by the tests in internal/experiments.
package neu10

import (
	"testing"

	"neu10/internal/arch"
	"neu10/internal/compiler"
	"neu10/internal/experiments"
	"neu10/internal/isa"
	"neu10/internal/model"
	"neu10/internal/npu"
	"neu10/internal/sched"
	"neu10/internal/sim"
	"neu10/internal/workload"
)

func newRunner(b *testing.B) *experiments.Runner {
	b.Helper()
	opts := experiments.DefaultOptions()
	opts.Requests = 4
	r, err := experiments.NewRunner(opts)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func benchExperiment(b *testing.B, id string) {
	r := newRunner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Table()) == 0 {
			b.Fatal("empty result")
		}
	}
}

// ---- one benchmark per paper table/figure ----

func BenchmarkFig02DemandTimeline(b *testing.B)     { benchExperiment(b, "fig2") }
func BenchmarkFig04IntensityRatio(b *testing.B)     { benchExperiment(b, "fig4") }
func BenchmarkFig05Utilization(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFig07HBM(b *testing.B)                { benchExperiment(b, "fig7") }
func BenchmarkFig12Allocator(b *testing.B)          { benchExperiment(b, "fig12") }
func BenchmarkFig16NeuISAOverhead(b *testing.B)     { benchExperiment(b, "fig16") }
func BenchmarkFig19TailLatency(b *testing.B)        { benchExperiment(b, "fig19") }
func BenchmarkFig20AvgLatency(b *testing.B)         { benchExperiment(b, "fig20") }
func BenchmarkFig21Throughput(b *testing.B)         { benchExperiment(b, "fig21") }
func BenchmarkFig22Utilization(b *testing.B)        { benchExperiment(b, "fig22") }
func BenchmarkFig23HarvestBreakdown(b *testing.B)   { benchExperiment(b, "fig23") }
func BenchmarkTable3HarvestOverhead(b *testing.B)   { benchExperiment(b, "table3") }
func BenchmarkFig24AssignmentTimeline(b *testing.B) { benchExperiment(b, "fig24") }
func BenchmarkFig25Scaling(b *testing.B)            { benchExperiment(b, "fig25") }
func BenchmarkFig26Bandwidth(b *testing.B)          { benchExperiment(b, "fig26") }
func BenchmarkFig27LLM(b *testing.B)                { benchExperiment(b, "fig27") }

// ---- online serving scenarios ----

// BenchmarkServeSteadyState measures a full steady-state serving run:
// ~23k open-loop requests routed, admitted, batched and completed on an
// autoscaled 4-pNPU fleet (the invocation-cost database amortizes
// across iterations, exactly as it does across scenario runs).
func BenchmarkServeSteadyState(b *testing.B) { benchExperiment(b, "serve-steady") }
func BenchmarkServeFlashCrowd(b *testing.B)  { benchExperiment(b, "serve-flash") }

// BenchmarkServePriority measures the preemptive temporal-sharing
// scenario: ~6k interactive requests preempting ~25 ms batch
// invocations on shared slots (plus the FIFO baseline run), the
// hottest path through the slot scheduler's suspend/resume machinery.
func BenchmarkServePriority(b *testing.B) { benchExperiment(b, "serve-priority") }

// BenchmarkServeLLM measures the KV-cache-aware LLM serving scenario:
// continuous vs static batching of ~100 autoregressive requests (one
// prefill + per-token decode iterations each) on a two-replica fleet,
// the hot path through the iteration-level batcher and KV accountant.
func BenchmarkServeLLM(b *testing.B) { benchExperiment(b, "serve-llm") }

// BenchmarkServeDisagg measures the disaggregated prefill/decode
// scenario: five runs on the identical trace (colocated baseline plus
// a four-point interconnect-bandwidth sweep) — the hot path through
// chunked prefill, the xfer fabric's max-min sharing and the
// KV-migration machinery.
func BenchmarkServeDisagg(b *testing.B) { benchExperiment(b, "serve-disagg") }

// BenchmarkServeChaos measures the fault-injection scenario: three runs
// on the identical trace (healthy, faulted, faulted with recovery) —
// the crash/teardown path, transfer aborts, emergency spawns and
// decode-pool evacuation on top of the disaggregated machinery.
// Observability is OFF (the default); benchmark/ prices each collector
// on a long chaos horizon (the chaos-obs workload and its obs.* layers).
func BenchmarkServeChaos(b *testing.B) { benchExperiment(b, "serve-chaos") }

// BenchmarkServeConsolidate measures the consolidation study: the
// min-chips searches for the merged LLM+vision+recsys cluster and the
// three single-tenant silos — mixed batcher policies (continuous LLM
// plus dynamic batching) sharing slots on one fleet.
func BenchmarkServeConsolidate(b *testing.B) { benchExperiment(b, "serve-consolidate") }

// BenchmarkServePaged measures the KV-backend comparison scenario:
// three runs on the identical multi-turn session trace (full
// reservation, paged with evict-recompute, paged with evict-swap) —
// the hot path through block-on-demand granting, radix prefix-cache
// matching/sealing, youngest-first eviction and the host swap link.
func BenchmarkServePaged(b *testing.B) { benchExperiment(b, "serve-paged") }

// BenchmarkServeAttrib measures the latency-attribution scenario: three
// ledger-on runs (full reservation, paged, disaggregated) on one
// session trace — the whole cost of exact per-request segment
// accounting and the fleet cycle ledger on top of serving (the
// ledger-off benchmarks above are the zero-overhead regression gate).
func BenchmarkServeAttrib(b *testing.B) { benchExperiment(b, "serve-attrib") }

// ---- substrate microbenchmarks ----

// BenchmarkSystolicArrayGEMM measures the functional matrix engine: one
// 128-row tile multiply through the weight-stationary array.
func BenchmarkSystolicArrayGEMM(b *testing.B) {
	s := npu.NewSystolicArray(128)
	w := make([]float32, 128*128)
	x := make([]float32, 128)
	for i := range w {
		w[i] = float32(i % 7)
	}
	if err := s.LoadWeights(w, 128, 128); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Push(x); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Pop(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFunctionalNeuISARun measures full NeuISA interpretation of a
// lowered 32x96x128 fused MatMul+ReLU on 4 MEs.
func BenchmarkFunctionalNeuISARun(b *testing.B) {
	lay := compiler.MatMulLayout{ABase: 0, BBase: 16384, CBase: 65536}
	prog, err := compiler.LowerMatMul(32, 96, isa.VectorLanes, 4, true, lay, 4)
	if err != nil {
		b.Fatal(err)
	}
	cfg := npu.DefaultConfig()
	cfg.SRAMWords = 1 << 18
	cfg.HBMWords = 1 << 12
	core, err := npu.NewCore(cfg)
	if err != nil {
		b.Fatal(err)
	}
	mes := []int{0, 1, 2, 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunNeu(prog, mes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFunctionalVLIWRun measures the VLIW interpreter on a
// lowered 32x96x128 fused MatMul+ReLU using all 4 ME slots.
func BenchmarkFunctionalVLIWRun(b *testing.B) {
	lay := compiler.MatMulLayout{ABase: 0, BBase: 16384, CBase: 65536}
	prog, err := compiler.LowerMatMulVLIW(32, 96, isa.VectorLanes, 4, true, lay, 4)
	if err != nil {
		b.Fatal(err)
	}
	cfg := npu.DefaultConfig()
	cfg.SRAMWords = 1 << 18
	cfg.HBMWords = 1 << 12
	core, err := npu.NewCore(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunVLIW(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkISAEncodeDecode measures binary round-tripping of a lowered
// NeuISA program (driver launch path).
func BenchmarkISAEncodeDecode(b *testing.B) {
	prog, err := compiler.LowerMatMul(64, 128, isa.VectorLanes, 4, true, compiler.MatMulLayout{}, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bin := prog.Encode()
		if _, err := isa.DecodeNeuProgram(bin); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileBERT measures graph construction plus NeuISA
// compilation for the largest transformer workload.
func BenchmarkCompileBERT(b *testing.B) {
	comp, err := compiler.New(arch.TPUv4Like())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		g, err := model.Build("BERT", 32)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := comp.Compile(g, compiler.ISANeu); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerSteadyState measures the fluid simulator on the
// paper's default scenario (DLRM+SMask under Neu10, 4 requests each).
func BenchmarkSchedulerSteadyState(b *testing.B) {
	core := arch.TPUv4Like()
	comp, err := workload.NewCompiled(core)
	if err != nil {
		b.Fatal(err)
	}
	specs, err := comp.Tenants(workload.Pair{W1: "DLRM", W2: "SMask"}, sched.Neu10, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Run(sched.Config{Core: core, Policy: sched.Neu10, Requests: 4}, specs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventQueue measures the discrete-event kernel.
func BenchmarkEventQueue(b *testing.B) {
	e := sim.NewEngine()
	rng := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+sim.Time(rng.Intn(1000)), func(sim.Time) {})
		if i%64 == 63 {
			for e.Step() {
			}
		}
	}
}

// BenchmarkAllocatorSweep measures the Eq. 2 exhaustive split search the
// allocator performs per workload.
func BenchmarkAllocatorSweep(b *testing.B) {
	r := newRunner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Fig12Allocator(); err != nil {
			b.Fatal(err)
		}
	}
}
