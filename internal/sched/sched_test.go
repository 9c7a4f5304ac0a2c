package sched

import (
	"math"
	"testing"

	"neu10/internal/arch"
	"neu10/internal/compiler"
	"neu10/internal/isa"
)

func tpu() arch.CoreConfig { return arch.TPUv4Like() }

// synth builds a compiled graph from raw µTOp specs for precise tests.
func synth(kind compiler.ISAKind, ops ...compiler.CompiledOp) *compiler.CompiledGraph {
	return &compiler.CompiledGraph{
		Model:     "synthetic",
		BatchSize: 1,
		Target:    tpu(),
		ISA:       kind,
		Ops:       ops,
	}
}

// meOp builds an operator of n ME µTOps, each me cycles of matrix work
// and ve cycles of inline vector work.
func meOp(n int, me, ve uint64) compiler.CompiledOp {
	g := compiler.GroupSpec{}
	for i := 0; i < n; i++ {
		g.UTops = append(g.UTops, compiler.UTopSpec{Kind: isa.MEUTop, MECycles: me, VECycles: ve})
	}
	return compiler.CompiledOp{Name: "me-op", Kind: compiler.MatMul, Groups: []compiler.GroupSpec{g}}
}

// veOp builds a single VE µTOp operator.
func veOp(ve uint64) compiler.CompiledOp {
	return compiler.CompiledOp{Name: "ve-op", Kind: compiler.VectorEW, Groups: []compiler.GroupSpec{
		{UTops: []compiler.UTopSpec{{Kind: isa.VEUTop, VECycles: ve}}},
	}}
}

func mustRun(t *testing.T, cfg Config, specs ...TenantSpec) *Result {
	t.Helper()
	res, err := Run(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSoloTenantNHBasicTiming(t *testing.T) {
	// One op of 4 µTOps × 1000 cycles on a 2-ME vNPU: two waves → ~2000
	// cycles per request.
	g := synth(compiler.ISANeu, meOp(4, 1000, 0))
	res := mustRun(t, Config{Core: tpu(), Policy: NeuNH, Requests: 5},
		TenantSpec{Name: "solo", Graph: g, MEs: 2, VEs: 2})
	lat := res.Tenants[0].MeanLatency
	if math.Abs(lat-2000) > 1 {
		t.Fatalf("latency %.1f, want ~2000", lat)
	}
	if res.Tenants[0].Requests < 5 {
		t.Fatalf("completed %d requests", res.Tenants[0].Requests)
	}
}

func TestSoloTenantFullCoreIsFaster(t *testing.T) {
	g := synth(compiler.ISANeu, meOp(4, 1000, 0))
	half := mustRun(t, Config{Core: tpu(), Policy: NeuNH, Requests: 5},
		TenantSpec{Name: "s", Graph: g, MEs: 2, VEs: 2})
	full := mustRun(t, Config{Core: tpu(), Policy: NeuNH, Requests: 5},
		TenantSpec{Name: "s", Graph: g, MEs: 4, VEs: 4})
	if full.Tenants[0].MeanLatency >= half.Tenants[0].MeanLatency {
		t.Fatalf("full core (%.0f) not faster than half (%.0f)",
			full.Tenants[0].MeanLatency, half.Tenants[0].MeanLatency)
	}
	if math.Abs(full.Tenants[0].MeanLatency-1000) > 1 {
		t.Fatalf("full-core latency %.1f, want ~1000", full.Tenants[0].MeanLatency)
	}
}

func TestVEPipelineBound(t *testing.T) {
	// An ME µTOp whose inline VE work exceeds its ME work is bound by the
	// VE stream: 1 µTOp with me=100, ve=400 and 1 VE → 400 cycles.
	g := synth(compiler.ISANeu, meOp(1, 100, 400))
	res := mustRun(t, Config{Core: tpu(), Policy: NeuNH, Requests: 3},
		TenantSpec{Name: "s", Graph: g, MEs: 1, VEs: 1})
	if lat := res.Tenants[0].MeanLatency; math.Abs(lat-400) > 1 {
		t.Fatalf("latency %.1f, want ~400 (VE bound)", lat)
	}
}

func TestGroupBarrierSequencing(t *testing.T) {
	// Two groups: 4 ME µTOps then a VE summation (the reduction-split
	// shape). The VE group must wait for all ME µTOps.
	op := compiler.CompiledOp{Name: "red", Kind: compiler.MatMul, Groups: []compiler.GroupSpec{
		{UTops: []compiler.UTopSpec{
			{Kind: isa.MEUTop, MECycles: 500},
			{Kind: isa.MEUTop, MECycles: 500},
			{Kind: isa.MEUTop, MECycles: 500},
			{Kind: isa.MEUTop, MECycles: 500},
		}},
		{UTops: []compiler.UTopSpec{{Kind: isa.VEUTop, VECycles: 300}}},
	}, ReductionSplit: true}
	g := synth(compiler.ISANeu, op)
	res := mustRun(t, Config{Core: tpu(), Policy: NeuNH, Requests: 3},
		TenantSpec{Name: "s", Graph: g, MEs: 4, VEs: 1})
	// 500 (parallel MEs) + 300 (VE at grant 1) = 800.
	if lat := res.Tenants[0].MeanLatency; math.Abs(lat-800) > 1 {
		t.Fatalf("latency %.1f, want ~800", lat)
	}
}

func TestNeu10HarvestsIdleMEs(t *testing.T) {
	// Tenant A: pure ME work with 4-wide groups on a 2-ME vNPU.
	// Tenant B: pure VE work — its 2 MEs sit idle.
	// Under NH, A runs 2-wide (2000/op); under Neu10 it harvests B's MEs
	// and runs 4-wide (~1000/op).
	ga := synth(compiler.ISANeu, meOp(4, 1000, 0))
	gb := synth(compiler.ISANeu, veOp(4000))
	run := func(p Mode) *Result {
		return mustRun(t, Config{Core: tpu(), Policy: p, Requests: 10},
			TenantSpec{Name: "A", Graph: ga, MEs: 2, VEs: 2},
			TenantSpec{Name: "B", Graph: gb, MEs: 2, VEs: 2})
	}
	nh, n10 := run(NeuNH), run(Neu10)
	speedup := nh.Tenants[0].MeanLatency / n10.Tenants[0].MeanLatency
	if speedup < 1.8 {
		t.Fatalf("harvest speedup %.2f, want ~2x", speedup)
	}
	// B must be essentially unharmed (its VE work owns its VEs).
	slowdown := n10.Tenants[1].MeanLatency / nh.Tenants[1].MeanLatency
	if slowdown > 1.05 {
		t.Fatalf("victim slowdown %.3f under harvesting", slowdown)
	}
	// Utilization rises with harvesting (Fig. 22 direction).
	if n10.MEUtil <= nh.MEUtil {
		t.Fatalf("ME util did not improve: %.3f vs %.3f", n10.MEUtil, nh.MEUtil)
	}
}

func TestNeu10ReclaimProtectsOwner(t *testing.T) {
	// Both tenants have bursty ME phases (ME op then VE op). Harvesting
	// must not inflate either tenant's latency much beyond its NH value.
	mk := func() *compiler.CompiledGraph {
		return synth(compiler.ISANeu,
			meOp(4, 2000, 0), veOp(8000), meOp(2, 1000, 0), veOp(4000))
	}
	run := func(p Mode) *Result {
		return mustRun(t, Config{Core: tpu(), Policy: p, Requests: 10},
			TenantSpec{Name: "A", Graph: mk(), MEs: 2, VEs: 2},
			TenantSpec{Name: "B", Graph: mk(), MEs: 2, VEs: 2})
	}
	nh, n10 := run(NeuNH), run(Neu10)
	for i := range nh.Tenants {
		ratio := n10.Tenants[i].P95Latency / nh.Tenants[i].P95Latency
		if ratio > 1.15 {
			t.Fatalf("tenant %d p95 inflated %.2fx by harvesting", i, ratio)
		}
	}
	// Overall throughput should not regress.
	tputNH := nh.Tenants[0].Throughput + nh.Tenants[1].Throughput
	tputN10 := n10.Tenants[0].Throughput + n10.Tenants[1].Throughput
	if tputN10 < tputNH*0.95 {
		t.Fatalf("aggregate throughput regressed: %.1f vs %.1f", tputN10, tputNH)
	}
}

func TestTableIIIHarvestBlockedAccounting(t *testing.T) {
	// A is ME-hungry; B alternates: B should record some blocked time
	// (reclaim penalties) but a small fraction of its runtime.
	ga := synth(compiler.ISANeu, meOp(8, 2000, 0))
	gb := synth(compiler.ISANeu, veOp(6000), meOp(2, 1000, 0))
	res := mustRun(t, Config{Core: tpu(), Policy: Neu10, Requests: 20},
		TenantSpec{Name: "A", Graph: ga, MEs: 2, VEs: 2},
		TenantSpec{Name: "B", Graph: gb, MEs: 2, VEs: 2})
	b := res.Tenants[1]
	if b.HarvestBlocked == 0 {
		t.Fatal("no harvest-blocked time recorded despite reclaims")
	}
	frac := b.HarvestBlocked / res.DurationCycles
	if frac > 0.15 {
		t.Fatalf("blocked fraction %.3f; paper reports ≤ ~10%%", frac)
	}
}

func TestV10HeadOfLineBlocking(t *testing.T) {
	// Under V10 an ME operator occupies the whole ME complex for its
	// duration, so tenant B's short ME bursts queue behind tenant A's
	// long operators (imbalanced operator lengths, §V-B). Under Neu10,
	// B's own MEs make its latency independent of A.
	mkA := func(k compiler.ISAKind) *compiler.CompiledGraph {
		return synth(k, meOp(4, 20000, 0))
	}
	mkB := func(k compiler.ISAKind) *compiler.CompiledGraph {
		// ME burst, then a VE phase: B's ME-readiness lands mid-A-op.
		return synth(k, meOp(2, 250, 0), veOp(4000))
	}
	v10 := mustRun(t, Config{Core: tpu(), Policy: V10, Requests: 20},
		TenantSpec{Name: "A", Graph: mkA(compiler.ISAVLIW), MEs: 2, VEs: 2},
		TenantSpec{Name: "B", Graph: mkB(compiler.ISAVLIW), MEs: 2, VEs: 2})
	n10 := mustRun(t, Config{Core: tpu(), Policy: Neu10, Requests: 20},
		TenantSpec{Name: "A", Graph: mkA(compiler.ISANeu), MEs: 2, VEs: 2},
		TenantSpec{Name: "B", Graph: mkB(compiler.ISANeu), MEs: 2, VEs: 2})

	// B's tail under V10 should be far worse than under Neu10 (the
	// paper reports up to 4.6x).
	ratio := v10.Tenants[1].P95Latency / n10.Tenants[1].P95Latency
	if ratio < 2 {
		t.Fatalf("V10 p95 %.0f vs Neu10 %.0f (%.1fx): expected head-of-line blocking",
			v10.Tenants[1].P95Latency, n10.Tenants[1].P95Latency, ratio)
	}
}

func TestV10OverlapsMEWithVE(t *testing.T) {
	// V10's advantage over PMT: a VE-only op of B runs concurrently with
	// A's ME op.
	gaV := synth(compiler.ISAVLIW, meOp(4, 5000, 0))
	gbV := synth(compiler.ISAVLIW, veOp(20000))
	v10 := mustRun(t, Config{Core: tpu(), Policy: V10, Requests: 10},
		TenantSpec{Name: "A", Graph: gaV, MEs: 2, VEs: 2},
		TenantSpec{Name: "B", Graph: gbV, MEs: 2, VEs: 2})
	pmt := mustRun(t, Config{Core: tpu(), Policy: PMT, Requests: 10},
		TenantSpec{Name: "A", Graph: gaV, MEs: 2, VEs: 2},
		TenantSpec{Name: "B", Graph: gbV, MEs: 2, VEs: 2})
	tputV10 := v10.Tenants[0].Throughput + v10.Tenants[1].Throughput
	tputPMT := pmt.Tenants[0].Throughput + pmt.Tenants[1].Throughput
	if tputV10 <= tputPMT*1.3 {
		t.Fatalf("V10 (%.1f rps) should clearly beat PMT (%.1f rps) on ME+VE overlap",
			tputV10, tputPMT)
	}
}

func TestPMTTimeSharesFairly(t *testing.T) {
	// Two identical tenants: PMT must give each ~half the core; each
	// latency ≈ 2x the solo latency.
	g := func() *compiler.CompiledGraph { return synth(compiler.ISAVLIW, meOp(4, 5000, 0)) }
	solo := mustRun(t, Config{Core: tpu(), Policy: PMT, Requests: 40, QuantumCycles: 20000},
		TenantSpec{Name: "A", Graph: g(), MEs: 4, VEs: 4})
	both := mustRun(t, Config{Core: tpu(), Policy: PMT, Requests: 40, QuantumCycles: 20000},
		TenantSpec{Name: "A", Graph: g(), MEs: 2, VEs: 2},
		TenantSpec{Name: "B", Graph: g(), MEs: 2, VEs: 2})
	soloLat := solo.Tenants[0].MeanLatency
	for i, tr := range both.Tenants {
		if tr.MeanLatency < 1.5*soloLat || tr.MeanLatency > 3.5*soloLat {
			t.Fatalf("tenant %d latency %.0f vs solo %.0f: not ~2x time sharing",
				i, tr.MeanLatency, soloLat)
		}
	}
	// Fairness: requests completed within 25%.
	a, b := both.Tenants[0].Requests, both.Tenants[1].Requests
	if a*4 < b*3 || b*4 < a*3 {
		t.Fatalf("unfair sharing: %d vs %d requests", a, b)
	}
}

func TestHBMContentionStretchesExecution(t *testing.T) {
	// A µTOp demanding 2x the HBM bandwidth must take ~2x its nominal.
	core := tpu()
	bytes := int64(2 * core.HBMBytesPerCycle() * 10000)
	op := compiler.CompiledOp{Name: "mem", Kind: compiler.VectorEW, Groups: []compiler.GroupSpec{
		{UTops: []compiler.UTopSpec{{Kind: isa.VEUTop, VECycles: 10000, HBMBytes: bytes}}},
	}}
	g := synth(compiler.ISANeu, op)
	res := mustRun(t, Config{Core: core, Policy: NeuNH, Requests: 3},
		TenantSpec{Name: "m", Graph: g, MEs: 1, VEs: 1})
	if lat := res.Tenants[0].MeanLatency; math.Abs(lat-20000) > 100 {
		t.Fatalf("latency %.0f, want ~20000 (bandwidth bound)", lat)
	}
	if res.AvgBandwidth > core.HBMBytesPerCycle()*1.001 {
		t.Fatalf("served bandwidth %.0f exceeds capacity %.0f",
			res.AvgBandwidth, core.HBMBytesPerCycle())
	}
}

func TestHigherBandwidthHelpsMemoryBound(t *testing.T) {
	core := tpu()
	bytes := int64(3 * core.HBMBytesPerCycle() * 10000)
	op := compiler.CompiledOp{Name: "mem", Kind: compiler.VectorEW, Groups: []compiler.GroupSpec{
		{UTops: []compiler.UTopSpec{{Kind: isa.VEUTop, VECycles: 10000, HBMBytes: bytes}}},
	}}
	slow := mustRun(t, Config{Core: core, Policy: NeuNH, Requests: 3},
		TenantSpec{Name: "m", Graph: synth(compiler.ISANeu, op), MEs: 1, VEs: 1})
	fast := mustRun(t, Config{Core: core.WithHBMBandwidth(core.HBMBwBytes * 3), Policy: NeuNH, Requests: 3},
		TenantSpec{Name: "m", Graph: synth(compiler.ISANeu, op), MEs: 1, VEs: 1})
	if fast.Tenants[0].MeanLatency > slow.Tenants[0].MeanLatency/2 {
		t.Fatalf("3x bandwidth gave %.0f vs %.0f", fast.Tenants[0].MeanLatency, slow.Tenants[0].MeanLatency)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() []TenantSpec {
		return []TenantSpec{
			{Name: "A", Graph: synth(compiler.ISANeu, meOp(4, 2000, 500), veOp(3000)), MEs: 2, VEs: 2},
			{Name: "B", Graph: synth(compiler.ISANeu, meOp(2, 1500, 200), veOp(1000)), MEs: 2, VEs: 2},
		}
	}
	cfg := Config{Core: tpu(), Policy: Neu10, Requests: 10}
	a := mustRun(t, cfg, mk()...)
	b := mustRun(t, cfg, mk()...)
	if a.DurationCycles != b.DurationCycles {
		t.Fatalf("durations differ: %v vs %v", a.DurationCycles, b.DurationCycles)
	}
	for i := range a.Tenants {
		if a.Tenants[i].MeanLatency != b.Tenants[i].MeanLatency ||
			a.Tenants[i].P95Latency != b.Tenants[i].P95Latency {
			t.Fatalf("tenant %d metrics differ between identical runs", i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	g := synth(compiler.ISANeu, meOp(1, 100, 0))
	gv := synth(compiler.ISAVLIW, meOp(1, 100, 0))

	// ISA / policy mismatch.
	if _, err := Run(Config{Core: tpu(), Policy: PMT, Requests: 1},
		[]TenantSpec{{Name: "x", Graph: g, MEs: 2, VEs: 2}}); err == nil {
		t.Fatal("NeuISA graph accepted by PMT")
	}
	if _, err := Run(Config{Core: tpu(), Policy: Neu10, Requests: 1},
		[]TenantSpec{{Name: "x", Graph: gv, MEs: 2, VEs: 2}}); err == nil {
		t.Fatal("VLIW graph accepted by Neu10")
	}
	// Spatial overcommit.
	if _, err := Run(Config{Core: tpu(), Policy: NeuNH, Requests: 1},
		[]TenantSpec{
			{Name: "a", Graph: g, MEs: 3, VEs: 2},
			{Name: "b", Graph: g, MEs: 3, VEs: 2},
		}); err == nil {
		t.Fatal("ME overcommit accepted for spatial policy")
	}
	// No tenants.
	if _, err := Run(Config{Core: tpu(), Policy: Neu10, Requests: 1}, nil); err == nil {
		t.Fatal("empty tenant list accepted")
	}
	// Request count below 1: the run would stop at its first completion
	// check and report nothing.
	for _, n := range []int{-1, 0} {
		if _, err := Run(Config{Core: tpu(), Policy: Neu10, Requests: n},
			[]TenantSpec{{Name: "x", Graph: g, MEs: 2, VEs: 2}}); err == nil {
			t.Fatalf("request count %d accepted", n)
		}
	}
	// Zero allocation.
	if _, err := Run(Config{Core: tpu(), Policy: Neu10, Requests: 1},
		[]TenantSpec{{Name: "x", Graph: g, MEs: 0, VEs: 2}}); err == nil {
		t.Fatal("0-ME tenant accepted")
	}
}

func TestTimelineSampling(t *testing.T) {
	ga := synth(compiler.ISANeu, meOp(4, 1000, 0), veOp(2000))
	res := mustRun(t, Config{Core: tpu(), Policy: Neu10, Requests: 10, SampleEvery: 500},
		TenantSpec{Name: "A", Graph: ga, MEs: 2, VEs: 2},
		TenantSpec{Name: "B", Graph: synth(compiler.ISANeu, veOp(5000)), MEs: 2, VEs: 2})
	tl := res.Tenants[0].METimeline
	if tl == nil || tl.Len() < 10 {
		t.Fatal("ME timeline not sampled")
	}
	if tl.MaxValue() < 3 {
		t.Fatalf("tenant A never harvested beyond its 2 MEs (max %.0f)", tl.MaxValue())
	}
	if res.Tenants[0].VETimeline.Len() == 0 {
		t.Fatal("VE timeline not sampled")
	}
	if res.HBMTimeline == nil {
		t.Fatal("no HBM timeline")
	}
}
