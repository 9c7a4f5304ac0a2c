package experiments

import (
	"strings"
	"testing"
)

// TestServeParallelDeterminism extends the byte-identical guarantee to
// the serving scenarios: serve-flash fans its autoscale/no-autoscale
// pair across the worker pool and both runs lazily populate the shared
// cost database, so it is the serving analogue of the figure sweeps'
// TestParallelMatchesSequential. workers=1 and workers=N must render
// identical bytes for the same seed.
func TestServeParallelDeterminism(t *testing.T) {
	mk := func(workers int) *Runner {
		opts := DefaultOptions()
		opts.Workers = workers
		r, err := NewRunner(opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ids := []string{"serve-flash", "serve-steady", "serve-priority", "serve-llm", "serve-disagg", "serve-paged"}
	seqRes, err := mk(1).RunMany(ids)
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := mk(4).RunMany(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if s, p := seqRes[i].Table(), parRes[i].Table(); s != p {
			t.Errorf("%s: parallel table differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", id, s, p)
		}
	}
	// Re-running on the same runner (warm cost DB) must also reproduce.
	r := mk(2)
	a, err := r.Run("serve-steady")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run("serve-steady")
	if err != nil {
		t.Fatal(err)
	}
	if a.Table() != b.Table() {
		t.Error("serve-steady is not reproducible on a warm runner")
	}
}

// TestServeFlashCrowdRecovery asserts the scenario's headline claim: the
// autoscaled fleet recovers SLO attainment the fixed fleet loses to the
// flash crowd, for the identical arrival trace.
func TestServeFlashCrowdRecovery(t *testing.T) {
	r := testRunner(t)
	res, err := r.ServeFlashCrowd()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 2 {
		t.Fatalf("flash-crowd result has %d reports, want autoscale on+off", len(res.Reports))
	}
	on, off := res.Reports[0], res.Reports[1]
	if !on.Autoscale || off.Autoscale {
		t.Fatalf("report order wrong: got autoscale=%v,%v", on.Autoscale, off.Autoscale)
	}
	if on.Tenants[0].Arrivals != off.Tenants[0].Arrivals {
		t.Errorf("arrival traces diverge across the pair: %d vs %d — seed plumbing broken",
			on.Tenants[0].Arrivals, off.Tenants[0].Arrivals)
	}
	gain := on.Tenants[0].SLOAttainment - off.Tenants[0].SLOAttainment
	if gain < 0.1 {
		t.Errorf("autoscaler recovered only %+.3f attainment (on %.3f, off %.3f)",
			gain, on.Tenants[0].SLOAttainment, off.Tenants[0].SLOAttainment)
	}
	if on.Tenants[0].ScaleUps == 0 {
		t.Error("autoscaled run recorded no scale-ups")
	}
}

// TestServePriorityRecovery asserts the scenario's headline claim: on
// the identical trace, priority-aware preemptive temporal sharing
// recovers the Interactive tenant's SLO attainment that FIFO sharing
// loses to head-of-line blocking behind ~25 ms batch invocations,
// while the Batch tenant's goodput degrades only by a bounded amount.
func TestServePriorityRecovery(t *testing.T) {
	r := testRunner(t)
	res, err := r.ServePriority()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 2 {
		t.Fatalf("serve-priority result has %d reports, want preempt on+off", len(res.Reports))
	}
	on, off := res.Reports[0], res.Reports[1]
	if !on.Preempt || off.Preempt {
		t.Fatalf("report order wrong: got preempt=%v,%v", on.Preempt, off.Preempt)
	}
	for i := range on.Tenants {
		if on.Tenants[i].Arrivals != off.Tenants[i].Arrivals {
			t.Errorf("tenant %s: arrival traces diverge across the pair (%d vs %d) — seed plumbing broken",
				on.Tenants[i].Name, on.Tenants[i].Arrivals, off.Tenants[i].Arrivals)
		}
	}
	inter, batch := on.Tenants[0], on.Tenants[1]
	gain := inter.SLOAttainment - off.Tenants[0].SLOAttainment
	if gain < 0.2 {
		t.Errorf("preemption recovered only %+.3f interactive attainment (on %.3f, off %.3f)",
			gain, inter.SLOAttainment, off.Tenants[0].SLOAttainment)
	}
	// Bounded batch-goodput cost: the Batch tenant may pay for the
	// interactive rescue, but not more than 30% of its baseline goodput.
	if floor := 0.7 * off.Tenants[1].GoodputRPS; batch.GoodputRPS < floor {
		t.Errorf("batch goodput %.1f fell below the bounded-degradation floor %.1f (baseline %.1f)",
			batch.GoodputRPS, floor, off.Tenants[1].GoodputRPS)
	}
	if on.Preemptions == 0 || on.Resumes != on.Preemptions {
		t.Errorf("preemptive run recorded %d preempts / %d resumes", on.Preemptions, on.Resumes)
	}
	if off.Preemptions != 0 {
		t.Errorf("FIFO baseline recorded %d preemptions", off.Preemptions)
	}
	if len(on.Priorities) != 2 || on.Priorities[0].Priority != "interactive" {
		t.Fatalf("per-priority report malformed: %+v", on.Priorities)
	}
	if on.Priorities[1].StolenMs <= 0 {
		t.Error("batch class reports no stolen cycles despite preemptions")
	}
}

// TestServeLLMContinuousWins asserts the serve-llm scenario's headline
// claim: on the identical request trace, continuous batching beats the
// static baseline on goodput AND p99 per-token latency, and the
// KV-cache admission rule visibly gates batch growth.
func TestServeLLMContinuousWins(t *testing.T) {
	r := testRunner(t)
	res, err := r.ServeLLM()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 2 {
		t.Fatalf("serve-llm result has %d reports, want continuous+static", len(res.Reports))
	}
	cont, stat := res.Reports[0].Tenants[0], res.Reports[1].Tenants[0]
	if cont.LLM == nil || stat.LLM == nil {
		t.Fatal("LLM report section missing")
	}
	if cont.LLM.Batcher != "continuous" || stat.LLM.Batcher != "static" {
		t.Fatalf("report order wrong: batchers %q, %q", cont.LLM.Batcher, stat.LLM.Batcher)
	}
	if cont.Arrivals != stat.Arrivals || cont.LLM.TokensOut != stat.LLM.TokensOut {
		t.Errorf("traces diverge across the pair: %d/%d arrivals, %d/%d tokens — seed plumbing broken",
			cont.Arrivals, stat.Arrivals, cont.LLM.TokensOut, stat.LLM.TokensOut)
	}
	if cont.GoodputRPS <= stat.GoodputRPS {
		t.Errorf("continuous goodput %.2f did not beat static %.2f", cont.GoodputRPS, stat.GoodputRPS)
	}
	if cont.LLM.TPOTP99Ms >= stat.LLM.TPOTP99Ms {
		t.Errorf("continuous p99 TPOT %.2fms did not beat static %.2fms",
			cont.LLM.TPOTP99Ms, stat.LLM.TPOTP99Ms)
	}
	if cont.LLM.TTFTP50Ms >= stat.LLM.TTFTP50Ms {
		t.Errorf("continuous median TTFT %.2fms did not beat static %.2fms",
			cont.LLM.TTFTP50Ms, stat.LLM.TTFTP50Ms)
	}
	if cont.LLM.KVOccPeak == 0 || cont.LLM.KVStalls == 0 {
		t.Errorf("KV pressure invisible (peak %.2f, stalls %d) — the admission rule never acted",
			cont.LLM.KVOccPeak, cont.LLM.KVStalls)
	}
	if !strings.Contains(res.Table(), "continuous") || !strings.Contains(res.Table(), "static") {
		t.Error("table does not render both batchers")
	}
}

// TestServeDisaggCrossover asserts the serve-disagg scenario's headline
// claim: on the identical trace at a matched chip count, disaggregation
// beats colocated continuous batching on decode TPOT p99 (no prefill
// ever lands on a decode slot), its end-to-end advantage shrinks as the
// modeled link bandwidth drops (migration is priced into TTFT and the
// interconnect saturates), and the slowest link in the sweep crosses
// below the colocated baseline.
func TestServeDisaggCrossover(t *testing.T) {
	r := testRunner(t)
	res, err := r.ServeDisagg()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 5 {
		t.Fatalf("serve-disagg result has %d reports, want colocated + 4 bandwidth points", len(res.Reports))
	}
	colo := res.Reports[0].Tenants[0]
	if colo.LLM == nil || colo.LLM.Batcher != "continuous" {
		t.Fatalf("report order wrong: first report is %+v, want the colocated baseline", colo.LLM)
	}
	sweep := res.Reports[1:]
	for i, rep := range sweep {
		tr := rep.Tenants[0]
		if tr.LLM == nil || tr.LLM.Batcher != "disaggregated" {
			t.Fatalf("sweep point %d is not disaggregated", i)
		}
		// Identical trace everywhere: arrivals and token totals match the
		// baseline, and migration traffic is a pure function of the trace.
		if tr.Arrivals != colo.Arrivals || tr.LLM.TokensOut != colo.LLM.TokensOut {
			t.Errorf("sweep point %d diverges from the baseline trace: %d/%d arrivals, %d/%d tokens",
				i, tr.Arrivals, colo.Arrivals, tr.LLM.TokensOut, colo.LLM.TokensOut)
		}
		if tr.LLM.Migrations == 0 || tr.LLM.MigrationMB != sweep[0].Tenants[0].LLM.MigrationMB {
			t.Errorf("sweep point %d migration traffic %d/%.1fMB is not trace-determined",
				i, tr.LLM.Migrations, tr.LLM.MigrationMB)
		}
		if rep.LinkGBps >= res.Reports[i].LinkGBps && i > 0 {
			t.Errorf("sweep point %d bandwidth %.4f not decreasing", i, rep.LinkGBps)
		}
	}
	best, worst := sweep[0].Tenants[0], sweep[len(sweep)-1].Tenants[0]
	// (1) TPOT isolation at ample bandwidth.
	if best.LLM.TPOTP99Ms >= colo.LLM.TPOTP99Ms {
		t.Errorf("disaggregated TPOT p99 %.2f ms did not beat colocated %.2f ms",
			best.LLM.TPOTP99Ms, colo.LLM.TPOTP99Ms)
	}
	// (2) End-to-end advantage at ample bandwidth...
	bestGain := best.SLOAttainment - colo.SLOAttainment
	if bestGain <= 0 {
		t.Errorf("disaggregation at full bandwidth gained %+.3f attainment over colocated (%.3f vs %.3f)",
			bestGain, best.SLOAttainment, colo.SLOAttainment)
	}
	// (3) ...shrinking as the link slows, to a visible crossover.
	worstGain := worst.SLOAttainment - colo.SLOAttainment
	if worstGain >= bestGain {
		t.Errorf("advantage did not shrink with bandwidth: %+.3f at the fastest link, %+.3f at the slowest",
			bestGain, worstGain)
	}
	if worstGain >= 0 {
		t.Errorf("no crossover: disaggregation still ahead by %+.3f attainment at the slowest link", worstGain)
	}
	// (4) The interconnect's share of TTFT grows monotonically as it
	// slows (1% slop for quantization).
	for i := 1; i < len(sweep); i++ {
		prev, cur := sweep[i-1].Tenants[0].LLM, sweep[i].Tenants[0].LLM
		if cur.TTFTP99Ms < prev.TTFTP99Ms*0.99 {
			t.Errorf("TTFT p99 fell from %.2f to %.2f ms as bandwidth dropped (sweep points %d→%d)",
				prev.TTFTP99Ms, cur.TTFTP99Ms, i-1, i)
		}
	}
	// (5) Link pressure is visible in the fleet accounting.
	if first, last := sweep[0], sweep[len(sweep)-1]; last.LinkUtil <= first.LinkUtil {
		t.Errorf("link utilization %.3f at the slowest link not above %.3f at the fastest",
			last.LinkUtil, first.LinkUtil)
	}
	for _, want := range []string{"disagg tenant", "interconnect:", "colocated"} {
		if !strings.Contains(res.Table(), want) {
			t.Errorf("serve-disagg table missing %q", want)
		}
	}
}

// TestServePagedBeatsReservation asserts the serve-paged scenario's
// headline claim: on the identical multi-turn session trace, BOTH paged
// legs (evict-recompute and evict-swap) admit strictly more concurrent
// sequences and deliver strictly higher goodput than full reservation,
// the prefix cache visibly serves session re-prefills, and each
// eviction policy pays its own distinct price (replayed tokens vs
// swapped megabytes).
func TestServePagedBeatsReservation(t *testing.T) {
	r := testRunner(t)
	res, err := r.ServePaged()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 3 {
		t.Fatalf("serve-paged result has %d reports, want reserve+recompute+swap", len(res.Reports))
	}
	resv, rec, swp := res.Reports[0].Tenants[0], res.Reports[1].Tenants[0], res.Reports[2].Tenants[0]
	if resv.LLM.KVPolicy != "reserve" || rec.LLM.KVPolicy != "paged" || swp.LLM.KVPolicy != "paged" {
		t.Fatalf("report order wrong: policies %q, %q, %q", resv.LLM.KVPolicy, rec.LLM.KVPolicy, swp.LLM.KVPolicy)
	}
	for i, pg := range res.Reports[1:] {
		tr := pg.Tenants[0]
		if tr.Arrivals != resv.Arrivals || tr.LLM.TokensOut != resv.LLM.TokensOut {
			t.Errorf("leg %d: trace diverges from reserve (%d/%d arrivals, %d/%d tokens) — seed plumbing broken",
				i, tr.Arrivals, resv.Arrivals, tr.LLM.TokensOut, resv.LLM.TokensOut)
		}
		if tr.LLM.PeakSeqs <= resv.LLM.PeakSeqs {
			t.Errorf("leg %d: peak seqs %d not above reserve's %d", i, tr.LLM.PeakSeqs, resv.LLM.PeakSeqs)
		}
		if tr.GoodputRPS <= resv.GoodputRPS {
			t.Errorf("leg %d: goodput %.2f not above reserve's %.2f", i, tr.GoodputRPS, resv.GoodputRPS)
		}
		if tr.LLM.PrefixHits == 0 || tr.LLM.PrefixHitTokens == 0 {
			t.Errorf("leg %d: prefix cache never served a session re-prefill (%d hits, %d tokens)",
				i, tr.LLM.PrefixHits, tr.LLM.PrefixHitTokens)
		}
		if tr.LLM.PrefixHitRate <= 0 || tr.LLM.PrefixHitRate > 1 {
			t.Errorf("leg %d: prefix hit rate %.3f not in (0, 1]", i, tr.LLM.PrefixHitRate)
		}
	}
	if rec.LLM.EvictRecompute == 0 || rec.LLM.RecomputeTokens == 0 || rec.LLM.EvictSwap != 0 {
		t.Errorf("recompute leg evictions malformed: %d recompute (%d tokens), %d swap",
			rec.LLM.EvictRecompute, rec.LLM.RecomputeTokens, rec.LLM.EvictSwap)
	}
	if swp.LLM.EvictSwap == 0 || swp.LLM.SwapOutMB == 0 || swp.LLM.EvictRecompute != 0 {
		t.Errorf("swap leg evictions malformed: %d swap (%.1f MB out), %d recompute",
			swp.LLM.EvictSwap, swp.LLM.SwapOutMB, swp.LLM.EvictRecompute)
	}
	if swp.LLM.SwapOutMB != swp.LLM.SwapInMB {
		t.Errorf("swap traffic asymmetric: %.2f MB out, %.2f MB in — a sequence never returned",
			swp.LLM.SwapOutMB, swp.LLM.SwapInMB)
	}
	if resv.LLM.Evictions != 0 || resv.LLM.PrefixLookups != 0 {
		t.Errorf("reserve leg reports paged machinery: %d evictions, %d lookups",
			resv.LLM.Evictions, resv.LLM.PrefixLookups)
	}
	for _, want := range []string{"kv tenant", "paged KV:", "recompute", "swap"} {
		if !strings.Contains(res.Table(), want) {
			t.Errorf("serve-paged table missing %q", want)
		}
	}
}

// TestServeSteadyHealthy pins the steady scenario's healthy shape: every
// tenant holds a high SLO attainment and the fleet stays busy below its
// allocation.
func TestServeSteadyHealthy(t *testing.T) {
	r := testRunner(t)
	res, err := r.ServeSteady()
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Reports[0]
	for _, tr := range rep.Tenants {
		if tr.SLOAttainment < 0.95 {
			t.Errorf("tenant %s attainment %.3f < 0.95 in the steady scenario", tr.Name, tr.SLOAttainment)
		}
		if tr.Completed == 0 {
			t.Errorf("tenant %s completed nothing", tr.Name)
		}
	}
	if rep.FleetEUUtil <= 0 || rep.FleetEUUtil > rep.AllocatedEUFrac+1e-9 {
		t.Errorf("fleet accounting implausible: busy %.3f, allocated %.3f",
			rep.FleetEUUtil, rep.AllocatedEUFrac)
	}
	if !strings.Contains(res.Table(), "steady") {
		t.Error("table does not name its scenario")
	}
}

// TestServePagedColdAllocBudget locks in first-use costing: serve-paged
// on a fresh runner (a cold cost database, as every neu10-serve call
// sees) must stay under an allocation budget. A cold pass allocates
// about 38k times (Go 1.24, linux/amd64). Measuring every cost bucket a
// replica could be asked for at spawn allocates about 6× that, which
// the budget rejects; its 2× headroom absorbs Go-release drift.
func TestServePagedColdAllocBudget(t *testing.T) {
	const budget = 80_000
	allocs := testing.AllocsPerRun(1, func() {
		opts := DefaultOptions()
		opts.Workers = 1
		r, err := NewRunner(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run("serve-paged"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("cold serve-paged: %.0f allocations", allocs)
	if allocs > budget {
		t.Errorf("cold serve-paged allocated %.0f times, budget %d — is cost measurement eager again?", allocs, budget)
	}
}
