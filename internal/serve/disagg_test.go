package serve

import (
	"strings"
	"testing"

	"neu10/internal/arch"
	"neu10/internal/model"
	"neu10/internal/workload"
)

// disaggConfig is the shared disaggregation test scenario: a bimodal
// long/short-prompt trace on 2 prefill + 2 decode replicas. kvCap
// squeezes the per-replica KV partition (0 keeps the derived capacity)
// so the migration admission path and its backpressure actually act.
func disaggConfig(seed uint64, gbps float64, kvCap int) Config {
	return Config{
		Scenario:    "disagg-test",
		Core:        arch.TPUv4Like(),
		Cores:       4,
		Router:      LeastLoaded,
		DurationSec: 6.0,
		Seed:        seed,
		LinkGBps:    gbps,
		Tenants: []TenantConfig{{
			Name: "gen", Model: "LLaMA", RatePerSec: 18, EUs: 4,
			MaxBatch: 8, QueueCap: 64, SLOMs: 3000,
			LLM: &LLMConfig{
				KVCapTokens: kvCap,
				Trace: workload.LLMTrace{
					PromptMin: 16, PromptMean: 32, PromptMax: 64,
					PromptLongFrac: 0.25, PromptLongMin: 128, PromptLongMean: 192, PromptLongMax: 256,
					OutputMin: 6, OutputMean: 12, OutputMax: 24,
				},
				Disagg: &DisaggConfig{PrefillReplicas: 2, DecodeReplicas: 2, ChunkTokens: 64},
			},
		}},
	}
}

// TestDisaggMigrationAccounting is the KV-migration conservation
// property: across seeds, link speeds and deliberate KV pressure,
// every admitted sequence migrates exactly once, the bytes shipped are
// exactly the admitted prompt tokens' KV, prefill-side blocks are
// released when (and only when) their transfer completes, and at drain
// every accountant on every replica is back to zero blocks and zero
// resident sequences — no double-count surviving a migration, no leak.
// (The accountants themselves panic on any overcommit or over-free, so
// a clean run also certifies that no intermediate state ever went
// negative or past capacity.) One leg sets the reserve policy
// explicitly, so the report's peak resident sequences must show the
// admitted concurrency.
func TestDisaggMigrationAccounting(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	type leg struct {
		gbps   float64
		seed   uint64
		policy string
	}
	var legs []leg
	for _, gbps := range []float64{64, 0.25} {
		for seed := uint64(1); seed <= 3; seed++ {
			legs = append(legs, leg{gbps, seed, ""})
		}
	}
	legs = append(legs, leg{64, 1, KVReserve})
	for _, lg := range legs {
		gbps, seed := lg.gbps, lg.seed
		// 640 KV tokens ≈ 2 worst-case sequences per decode replica:
		// the migration queue and its FIFO drain do real work.
		cfg := disaggConfig(seed, gbps, 640)
		cfg.Tenants[0].LLM.KVPolicy = lg.policy
		f, err := newFleet(cfg, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, ten := range f.tenants {
			f.scheduleArrival(ten)
		}
		f.eng.Run()
		rep := f.report()

		ten := f.tenants[0]
		l := ten.llm
		tr := rep.Tenants[0]
		if tr.Arrivals != tr.Rejected+tr.Completed {
			t.Errorf("gbps %v seed %d: %d arrivals ≠ %d rejected + %d completed",
				gbps, seed, tr.Arrivals, tr.Rejected, tr.Completed)
		}
		if l.migrations != l.admitted {
			t.Errorf("gbps %v seed %d: %d admitted sequences but %d migrations — a sequence skipped or repeated the handoff",
				gbps, seed, l.admitted, l.migrations)
		}
		if l.migLanded != l.migrations {
			t.Errorf("gbps %v seed %d: %d migrations started but %d landed after drain",
				gbps, seed, l.migrations, l.migLanded)
		}
		if want := l.promptTokens * model.LLMKVBytesPerToken(); l.migBytes != want {
			t.Errorf("gbps %v seed %d: migrated %d bytes, want exactly the admitted prompt KV %d",
				gbps, seed, l.migBytes, want)
		}
		if len(l.migQ) != 0 {
			t.Errorf("gbps %v seed %d: %d migrations still parked after drain", gbps, seed, len(l.migQ))
		}
		for _, r := range ten.replicas {
			if r.kv.usedBlocks != 0 {
				t.Errorf("gbps %v seed %d: %s replica %d holds %d KV blocks after drain — leaked reservation",
					gbps, seed, r.role, r.id, r.kv.usedBlocks)
			}
			if r.kv.curSeqs != 0 {
				t.Errorf("gbps %v seed %d: %s replica %d counts %d resident sequences after drain",
					gbps, seed, r.role, r.id, r.kv.curSeqs)
			}
			if r.inbound != 0 {
				t.Errorf("gbps %v seed %d: replica %d reports %d inbound transfers after drain",
					gbps, seed, r.id, r.inbound)
			}
			if len(r.queueFor(ten).running) != 0 {
				t.Errorf("gbps %v seed %d: replica %d still runs %d sequences after drain",
					gbps, seed, r.id, len(r.queueFor(ten).running))
			}
		}
		if tr.LLM.KVOccPeak <= 0 || tr.LLM.KVOccPeak > 1 {
			t.Errorf("gbps %v seed %d: peak KV occupancy %.3f out of (0,1]", gbps, seed, tr.LLM.KVOccPeak)
		}
		if tr.LLM.MigStalls == 0 {
			t.Errorf("gbps %v seed %d: tight KV produced no migration stalls — backpressure untested", gbps, seed)
		}
		if tr.Completed == 0 {
			t.Errorf("gbps %v seed %d: nothing completed", gbps, seed)
		}
		if lg.policy == KVReserve && tr.LLM.PeakSeqs < 1 {
			t.Errorf("gbps %v seed %d: reserve policy reports kv_peak_seqs %d for %d admitted sequences",
				gbps, seed, tr.LLM.PeakSeqs, l.admitted)
		}

	}
}

// TestDisaggDeterminism extends the byte-identical guarantee to
// disaggregated runs: same seed ⇒ identical report, shared or private
// cost database; different seed ⇒ different report.
func TestDisaggDeterminism(t *testing.T) {
	shared := NewCostDB(arch.TPUv4Like())
	r1, err := Run(disaggConfig(5, 1, 0), shared)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(disaggConfig(5, 1, 0), shared)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Run(disaggConfig(5, 1, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Table() != r2.Table() || r1.Table() != r3.Table() {
		t.Errorf("disaggregated run is not byte-reproducible:\n%s\nvs\n%s\nvs\n%s",
			r1.Table(), r2.Table(), r3.Table())
	}
	r4, err := Run(disaggConfig(6, 1, 0), shared)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Table() == r4.Table() {
		t.Error("different seeds produced identical disaggregated reports")
	}
	for _, want := range []string{"disagg tenant", "prefill(peak)", "decode(peak)", "migrations", "interconnect:"} {
		if !strings.Contains(r1.Table(), want) {
			t.Errorf("disaggregation table section missing %q:\n%s", want, r1.Table())
		}
	}
}

// TestDisaggIsolatesTPOT is the subsystem's headline property at the
// serve layer: on the identical trace at a matched chip count, decode
// TPOT p99 under disaggregation (decode slots never run a prefill)
// beats the colocated continuous batcher, where long-prompt prefill
// invocations interleave with decode iterations on every slot.
func TestDisaggIsolatesTPOT(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	dis, err := Run(disaggConfig(1, 64, 0), db)
	if err != nil {
		t.Fatal(err)
	}
	colo := disaggConfig(1, 64, 0)
	colo.Tenants[0].LLM.Disagg = nil
	colo.Tenants[0].InitialReplicas = 4
	colo.Tenants[0].MaxReplicas = 4
	col, err := Run(colo, db)
	if err != nil {
		t.Fatal(err)
	}
	dt, ct := dis.Tenants[0], col.Tenants[0]
	if dt.Arrivals != ct.Arrivals {
		t.Fatalf("traces diverge: %d vs %d arrivals", dt.Arrivals, ct.Arrivals)
	}
	if dt.LLM.TokensOut != ct.LLM.TokensOut {
		t.Fatalf("token totals diverge: %d vs %d", dt.LLM.TokensOut, ct.LLM.TokensOut)
	}
	if dt.LLM.TPOTP99Ms >= ct.LLM.TPOTP99Ms {
		t.Errorf("disaggregated TPOT p99 %.2f ms did not beat colocated %.2f ms",
			dt.LLM.TPOTP99Ms, ct.LLM.TPOTP99Ms)
	}
	if dt.LLM.Migrations != dt.LLM.Admitted {
		t.Errorf("%d migrations for %d admitted sequences", dt.LLM.Migrations, dt.LLM.Admitted)
	}
	if ct.LLM.Migrations != 0 {
		t.Errorf("colocated run recorded %d migrations", ct.LLM.Migrations)
	}
}

// TestDisaggPoolAutoscale drives the per-pool control loops: under
// prompt-heavy load with tight pool floors, the prefill pool must grow
// on its queue-delay signal and the decode pool on TPOT/migration
// stalls, each within its own bounds — and the pools must move
// independently (this is what Config.Autoscale delegates to for
// disaggregated tenants).
func TestDisaggPoolAutoscale(t *testing.T) {
	cfg := disaggConfig(2, 64, 0)
	cfg.Autoscale = true
	cfg.ScaleEverySec = 0.25
	cfg.Tenants[0].RatePerSec = 26
	cfg.Tenants[0].LLM.Disagg = &DisaggConfig{
		PrefillReplicas: 1, MaxPrefill: 2,
		DecodeReplicas: 1, MaxDecode: 2,
		ChunkTokens: 64,
	}
	f, err := newFleet(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ten := range f.tenants {
		f.scheduleArrival(ten)
	}
	f.scheduleScale(cfg.ScaleEverySec * cfg.Core.FrequencyHz)
	f.eng.Run()
	rep := f.report()
	ten := f.tenants[0]
	lr := rep.Tenants[0].LLM
	if rep.Tenants[0].ScaleUps == 0 {
		t.Error("overloaded pools never scaled up")
	}
	if lr.PrefillPeak < 2 && lr.DecodePeak < 2 {
		t.Errorf("neither pool grew (prefill peak %d, decode peak %d) under overload",
			lr.PrefillPeak, lr.DecodePeak)
	}
	d := cfg.Tenants[0].LLM.Disagg
	if ten.prefPeak > d.MaxPrefill || ten.decPeak > d.MaxDecode {
		t.Errorf("pool bounds violated: prefill peak %d (max %d), decode peak %d (max %d)",
			ten.prefPeak, d.MaxPrefill, ten.decPeak, d.MaxDecode)
	}
	if rep.Tenants[0].Arrivals != rep.Tenants[0].Rejected+rep.Tenants[0].Completed {
		t.Errorf("accounting broken under autoscale: %d ≠ %d + %d",
			rep.Tenants[0].Arrivals, rep.Tenants[0].Rejected, rep.Tenants[0].Completed)
	}
}

// TestDisaggChunkedPrefillInterleaves pins chunked prefill's defining
// behavior: with chunking on, the prefill pool issues MORE, SHORTER
// invocations than whole-prompt prefill on the identical trace (the
// long prompts are sliced), while total admitted work and migration
// traffic stay identical.
func TestDisaggChunkedPrefillInterleaves(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	chunked, err := Run(disaggConfig(3, 64, 0), db)
	if err != nil {
		t.Fatal(err)
	}
	whole := disaggConfig(3, 64, 0)
	whole.Tenants[0].LLM.Disagg.ChunkTokens = 0
	wrep, err := Run(whole, db)
	if err != nil {
		t.Fatal(err)
	}
	cl, wl := chunked.Tenants[0].LLM, wrep.Tenants[0].LLM
	if cl.Prefills <= wl.Prefills {
		t.Errorf("chunked prefill issued %d invocations, whole-prompt %d — chunking never sliced a prompt",
			cl.Prefills, wl.Prefills)
	}
	if cl.Migrations != wl.Migrations || cl.MigrationMB != wl.MigrationMB {
		t.Errorf("migration traffic diverged across chunking: %d/%.1fMB vs %d/%.1fMB",
			cl.Migrations, cl.MigrationMB, wl.Migrations, wl.MigrationMB)
	}
	if chunked.Tenants[0].Arrivals != wrep.Tenants[0].Arrivals {
		t.Error("traces diverge across chunking — seed plumbing broken")
	}
}

// TestDisaggValidation rejects the configs the subsystem cannot mean.
func TestDisaggValidation(t *testing.T) {
	bad := disaggConfig(1, 64, 0)
	bad.Tenants[0].LLM.Static = true
	if _, err := Run(bad, nil); err == nil {
		t.Error("static batcher + disaggregation accepted")
	}
	bad = disaggConfig(1, 64, 0)
	bad.Tenants[0].ShareGroup = "pool"
	if _, err := Run(bad, nil); err == nil {
		t.Error("share group + disaggregation accepted")
	}
	bad = disaggConfig(1, 64, 0)
	bad.Tenants[0].LLM.Disagg.ChunkTokens = -1
	if _, err := Run(bad, nil); err == nil {
		t.Error("negative chunk accepted")
	}
	bad = disaggConfig(1, 0, 0)
	bad.LinkGBps = -1
	if _, err := Run(bad, nil); err == nil {
		t.Error("negative link bandwidth accepted")
	}
	// A decode replica must hold at least one maximal full request; a
	// prefill replica only a maximal prompt. 260 tokens (16 blocks)
	// clears the prompt floor (256) but not the full floor (256+24).
	bad = disaggConfig(1, 64, 260)
	if _, err := Run(bad, nil); err == nil {
		t.Error("decode pool below the one-maximal-request KV floor accepted")
	}
}
