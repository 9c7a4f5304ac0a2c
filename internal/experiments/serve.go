package experiments

import (
	"fmt"
	"strings"

	"neu10/internal/obs"
	"neu10/internal/serve"
	"neu10/internal/workload"
)

// The online-serving scenarios: canned serve.Config setups that exercise
// the SLO-aware serving subsystem end-to-end (open-loop traffic →
// admission/routing → dynamic batching → autoscaling through the §III-B
// allocator and §III-C mapper). They run through Runner/RunMany like the
// figure sweeps, sharing one measured CostDB across the worker pool, and
// their tables are byte-identical for any worker count.

// ServeResult wraps one scenario's report(s) as an experiment result.
// Reports holds the underlying structured data for JSON output
// (cmd/neu10-serve -json).
type ServeResult struct {
	Reports []*serve.Report
	// Summary is an optional scenario-level verdict rendered after the
	// report tables (the consolidation scenario's chips-needed
	// comparison).
	Summary string
}

func (r *ServeResult) Table() string {
	var sb strings.Builder
	for i, rep := range r.Reports {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(rep.Table())
		// Empty unless the run carried an attribution ledger
		// (Config.Obs.Attrib), so legacy tables are byte-identical.
		sb.WriteString(rep.AttribTable())
	}
	if r.Summary != "" {
		sb.WriteByte('\n')
		sb.WriteString(r.Summary)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// serveCosts returns the runner's shared invocation-cost database,
// building it on first use. Entries are pure functions of their keys, so
// sharing it across scenarios and workers never changes a report.
func (r *Runner) serveCosts() *serve.CostDB {
	r.serveMu.Lock()
	defer r.serveMu.Unlock()
	if r.serveDB == nil {
		r.serveDB = serve.NewCostDB(r.opts.Core)
	}
	return r.serveDB
}

// serveLeg runs one scenario leg on the runner's shared CostDB, with the
// runner's core and serve seed, and its ServeObs unless the leg set its
// own Obs.
func (r *Runner) serveLeg(cfg serve.Config) (*serve.Report, error) {
	cfg.Core, cfg.Seed = r.opts.Core, r.opts.ServeSeed
	if cfg.Obs == nil {
		cfg.Obs = r.opts.ServeObs
	}
	return serve.Run(cfg, r.serveCosts())
}

// serveLegs runs a scenario's legs on the worker pool and returns their
// reports in leg order; id names the scenario in a failed leg's error.
func (r *Runner) serveLegs(id string, legs ...serve.Config) (*ServeResult, error) {
	reports, err := parMap(r.workers(), legs, func(cfg serve.Config) (*serve.Report, error) {
		return r.serveLeg(cfg)
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	return &ServeResult{Reports: reports}, nil
}

// ServeSteady is the bring-up scenario: three tenants with distinct
// service-time scales (a transformer, a detector, a recommender) at
// moderate Poisson load on a 4-pNPU fleet, autoscaler on. Healthy
// output: high attainment for all three, a mostly flat replica count,
// and fleet utilization comfortably under allocation.
func (r *Runner) ServeSteady() (*ServeResult, error) {
	return r.serveLegs("serve-steady", serve.Config{
		Scenario:    "steady",
		Cores:       4,
		Router:      serve.LeastLoaded,
		DurationSec: 2.0,
		Autoscale:   true,
		Tenants: []serve.TenantConfig{
			{Name: "chat", Model: "BERT", Load: 0.55, EUs: 4, MaxBatch: 8,
				InitialReplicas: 1, MaxReplicas: 3},
			{Name: "vision", Model: "RtNt", Load: 0.50, EUs: 4, MaxBatch: 8,
				InitialReplicas: 1, MaxReplicas: 3},
			{Name: "rank", Model: "DLRM", Load: 0.45, EUs: 2, MaxBatch: 16,
				InitialReplicas: 1, MaxReplicas: 3},
		},
	})
}

// ServeFlashCrowd hits one tenant with a 5× flash crowd for the middle
// third of the run and reports the same trace twice — autoscaler on vs.
// off — in one result. The autoscaled run should recover SLO attainment
// that the fixed fleet loses to queue sheds and tail blowup.
func (r *Runner) ServeFlashCrowd() (*ServeResult, error) {
	mk := func(label string, autoscale bool) serve.Config {
		return serve.Config{
			Scenario:      label,
			Cores:         6,
			Router:        serve.PowerOfTwo,
			DurationSec:   3.0,
			Autoscale:     autoscale,
			ScaleEverySec: 0.1,
			Tenants: []serve.TenantConfig{
				{Name: "web", Model: "ENet", Load: 0.5, EUs: 2, MaxBatch: 8,
					Arrival: serve.Flash, InitialReplicas: 1, MaxReplicas: 3},
				{Name: "batch", Model: "TFMR", Load: 0.4, EUs: 4, MaxBatch: 8,
					InitialReplicas: 1, MaxReplicas: 2},
			},
		}
	}
	return r.serveLegs("serve-flash", mk("flash-crowd", true), mk("flash-crowd/no-autoscale", false))
}

// ServePriority is the mixed interactive/batch scenario: a
// latency-sensitive EfficientNet tenant (sub-ms batches, few-ms SLO)
// and a throughput-oriented Transformer tenant (~25 ms batches) pool
// their replicas in one temporal-share group, and the same trace is
// reported twice — priority-aware preemptive scheduling vs. the
// FIFO-shared baseline. In the FIFO run an interactive request caught
// behind a TFMR invocation serves an order of magnitude past its SLO;
// with preemption it checkpoints the batch at the next µTOp-quantum
// boundary (0.5 ms here, so every resumed segment makes real progress)
// and the batch tenant pays a bounded, reported goodput/latency cost
// (see the per-priority section and the preemption line of the table).
func (r *Runner) ServePriority() (*ServeResult, error) {
	mk := func(label string, preempt bool) serve.Config {
		return serve.Config{
			Scenario:    label,
			Cores:       3,
			Router:      serve.LeastLoaded,
			DurationSec: 2.0,
			Preempt:     preempt,
			Tenants: []serve.TenantConfig{
				{Name: "chat", Model: "ENet", Priority: serve.Interactive, ShareGroup: "pool",
					Load: 0.35, EUs: 4, MaxBatch: 4, InitialReplicas: 1, MaxReplicas: 1},
				{Name: "analytics", Model: "TFMR", Priority: serve.Batch, ShareGroup: "pool",
					Load: 0.7, EUs: 4, MaxBatch: 8, SLOFactor: 4, InitialReplicas: 2, MaxReplicas: 2},
			},
		}
	}
	return r.serveLegs("serve-priority", mk("priority", true), mk("priority/fifo", false))
}

// ServeLLM is the KV-cache-aware LLM serving scenario: one
// autoregressive LLaMA-13B tenant (decode-dominated requests with
// long-tailed output lengths) on a fixed two-replica fleet, reported
// twice on the identical trace — continuous batching vs the static
// baseline. Continuous batching releases finished sequences at every
// decode-iteration boundary and admits queued prefills in their place,
// so short requests never ride a long batch's dead lanes; static pads
// every batch to its longest output and returns the whole batch
// together. The per-replica KV partition is tightened (KVCapTokens) so
// the admission rule visibly gates batch growth (kv-stalls,
// kv-occupancy in the LLM table). Healthy output: continuous beats
// static on goodput, SLO attainment, TTFT and p99 per-token latency,
// with identical arrivals and token totals.
func (r *Runner) ServeLLM() (*ServeResult, error) {
	mk := func(label string, continuous bool) serve.Config {
		return serve.Config{
			Scenario:    label,
			Cores:       2,
			Router:      serve.LeastLoaded,
			DurationSec: 10.0,
			Tenants: []serve.TenantConfig{{
				Name: "assistant", Model: "LLaMA", Load: 0.75, EUs: 4,
				MaxBatch: 8, QueueCap: 32, InitialReplicas: 2, MaxReplicas: 2,
				LLM: &serve.LLMConfig{
					Static: !continuous,
					// A 768-token KV partition per replica: full batches of
					// typical requests fit, but clustered long generations
					// hit the admission rule — KV, not batch width, is the
					// binding constraint under bursts.
					KVCapTokens: 768,
					Trace: workload.LLMTrace{
						PromptMin: 16, PromptMean: 48, PromptMax: 128,
						OutputMin: 2, OutputMean: 12, OutputMax: 48,
					},
				},
			}},
		}
	}
	return r.serveLegs("serve-llm", mk("llm", true), mk("llm/static", false))
}

// ServeDisagg is the disaggregated prefill/decode scenario: one
// autoregressive LLaMA-13B tenant with a bimodal long-prompt/short-
// prompt trace, compared at a MATCHED chip count (4 pNPUs) and matched
// aggregate decode width on the identical request trace:
//
//   - colocated: 4 mixed replicas running the continuous batcher —
//     prefill-prioritized joins interleave with decode iterations on
//     every slot, so each long-prompt prefill invocation stalls that
//     slot's running generations (the TPOT interference the vNPU
//     partitioning story is about);
//   - disaggregated: 2 prefill + 2 decode replicas, chunked prefill
//     (64-token chunks) on the prefill pool, KV migrations over the
//     modeled chip-to-chip fabric, decode slots batching 2×MaxBatch
//     wide (decode cost is HBM-bound and nearly flat in batch, so
//     consolidation is almost free) — swept over interconnect
//     bandwidth.
//
// Healthy output: at ample bandwidth disaggregation beats colocation
// on TPOT p99 (no prefill ever runs on a decode slot), TTFT and SLO
// attainment; as the link slows, migration time (priced into TTFT) and
// prefill-side KV backpressure erode the advantage until the slowest
// link crosses below the colocated baseline — the bandwidth floor
// DistServe-style role specialization needs.
func (r *Runner) ServeDisagg() (*ServeResult, error) {
	trace := workload.LLMTrace{
		PromptMin: 16, PromptMean: 32, PromptMax: 64,
		PromptLongFrac: 0.25, PromptLongMin: 128, PromptLongMean: 192, PromptLongMax: 256,
		OutputMin: 6, OutputMean: 12, OutputMax: 24,
	}
	mk := func(label string, disagg bool, gbps float64) serve.Config {
		llm := &serve.LLMConfig{Trace: trace}
		if disagg {
			llm.Disagg = &serve.DisaggConfig{
				PrefillReplicas: 2, DecodeReplicas: 2, ChunkTokens: 64,
			}
		}
		return serve.Config{
			Scenario:    label,
			Cores:       4,
			Router:      serve.LeastLoaded,
			DurationSec: 8.0,
			LinkGBps:    gbps,
			Tenants: []serve.TenantConfig{{
				// RatePerSec (not Load) so every configuration sees the
				// byte-identical arrival trace regardless of its own
				// capacity anchor; SLOMs explicit for the same reason.
				Name: "assistant", Model: "LLaMA", RatePerSec: 22, EUs: 4,
				MaxBatch: 8, QueueCap: 64, SLOMs: 3000,
				InitialReplicas: 4, MaxReplicas: 4,
				LLM: llm,
			}},
		}
	}
	return r.serveLegs("serve-disagg",
		mk("disagg/colocated", false, 64),
		mk("disagg/64GBps", true, 64),
		mk("disagg/4GBps", true, 4),
		mk("disagg/0.5GBps", true, 0.5),
		mk("disagg/0.0625GBps", true, 0.0625))
}

// ServeChaos is the fault-injection scenario: one disaggregated
// LLaMA-13B tenant (2 prefill + 2 decode replicas, chunked prefill, KV
// migrations over the fabric) on an 8-pNPU fleet, the identical trace
// reported three ways:
//
//   - chaos/no-fault: the healthy reference run;
//   - chaos/fault: a mid-trace decode-replica crash (35%), a correlated
//     pod outage taking chips 0–1 down (52%), and the interconnect
//     degraded to 1/16 bandwidth for [55%, 72%) — no recovery machinery
//     beyond the autoscaler's ordinary windowed ladder and its
//     one-replica resurrection floor;
//   - chaos/fault+recover: the same faults with one warm spare per
//     pool, crash-triggered emergency spawns (bypassing the p99
//     window), and migration-based decode-pool evacuation.
//
// Crashed replicas lose their resident KV: queued and in-flight
// requests re-queue to survivors, partially-generated sequences replay
// with their prefix folded into the prompt (recompute itemized in the
// chaos table). Healthy output: fault attainment (requests arriving
// after the first fault, served within SLO) strictly higher and
// time-to-recover strictly lower with recovery than without, at the
// price of the spare capacity and recompute tokens the table shows.
func (r *Runner) ServeChaos() (*ServeResult, error) {
	trace := workload.LLMTrace{
		PromptMin: 16, PromptMean: 32, PromptMax: 64,
		PromptLongFrac: 0.25, PromptLongMin: 128, PromptLongMean: 192, PromptLongMax: 256,
		OutputMin: 6, OutputMean: 12, OutputMax: 24,
	}
	mkFaults := func() *serve.FaultPlan {
		return &serve.FaultPlan{Events: []serve.FaultEvent{
			{Kind: serve.FaultCrashReplica, AtFrac: 0.35, Tenant: "assistant", Role: serve.RoleDecode},
			{Kind: serve.FaultPodOutage, AtFrac: 0.52, Chips: []int{0, 1}},
			{Kind: serve.FaultLinkDegrade, AtFrac: 0.55, Scale: 1.0 / 16, UntilFrac: 0.72},
		}}
	}
	mk := func(label string, faults *serve.FaultPlan, rec *serve.RecoveryConfig) serve.Config {
		return serve.Config{
			Scenario:    label,
			Cores:       8,
			Router:      serve.LeastLoaded,
			DurationSec: 6.0,
			Autoscale:   true,
			Faults:      faults,
			Recover:     rec,
			Tenants: []serve.TenantConfig{{
				// RatePerSec (not Load) so every variant sees the
				// byte-identical arrival trace; SLOMs explicit for the same
				// reason.
				Name: "assistant", Model: "LLaMA", RatePerSec: 24, EUs: 4,
				MaxBatch: 4, QueueCap: 64, SLOMs: 2000,
				InitialReplicas: 4, MaxReplicas: 8,
				LLM: &serve.LLMConfig{
					Trace: trace,
					Disagg: &serve.DisaggConfig{
						PrefillReplicas: 2, MaxPrefill: 3,
						DecodeReplicas: 2, MaxDecode: 4,
						ChunkTokens: 64,
					},
				},
			}},
		}
	}
	return r.serveLegs("serve-chaos",
		mk("chaos/no-fault", nil, nil),
		mk("chaos/fault", mkFaults(), nil),
		mk("chaos/fault+recover", mkFaults(),
			&serve.RecoveryConfig{WarmSpares: 1, EmergencySpawn: true, Evacuate: true}))
}

// ServeConsolidate is the consolidation study the batcher policy layer
// exists for: one shared cluster serving an LLM tenant alongside
// vision and recommendation tenants — three scheduling policies
// (continuous batching plus two dynamic batchers), mixed priority/SLO
// classes — on a single aggregate trace (workload.ServingMix splits
// one cluster rate across the families), compared against running each
// tenant in its own silo at the same per-tenant rate. Every fleet is
// sized by a min-chips search: the smallest pNPU count whose placement
// fits the tenant's replicas, checked against a shared SLO-attainment
// floor. Healthy output: merged ≤ Σ siloed — the fractional-chip
// remainders (a 4-EU vision replica, a 2-EU recommender) pack into the
// LLM chip's spare EUs and HBM instead of each rounding up to a whole
// silo chip.
func (r *Runner) ServeConsolidate() (*ServeResult, error) {
	const attainFloor = 0.95
	mix := workload.ServingMix{
		TotalRPS: 400,
		Shares: []workload.MixShare{
			{Name: "assistant", Frac: 0.02},
			{Name: "vision", Frac: 0.23},
			{Name: "rank", Frac: 0.75},
		},
	}
	if err := mix.Validate(); err != nil {
		return nil, fmt.Errorf("serve-consolidate: %w", err)
	}
	mkTenants := func() []serve.TenantConfig {
		return []serve.TenantConfig{
			{Name: "assistant", Model: "LLaMA", RatePerSec: mix.RateFor("assistant"),
				EUs: 4, MaxBatch: 4, QueueCap: 32, Priority: serve.Interactive,
				InitialReplicas: 1, MaxReplicas: 1,
				LLM: &serve.LLMConfig{Trace: workload.LLMTrace{
					PromptMin: 16, PromptMean: 48, PromptMax: 128,
					OutputMin: 2, OutputMean: 12, OutputMax: 48,
				}}},
			{Name: "vision", Model: "RtNt", RatePerSec: mix.RateFor("vision"),
				EUs: 4, MaxBatch: 8, InitialReplicas: 1, MaxReplicas: 1},
			{Name: "rank", Model: "DLRM", RatePerSec: mix.RateFor("rank"),
				EUs: 2, MaxBatch: 16, SLOFactor: 4, Priority: serve.Batch,
				InitialReplicas: 1, MaxReplicas: 1},
		}
	}
	type variant struct {
		label   string
		tenants []serve.TenantConfig
	}
	base := mkTenants()
	variants := []variant{{label: "consolidate/merged", tenants: mkTenants()}}
	for i := range base {
		variants = append(variants, variant{
			label:   "consolidate/silo-" + base[i].Name,
			tenants: mkTenants()[i : i+1],
		})
	}
	type sized struct {
		chips int
		rep   *serve.Report
	}
	results, err := parMap(r.workers(), variants, func(v variant) (sized, error) {
		var lastErr error
		for chips := 1; chips <= 10; chips++ {
			rep, err := r.serveLeg(serve.Config{
				Scenario:    fmt.Sprintf("%s@%dchip", v.label, chips),
				Cores:       chips,
				Router:      serve.LeastLoaded,
				DurationSec: 2.0,
				Tenants:     v.tenants,
			})
			if err != nil {
				lastErr = err // placement did not fit: try a bigger fleet
				continue
			}
			for _, tr := range rep.Tenants {
				if tr.SLOAttainment < attainFloor {
					// Replica counts are fixed, vNPUs are segment-isolated:
					// more chips cannot raise attainment, so the miss is a
					// workload-sizing bug, not a small fleet.
					return sized{}, fmt.Errorf("%s: tenant %s attainment %.3f below the %.2f floor",
						v.label, tr.Name, tr.SLOAttainment, attainFloor)
				}
			}
			return sized{chips, rep}, nil
		}
		return sized{}, fmt.Errorf("%s: no fleet ≤ 10 chips placed the tenants: %w", v.label, lastErr)
	})
	if err != nil {
		return nil, fmt.Errorf("serve-consolidate: %w", err)
	}
	merged := results[0]
	reports := []*serve.Report{merged.rep}
	siloSum := 0
	parts := make([]string, 0, len(base))
	for i, s := range results[1:] {
		siloSum += s.chips
		parts = append(parts, fmt.Sprintf("%s %d", base[i].Name, s.chips))
		reports = append(reports, s.rep)
	}
	if merged.chips > siloSum {
		return nil, fmt.Errorf("serve-consolidate: merged fleet needs %d chips but the silos need only %d — consolidation lost",
			merged.chips, siloSum)
	}
	summary := fmt.Sprintf("consolidation: merged fleet %d chips vs siloed %d (%s) at ≥%.2f attainment — %d chip(s) saved",
		merged.chips, siloSum, strings.Join(parts, " + "), attainFloor, siloSum-merged.chips)
	return &ServeResult{Reports: reports, Summary: summary}, nil
}

// ServePaged is the KV-backend comparison scenario: one autoregressive
// LLaMA-13B tenant serving MULTI-TURN SESSION traffic (every request
// re-submits its conversation so far plus a new turn, and all sessions
// open with one shared system prompt) on a fixed two-replica fleet with
// a deliberately tight KV partition, the identical trace reported three
// ways:
//
//   - paged/reserve: the full-reservation backend (the legacy default,
//     made explicit so the report's comparison fields populate) — every
//     admission reserves prompt+output up front, so ballooning session
//     contexts gate concurrency hard;
//   - paged/recompute: block-on-demand allocation with the radix-trie
//     prefix cache (a returning session's earlier turns and the shared
//     system prompt are served from resident blocks, shrinking both the
//     admission footprint and the prefill), evicting the youngest
//     sequence under block pressure and replaying it through a chunked
//     re-prefill;
//   - paged/swap: the same allocator, but victims ship their KV to host
//     memory over a modeled PCIe-class link and return without
//     recomputing a single token.
//
// Healthy output: both paged legs admit strictly more concurrent
// sequences (kv_peak_seqs) and deliver strictly higher goodput than
// full reservation on the identical session trace — the paged-KV claim
// this scenario exists to demonstrate, asserted below — with the
// recompute-vs-swap price itemized in the kv table (replayed tokens vs
// MB moved).
func (r *Runner) ServePaged() (*ServeResult, error) {
	trace := workload.LLMTrace{
		// Per-turn shape; session growth is what makes prompts large.
		PromptMin: 16, PromptMean: 32, PromptMax: 64,
		OutputMin: 4, OutputMean: 12, OutputMax: 32,
		Sessions: 10, SharedPrefixTokens: 96, MaxSessionTokens: 640,
	}
	mk := func(label, policy, evict string) serve.Config {
		return serve.Config{
			Scenario:    label,
			Cores:       2,
			Router:      serve.LeastLoaded,
			DurationSec: 8.0,
			Tenants: []serve.TenantConfig{{
				// RatePerSec (not Load) so every backend sees the
				// byte-identical session trace; SLOMs explicit for the same
				// reason.
				Name: "assistant", Model: "LLaMA", RatePerSec: 14, EUs: 4,
				MaxBatch: 16, QueueCap: 64, SLOMs: 3000,
				InitialReplicas: 2, MaxReplicas: 2,
				LLM: &serve.LLMConfig{
					// A 1536-token partition per replica: a late-session
					// context is a third of it, so full reservation runs out
					// of admission room while on-demand blocks (plus the
					// cache-resident earlier turns) keep admitting.
					KVCapTokens: 1536,
					KVPolicy:    policy,
					KVEvict:     evict,
					Trace:       trace,
				},
			}},
		}
	}
	res, err := r.serveLegs("serve-paged",
		mk("paged/reserve", serve.KVReserve, ""),
		mk("paged/recompute", serve.KVPaged, serve.KVEvictRecompute),
		mk("paged/swap", serve.KVPaged, serve.KVEvictSwap))
	if err != nil {
		return nil, err
	}
	reports := res.Reports
	resv := reports[0].Tenants[0]
	parts := make([]string, 0, 2)
	for _, rep := range reports[1:] {
		t := rep.Tenants[0]
		if t.LLM.PeakSeqs <= resv.LLM.PeakSeqs {
			return nil, fmt.Errorf("serve-paged: %s peak seqs %d not above reserve's %d — paging won nothing",
				rep.Scenario, t.LLM.PeakSeqs, resv.LLM.PeakSeqs)
		}
		if t.GoodputRPS <= resv.GoodputRPS {
			return nil, fmt.Errorf("serve-paged: %s goodput %.2f rps not above reserve's %.2f — paging won nothing",
				rep.Scenario, t.GoodputRPS, resv.GoodputRPS)
		}
		parts = append(parts, fmt.Sprintf("%s %d seqs / %.1f rps", rep.Scenario, t.LLM.PeakSeqs, t.GoodputRPS))
	}
	rec, swp := reports[1].Tenants[0].LLM, reports[2].Tenants[0].LLM
	res.Summary = fmt.Sprintf(
		"paged KV: reserve %d seqs / %.1f rps vs %s; eviction price: %d recompute evicts replay %d tokens vs %d swap evicts move %.1f MB",
		resv.LLM.PeakSeqs, resv.GoodputRPS, strings.Join(parts, ", "),
		rec.EvictRecompute, rec.RecomputeTokens, swp.EvictSwap, swp.SwapOutMB+swp.SwapInMB)
	return res, nil
}

// ServeAttrib is the latency-attribution scenario: one LLaMA-13B tenant
// serving the SAME multi-turn session trace three ways — full KV
// reservation, paged KV with recompute eviction, and disaggregated
// prefill/decode — with exact attribution (Config.Obs.Attrib) forced on
// atop whatever collectors Options.ServeObs enables. Every request's
// lifetime decomposes
// into exclusive segments that sum cycle-exactly to its end-to-end
// latency, and every replica-cycle lands in exactly one fleet bucket;
// both conservation laws are asserted here (zero violations, zero open
// requests) on top of the in-sim checks.
//
// The attribution tables answer the question the aggregate serve tables
// cannot: WHERE the latency lives. Under full reservation a tight KV
// partition turns late-session contexts into admission blockers, so the
// tail cohort's blame is queue time; paged admission converts that same
// wall-clock into decode/decode-gap time (the requests are on chip,
// making progress) — asserted below as a strict queue-share drop.
// Disaggregation shifts blame again, into migration and chunk gaps the
// other legs cannot have.
func (r *Runner) ServeAttrib() (*ServeResult, error) {
	trace := workload.LLMTrace{
		// Per-turn shape; session growth is what makes prompts large.
		PromptMin: 16, PromptMean: 32, PromptMax: 64,
		OutputMin: 4, OutputMean: 12, OutputMax: 32,
		Sessions: 10, SharedPrefixTokens: 96, MaxSessionTokens: 640,
	}
	obsCfg := serve.ObsConfig{Attrib: true}
	if r.opts.ServeObs != nil {
		obsCfg = *r.opts.ServeObs
		obsCfg.Attrib = true
	}
	mk := func(label string) serve.Config {
		return serve.Config{
			Scenario:    label,
			Cores:       2,
			Router:      serve.LeastLoaded,
			DurationSec: 6.0,
			Obs:         &obsCfg,
			Tenants: []serve.TenantConfig{{
				// RatePerSec (not Load) so every leg sees the byte-identical
				// session trace; SLOMs explicit for the same reason.
				Name: "assistant", Model: "LLaMA", RatePerSec: 14, EUs: 4,
				MaxBatch: 16, QueueCap: 64, SLOMs: 3000,
				InitialReplicas: 2, MaxReplicas: 2,
				LLM: &serve.LLMConfig{
					// The same deliberately tight 1536-token partition as
					// serve-paged: late-session contexts are a third of it, so
					// the reserve leg queues hard and attribution has a
					// contrast to expose.
					KVCapTokens: 1536,
					Trace:       trace,
				},
			}},
		}
	}
	cfgs := []serve.Config{
		mk("attrib/reserve"),
		mk("attrib/paged"),
		mk("attrib/disagg"),
	}
	cfgs[0].Tenants[0].LLM.KVPolicy = serve.KVReserve
	cfgs[1].Tenants[0].LLM.KVPolicy = serve.KVPaged
	cfgs[1].Tenants[0].LLM.KVEvict = serve.KVEvictRecompute
	cfgs[2].Tenants[0].LLM.Disagg = &serve.DisaggConfig{
		PrefillReplicas: 1, DecodeReplicas: 1, ChunkTokens: 64,
	}
	res, err := r.serveLegs("serve-attrib", cfgs...)
	if err != nil {
		return nil, err
	}
	shares := make([]float64, len(res.Reports))
	for i, rep := range res.Reports {
		led := rep.Ledger
		if led == nil {
			return nil, fmt.Errorf("serve-attrib: %s carried no ledger", rep.Scenario)
		}
		if v, open := led.Violations(), led.Open(); v != 0 || open != 0 {
			return nil, fmt.Errorf("serve-attrib: %s conservation broken: %d violations, %d open requests",
				rep.Scenario, v, open)
		}
		tot := led.SegTotals("assistant")
		sum := 0.0
		for _, v := range tot {
			sum += v
		}
		if sum <= 0 {
			return nil, fmt.Errorf("serve-attrib: %s attributed no request time", rep.Scenario)
		}
		shares[i] = tot[obs.SegQueue] / sum
	}
	if shares[1] >= shares[0] {
		return nil, fmt.Errorf("serve-attrib: paged queue share %.1f%% not below reserve's %.1f%% — paging collapsed nothing",
			shares[1]*100, shares[0]*100)
	}
	res.Summary = fmt.Sprintf(
		"attribution: queue share of attributed time — reserve %.1f%%, paged %.1f%%, disagg %.1f%%; paged admission converts reserve's queueing into on-chip decode time; conservation: 0 violations, 0 open across all legs",
		shares[0]*100, shares[1]*100, shares[2]*100)
	return res, nil
}

// ServeMixShift runs two diurnal tenants in antiphase — as one's
// traffic wanes the other's peaks — so the autoscaler must migrate
// capacity between them on a fleet too small to hold both peaks at
// once.
func (r *Runner) ServeMixShift() (*ServeResult, error) {
	return r.serveLegs("serve-mix", serve.Config{
		Scenario:    "mix-shift",
		Cores:       5,
		Router:      serve.JSQ,
		DurationSec: 4.0,
		Autoscale:   true,
		Tenants: []serve.TenantConfig{
			{Name: "east", Model: "RtNt", Load: 0.55, EUs: 4, MaxBatch: 8,
				Arrival: serve.Diurnal, InitialReplicas: 2, MaxReplicas: 4},
			{Name: "west", Model: "BERT", Load: 0.55, EUs: 4, MaxBatch: 8,
				Arrival: serve.Diurnal, DiurnalPhase: 3.141592653589793,
				InitialReplicas: 2, MaxReplicas: 4},
		},
	})
}
