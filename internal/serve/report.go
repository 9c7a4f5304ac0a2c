package serve

import (
	"fmt"
	"strings"

	"neu10/internal/obs"
)

// TenantReport summarizes one tenant's serving outcome.
type TenantReport struct {
	Name  string  `json:"name"`
	Model string  `json:"model"`
	SLOMs float64 `json:"slo_ms"`

	// Priority class and temporal-sharing pool (empty = private replicas).
	Priority   string `json:"priority,omitempty"`
	ShareGroup string `json:"share_group,omitempty"`

	Arrivals  int `json:"arrivals"`
	Rejected  int `json:"rejected"`
	Completed int `json:"completed"`

	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`

	// SLOAttainment is sloOK/arrivals: the fraction of ALL offered
	// requests served within the SLO — rejections count as violations.
	SLOAttainment float64 `json:"slo_attainment"`
	// GoodputRPS is SLO-compliant completions per second of scenario time.
	GoodputRPS float64 `json:"goodput_rps"`

	Replicas      int `json:"replicas"`
	PeakReplicas  int `json:"peak_replicas"`
	EUsPerReplica int `json:"eus_per_replica"`
	ScaleUps      int `json:"scale_ups"`
	ScaleDowns    int `json:"scale_downs"`
	Resizes       int `json:"resizes"`
	ScaleFails    int `json:"scale_fails"`
	MaxQueue      int `json:"max_queue"`

	// Preemptive temporal sharing: how often this tenant's batches were
	// suspended (and later resumed), how many preemptions its own
	// batches triggered, the context-switch cycles charged against its
	// service (as milliseconds), and the worst preempt+bypass count any
	// single batch suffered. The aging credit bounds a batch's wait,
	// not this count: many short interruptions may add up to more
	// events than the credit's 64 quanta.
	Preemptions     int     `json:"preemptions,omitempty"`
	PreemptsIssued  int     `json:"preempts_issued,omitempty"`
	Resumes         int     `json:"resumes,omitempty"`
	StolenMs        float64 `json:"stolen_ms,omitempty"`
	MaxBatchPreempt int     `json:"max_batch_preempts,omitempty"`

	// Fault injection and recovery (fault.go; all zero on fault-free
	// runs). FaultAttainment/FaultGoodputRPS cover requests ARRIVING in
	// the fault window (first scheduled fault → end of run), directly
	// comparable to the whole-run SLOAttainment. TTRMs is first crash →
	// active count back at its pre-fault level; Recovered false means
	// the run ended first and TTRMs reports the censored bound.
	Crashes         int     `json:"crashes,omitempty"`
	CrashRequeued   int     `json:"crash_requeued,omitempty"`
	CrashLost       int     `json:"crash_lost,omitempty"`
	Replays         int     `json:"replays,omitempty"`
	RecomputeTokens int64   `json:"recompute_tokens,omitempty"`
	EmergencySpawns int     `json:"emergency_spawns,omitempty"`
	Evacuations     int     `json:"evacuations,omitempty"`
	EvacuationMB    float64 `json:"evacuation_mb,omitempty"`
	FaultAttainment float64 `json:"fault_attainment,omitempty"`
	FaultGoodputRPS float64 `json:"fault_goodput_rps,omitempty"`
	TTRMs           float64 `json:"ttr_ms,omitempty"`
	Recovered       bool    `json:"recovered,omitempty"`

	// LLM carries the autoregressive-serving section for LLM tenants
	// (nil otherwise).
	LLM *LLMTenantReport `json:"llm,omitempty"`

	// Attrib is the latency-attribution section (nil unless
	// Config.Obs.Attrib, so legacy JSON output is byte-identical):
	// cohort blame breakdowns and worst-request drilldowns from the
	// run's conservation-checked ledger (attrib.go).
	Attrib *TenantAttrib `json:"attrib,omitempty"`
}

// LLMTenantReport is the per-phase outcome of one LLM tenant: time to
// first token and per-output-token latency distributions, generation
// throughput, and KV-cache pressure. TTFT is prefill-finish − arrival
// (queueing included); TPOT is (completion − TTFT)/(output−1), so a
// static batch's padded tail inflates it exactly as it should.
type LLMTenantReport struct {
	Batcher  string `json:"batcher"` // "continuous" or "static"
	Admitted int    `json:"admitted"`

	PromptTokensMean float64 `json:"prompt_tokens_mean"`
	OutputTokensMean float64 `json:"output_tokens_mean"`

	TTFTP50Ms float64 `json:"ttft_p50_ms"`
	TTFTP95Ms float64 `json:"ttft_p95_ms"`
	TTFTP99Ms float64 `json:"ttft_p99_ms"`
	TPOTP50Ms float64 `json:"tpot_p50_ms"`
	TPOTP95Ms float64 `json:"tpot_p95_ms"`
	TPOTP99Ms float64 `json:"tpot_p99_ms"`

	Prefills      int     `json:"prefills"`
	DecodeIters   int     `json:"decode_iters"`
	StaticBatches int     `json:"static_batches,omitempty"`
	TokensOut     int     `json:"tokens_out"`
	TokensPerSec  float64 `json:"tokens_per_sec"`

	// KV-cache accounting (serve.KVStats, kv.go): block granularity,
	// time-averaged and peak occupancy fractions across the tenant's
	// replicas, and admission stalls — plus, for tenants with an
	// explicit KVPolicy, the backend-comparison fields (peak concurrent
	// sequences, eviction and prefix-cache traffic).
	KVStats

	// Disaggregation (zero for colocated tenants): per-role fleet sizes,
	// chunked-prefill granularity, KV-migration traffic and the mean
	// prefill-to-decode handoff time (queue + transfer + link latency —
	// the slice of TTFT the interconnect owns), plus how often a
	// finished prompt found no admitting decode slot.
	PrefillReplicas int     `json:"prefill_replicas,omitempty"`
	PrefillPeak     int     `json:"prefill_peak,omitempty"`
	DecodeReplicas  int     `json:"decode_replicas,omitempty"`
	DecodePeak      int     `json:"decode_peak,omitempty"`
	ChunkTokens     int     `json:"chunk_tokens,omitempty"`
	Migrations      int     `json:"migrations,omitempty"`
	MigrationMB     float64 `json:"migration_mb,omitempty"`
	MigMeanMs       float64 `json:"mig_mean_ms,omitempty"`
	MigStalls       int     `json:"mig_stalls,omitempty"`
}

// PriorityReport aggregates the tenants of one priority class: the
// per-priority latency distribution, SLO attainment and the preemption
// traffic the class suffered. Only populated when the run configures
// priorities, share groups or preemption.
type PriorityReport struct {
	Priority  string `json:"priority"`
	Arrivals  int    `json:"arrivals"`
	Rejected  int    `json:"rejected"`
	Completed int    `json:"completed"`

	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`

	SLOAttainment float64 `json:"slo_attainment"`
	GoodputRPS    float64 `json:"goodput_rps"`

	Preemptions int     `json:"preemptions"`
	Resumes     int     `json:"resumes"`
	StolenMs    float64 `json:"stolen_ms"`
}

// Report is the outcome of one serving run.
type Report struct {
	Scenario    string  `json:"scenario"`
	Seed        uint64  `json:"seed"`
	DurationSec float64 `json:"duration_sec"`
	Cores       int     `json:"cores"`
	Router      string  `json:"router"`
	Placement   string  `json:"placement"`
	Autoscale   bool    `json:"autoscale"`
	Preempt     bool    `json:"preempt,omitempty"`

	Tenants []TenantReport `json:"tenants"`

	// Priorities (highest class first) and the fleet-wide preemption
	// totals; empty/zero for priority-unaware runs.
	Priorities       []PriorityReport `json:"priorities,omitempty"`
	Preemptions      int              `json:"preemptions,omitempty"`
	Resumes          int              `json:"resumes,omitempty"`
	SwitchOverheadMs float64          `json:"switch_overhead_ms,omitempty"`

	// Interconnect accounting (zero when no tenant is disaggregated):
	// configured per-link bandwidth, mean busy fraction over the
	// instantiated links, total payload moved and the worst concurrency
	// any single link saw (what its max-min share divided by).
	LinkGBps      float64 `json:"link_gbps,omitempty"`
	LinkUtil      float64 `json:"link_util,omitempty"`
	LinkMovedMB   float64 `json:"link_moved_mb,omitempty"`
	LinkPeakFlows int     `json:"link_peak_flows,omitempty"`
	Links         int     `json:"links,omitempty"`
	LinkCanceled  int     `json:"link_canceled,omitempty"`

	// Fault schedule (zero/empty on fault-free runs): event count, crash
	// policy (always "replay": a crashed sequence re-queues with its
	// generated prefix folded into the prompt), when the fault window
	// opens, and the recovery machinery enabled for the run.
	FaultEvents    int     `json:"fault_events,omitempty"`
	FaultPolicy    string  `json:"fault_policy,omitempty"`
	FaultFromSec   float64 `json:"fault_from_sec,omitempty"`
	WarmSpares     int     `json:"warm_spares,omitempty"`
	EmergencySpawn bool    `json:"emergency_spawn,omitempty"`
	Evacuate       bool    `json:"evacuate,omitempty"`

	// FleetEUUtil is the fraction of all fleet EU-cycles spent serving.
	FleetEUUtil float64 `json:"fleet_eu_util"`
	// AllocatedEUFrac is the time-averaged fraction of fleet EUs bound to
	// some vNPU (allocated ≥ busy; the gap is provisioned-but-idle).
	AllocatedEUFrac float64 `json:"allocated_eu_frac"`
	// MeanStrandedEUs is time-averaged fragmentation waste
	// (cluster.StrandedEUs).
	MeanStrandedEUs float64 `json:"mean_stranded_eus"`
	MapAccepts      int     `json:"map_accepts"`
	MapRejects      int     `json:"map_rejects"`

	// Observability payloads (nil unless Config.Obs enabled them, so
	// legacy JSON output is byte-identical): the run's lifecycle trace
	// — exported to Perfetto via obs.WriteChromeAll, not marshaled inline
	// — and the sampled timelines (queue depth, KV occupancy, pool
	// sizes, link utilization, attainment; see docs/OBSERVABILITY.md).
	Trace     *obs.Tracer      `json:"-"`
	Timelines *obs.TimelineSet `json:"timelines,omitempty"`

	// Attribution payloads (nil unless Config.Obs.Attrib): the fleet
	// cycle ledger summary and the raw ledger itself — exported as CSV
	// via obs.WriteLedgerCSVAll, not marshaled inline.
	CycleLedger *CycleLedgerReport `json:"cycle_ledger,omitempty"`
	Ledger      *obs.Ledger        `json:"-"`
}

// Table renders the report as a plain-text table. The output is a pure
// function of the report contents, which is what the determinism tests
// byte-compare.
func (rep *Report) Table() string {
	var sb strings.Builder
	mode := "off"
	if rep.Autoscale {
		mode = "on"
	}
	fmt.Fprintf(&sb, "Online serving — scenario %q (seed %d): %d pNPUs, router %s, placement %s, autoscale %s, %.2fs\n",
		rep.Scenario, rep.Seed, rep.Cores, rep.Router, rep.Placement, mode, rep.DurationSec)

	header := []string{"tenant", "model", "SLO(ms)", "arrived", "rejected", "p50(ms)", "p99(ms)", "attain", "goodput(rps)", "repl(peak)", "EUs", "up/dn/rsz/fail"}
	rows := [][]string{}
	for _, t := range rep.Tenants {
		rows = append(rows, []string{
			t.Name, t.Model,
			fmt.Sprintf("%.2f", t.SLOMs),
			fmt.Sprint(t.Arrivals), fmt.Sprint(t.Rejected),
			fmt.Sprintf("%.2f", t.P50Ms), fmt.Sprintf("%.2f", t.P99Ms),
			fmt.Sprintf("%.1f%%", t.SLOAttainment*100),
			fmt.Sprintf("%.1f", t.GoodputRPS),
			fmt.Sprintf("%d(%d)", t.Replicas, t.PeakReplicas),
			fmt.Sprint(t.EUsPerReplica),
			fmt.Sprintf("%d/%d/%d/%d", t.ScaleUps, t.ScaleDowns, t.Resizes, t.ScaleFails),
		})
	}
	obs.WriteTable(&sb, header, rows)
	if llm := rep.llmTable(); llm != "" {
		sb.WriteString(llm)
	}
	if paged := rep.pagedTable(); paged != "" {
		sb.WriteString(paged)
	}
	if disagg := rep.disaggTable(); disagg != "" {
		sb.WriteString(disagg)
	}
	if chaos := rep.chaosTable(); chaos != "" {
		sb.WriteString(chaos)
	}
	if len(rep.Priorities) > 0 {
		sb.WriteString(rep.priorityTable())
	}
	fmt.Fprintf(&sb, "fleet: EU util %.1f%%, allocated EUs %.1f%%, stranded EUs %.2f, placements %d ok / %d failed\n",
		rep.FleetEUUtil*100, rep.AllocatedEUFrac*100, rep.MeanStrandedEUs, rep.MapAccepts, rep.MapRejects)
	if rep.Links > 0 {
		fmt.Fprintf(&sb, "interconnect: %d links at %.3f GB/s, %.1f MB moved, %.1f%% busy, peak %d flows/link\n",
			rep.Links, rep.LinkGBps, rep.LinkMovedMB, rep.LinkUtil*100, rep.LinkPeakFlows)
	}
	if rep.FaultEvents > 0 {
		recov := "none"
		if rep.WarmSpares > 0 || rep.EmergencySpawn || rep.Evacuate {
			parts := []string{}
			if rep.WarmSpares > 0 {
				parts = append(parts, fmt.Sprintf("%d warm spares", rep.WarmSpares))
			}
			if rep.EmergencySpawn {
				parts = append(parts, "emergency-spawn")
			}
			if rep.Evacuate {
				parts = append(parts, "evacuate")
			}
			recov = strings.Join(parts, "+")
		}
		fmt.Fprintf(&sb, "faults: %d events (policy %s) from %.2fs, recovery %s, %d transfers canceled\n",
			rep.FaultEvents, rep.FaultPolicy, rep.FaultFromSec, recov, rep.LinkCanceled)
	}
	if rep.Preempt || rep.Preemptions > 0 {
		fmt.Fprintf(&sb, "preemption: %d preempts, %d resumes, %.2f ms switch overhead\n",
			rep.Preemptions, rep.Resumes, rep.SwitchOverheadMs)
	}
	return sb.String()
}

// llmTable renders the autoregressive-serving section: one row per LLM
// tenant, empty when the run has none.
func (rep *Report) llmTable() string {
	var rows [][]string
	for _, t := range rep.Tenants {
		l := t.LLM
		if l == nil {
			continue
		}
		rows = append(rows, []string{
			t.Name, l.Batcher,
			fmt.Sprintf("%.2f", l.TTFTP50Ms), fmt.Sprintf("%.2f", l.TTFTP99Ms),
			fmt.Sprintf("%.2f", l.TPOTP50Ms), fmt.Sprintf("%.2f", l.TPOTP99Ms),
			fmt.Sprintf("%.1f", l.TokensPerSec),
			fmt.Sprint(l.Prefills), fmt.Sprint(l.DecodeIters),
			fmt.Sprintf("%.1f%%(%.1f%%)", l.KVOccMean*100, l.KVOccPeak*100),
			fmt.Sprint(l.KVStalls),
		})
	}
	if len(rows) == 0 {
		return ""
	}
	var sb strings.Builder
	header := []string{"llm tenant", "batcher", "ttft-p50(ms)", "ttft-p99(ms)", "tpot-p50(ms)", "tpot-p99(ms)", "tok/s", "prefills", "decode-iters", "kv-occ(peak)", "kv-stalls"}
	obs.WriteTable(&sb, header, rows)
	return sb.String()
}

// pagedTable renders the KV-backend comparison section: one row per
// LLM tenant with an EXPLICIT KVPolicy (reserve rows included, so a
// reserve-vs-paged scenario reads as adjacent rows), empty otherwise —
// legacy reports render byte-identically to before.
func (rep *Report) pagedTable() string {
	var rows [][]string
	for _, t := range rep.Tenants {
		l := t.LLM
		if l == nil || l.KVPolicy == "" {
			continue
		}
		rows = append(rows, []string{
			t.Name, l.KVPolicy,
			fmt.Sprint(l.PeakSeqs),
			fmt.Sprintf("%d/%d", l.EvictRecompute, l.EvictSwap),
			fmt.Sprint(l.RecomputeTokens),
			fmt.Sprintf("%.1f/%.1f", l.SwapOutMB, l.SwapInMB),
			fmt.Sprintf("%d/%d", l.PrefixHits, l.PrefixLookups),
			fmt.Sprint(l.PrefixHitTokens),
			fmt.Sprint(l.CacheEvictions),
		})
	}
	if len(rows) == 0 {
		return ""
	}
	var sb strings.Builder
	header := []string{"kv tenant", "policy", "peak-seqs", "evict(rc/sw)", "recompute-tok", "swap-MB(out/in)", "prefix-hits", "hit-tok", "cache-evict"}
	obs.WriteTable(&sb, header, rows)
	return sb.String()
}

// disaggTable renders the disaggregation section: one row per
// disaggregated tenant — per-role fleet sizes, migration traffic and
// handoff pricing. Empty when the run has none.
func (rep *Report) disaggTable() string {
	var rows [][]string
	for _, t := range rep.Tenants {
		l := t.LLM
		if l == nil || (l.PrefillReplicas == 0 && l.DecodeReplicas == 0) {
			continue
		}
		chunk := "whole-prompt"
		if l.ChunkTokens > 0 {
			chunk = fmt.Sprintf("%d tok", l.ChunkTokens)
		}
		rows = append(rows, []string{
			t.Name,
			fmt.Sprintf("%d(%d)", l.PrefillReplicas, l.PrefillPeak),
			fmt.Sprintf("%d(%d)", l.DecodeReplicas, l.DecodePeak),
			chunk,
			fmt.Sprint(l.Migrations),
			fmt.Sprintf("%.1f", l.MigrationMB),
			fmt.Sprintf("%.2f", l.MigMeanMs),
			fmt.Sprint(l.MigStalls),
		})
	}
	if len(rows) == 0 {
		return ""
	}
	var sb strings.Builder
	header := []string{"disagg tenant", "prefill(peak)", "decode(peak)", "chunk", "migrations", "mig-MB", "mig-mean(ms)", "mig-stalls"}
	obs.WriteTable(&sb, header, rows)
	return sb.String()
}

// chaosTable renders the fault/recovery section: one row per tenant,
// only when the run scheduled faults (FaultEvents > 0), so fault-free
// reports render byte-identically to before.
func (rep *Report) chaosTable() string {
	if rep.FaultEvents == 0 {
		return ""
	}
	var sb strings.Builder
	header := []string{"chaos tenant", "crashes", "requeued", "lost", "replays", "recompute-tok", "evacs", "spawns", "fault-attain", "ttr(ms)"}
	rows := [][]string{}
	for _, t := range rep.Tenants {
		ttr := "-"
		if t.Crashes > 0 {
			if t.Recovered {
				ttr = fmt.Sprintf("%.2f", t.TTRMs)
			} else {
				ttr = fmt.Sprintf(">%.2f", t.TTRMs)
			}
		}
		rows = append(rows, []string{
			t.Name,
			fmt.Sprint(t.Crashes), fmt.Sprint(t.CrashRequeued), fmt.Sprint(t.CrashLost),
			fmt.Sprint(t.Replays), fmt.Sprint(t.RecomputeTokens),
			fmt.Sprint(t.Evacuations), fmt.Sprint(t.EmergencySpawns),
			fmt.Sprintf("%.1f%%", t.FaultAttainment*100),
			ttr,
		})
	}
	obs.WriteTable(&sb, header, rows)
	return sb.String()
}

// priorityTable renders the per-priority-class section.
func (rep *Report) priorityTable() string {
	var sb strings.Builder
	header := []string{"priority", "arrived", "rejected", "p50(ms)", "p99(ms)", "attain", "goodput(rps)", "preempts", "resumes", "stolen(ms)"}
	rows := [][]string{}
	for _, p := range rep.Priorities {
		rows = append(rows, []string{
			p.Priority,
			fmt.Sprint(p.Arrivals), fmt.Sprint(p.Rejected),
			fmt.Sprintf("%.2f", p.P50Ms), fmt.Sprintf("%.2f", p.P99Ms),
			fmt.Sprintf("%.1f%%", p.SLOAttainment*100),
			fmt.Sprintf("%.1f", p.GoodputRPS),
			fmt.Sprint(p.Preemptions), fmt.Sprint(p.Resumes),
			fmt.Sprintf("%.2f", p.StolenMs),
		})
	}
	obs.WriteTable(&sb, header, rows)
	return sb.String()
}

// report assembles the final Report once the event queue has drained.
func (f *fleet) report() *Report {
	end := float64(f.eng.Now())
	if end < f.durCycles {
		end = f.durCycles
	}
	f.snapshot(end)
	freq := f.cfg.Core.FrequencyHz
	ms := func(cycles float64) float64 { return cycles / freq * 1e3 }

	rep := &Report{
		Scenario:    f.cfg.Scenario,
		Seed:        f.cfg.Seed,
		DurationSec: f.cfg.DurationSec,
		Cores:       f.cfg.Cores,
		Router:      f.cfg.Router.String(),
		Placement:   f.mapper.Policy.String(),
		Autoscale:   f.cfg.Autoscale,
		Preempt:     f.cfg.Preempt,
	}
	type classAgg struct {
		present            bool
		arrivals, rejected int
		completed, sloOK   int
		preempted, resumes int
		stolen             float64
	}
	var agg [numPriorities]classAgg
	busy := f.busySum
	// Switch costs are whole cycles far below 2^53, so this sum is
	// exact in any order.
	var switchCycles float64
	// Fold every live replica's KV accountant into its owner BEFORE
	// assembling any tenant report: an LLM tenant aggregates occupancy
	// across its whole serving group (peer-owned shared slots hold its
	// sequences too), so all owners must be up to date first.
	for _, t := range f.tenants {
		for _, r := range t.replicas {
			if r.kv != nil {
				t.foldKV(r.kv, end)
			}
		}
	}
	for _, t := range f.tenants {
		for _, r := range t.replicas {
			busy += r.busyEUCycles
		}
		rep.Preemptions += t.preempted
		rep.Resumes += t.resumes
		switchCycles += t.stolenCycles
		tr := TenantReport{
			Name:            t.cfg.Name,
			Model:           t.cfg.Model,
			SLOMs:           t.cfg.SLOMs,
			Arrivals:        t.arrivals,
			Rejected:        t.rejected,
			Completed:       t.completed,
			P50Ms:           ms(t.lat.P50()),
			P95Ms:           ms(t.lat.P95()),
			P99Ms:           ms(t.lat.P99()),
			MeanMs:          ms(t.lat.Mean()),
			GoodputRPS:      float64(t.sloOK) / f.cfg.DurationSec,
			Replicas:        t.activeCount(),
			PeakReplicas:    t.peakReplicas,
			EUsPerReplica:   t.curEUs,
			ScaleUps:        t.scaleUps,
			ScaleDowns:      t.scaleDowns,
			Resizes:         t.resizes,
			ScaleFails:      t.scaleFails,
			MaxQueue:        t.maxQueue,
			Preemptions:     t.preempted,
			PreemptsIssued:  t.preemptsIssued,
			Resumes:         t.resumes,
			StolenMs:        ms(t.stolenCycles),
			MaxBatchPreempt: t.maxPreempts,
		}
		if t.llm != nil {
			l := t.llm
			batcher := "continuous"
			if t.cfg.LLM.Static {
				batcher = "static"
			}
			lr := &LLMTenantReport{
				Batcher:       batcher,
				Admitted:      l.admitted,
				TTFTP50Ms:     ms(l.ttft.P50()),
				TTFTP95Ms:     ms(l.ttft.P95()),
				TTFTP99Ms:     ms(l.ttft.P99()),
				TPOTP50Ms:     ms(l.tpot.P50()),
				TPOTP95Ms:     ms(l.tpot.P95()),
				TPOTP99Ms:     ms(l.tpot.P99()),
				Prefills:      l.prefills,
				DecodeIters:   l.decodeIters,
				StaticBatches: l.staticBatches,
				TokensOut:     l.tokensOut,
				TokensPerSec:  float64(l.tokensOut) / f.cfg.DurationSec,
				KVStats: KVStats{
					KVBlockTokens: kvBlockTokens,
					KVStalls:      l.kvStalls,
				},
			}
			if l.admitted > 0 {
				lr.PromptTokensMean = float64(l.promptTokens) / float64(l.admitted)
				lr.OutputTokensMean = float64(l.outputTokens) / float64(l.admitted)
			}
			if d := t.disagg(); d != nil {
				lr.Batcher = "disaggregated"
				lr.PrefillReplicas = t.activeRole(RolePrefill)
				lr.PrefillPeak = t.prefPeak
				lr.DecodeReplicas = t.activeRole(RoleDecode)
				lr.DecodePeak = t.decPeak
				lr.ChunkTokens = d.ChunkTokens
				lr.Migrations = l.migrations
				lr.MigrationMB = float64(l.migBytes) / (1 << 20)
				lr.MigStalls = l.migStalls
				// Mean over LANDED migrations: waits accrue at landing, so
				// dividing by starts would bias the mean low if a report
				// were ever taken with transfers still on the wire.
				if l.migLanded > 0 {
					lr.MigMeanMs = ms(l.migWaitCycles / float64(l.migLanded))
				}
			}
			// KV occupancy spans the tenant's whole serving group: on
			// shared slots its sequences allocate from peer-owned
			// partitions too, and fold-at-retire credits the OWNER. Two
			// LLM tenants in one group therefore both report their shared
			// pool's occupancy.
			var kvUsed, kvTotal float64
			for _, p := range t.peers {
				kvUsed += p.kvUsedArea
				kvTotal += p.kvBlockArea
				if p.kvPeakFrac > lr.KVOccPeak {
					lr.KVOccPeak = p.kvPeakFrac
				}
			}
			if kvTotal > 0 {
				lr.KVOccMean = kvUsed / kvTotal
			}
			// Policy-comparison fields, only for tenants that chose a KV
			// backend explicitly (kv.go: legacy reports marshal
			// byte-identically). The counters were folded into kvAgg once
			// per replica lifetime by foldKV.
			if pol := t.cfg.LLM.KVPolicy; pol != "" {
				lr.KVPolicy = pol
				lr.PeakSeqs = t.kvAgg.PeakSeqs
				lr.Evictions = t.kvAgg.Evictions
				lr.EvictRecompute = t.kvAgg.EvictRecompute
				lr.EvictSwap = t.kvAgg.EvictSwap
				lr.RecomputeTokens = t.kvAgg.RecomputeTokens
				lr.SwapOutMB = t.kvAgg.SwapOutMB
				lr.SwapInMB = t.kvAgg.SwapInMB
				lr.PrefixLookups = t.kvAgg.PrefixLookups
				lr.PrefixHits = t.kvAgg.PrefixHits
				lr.PrefixHitTokens = t.kvAgg.PrefixHitTokens
				lr.CacheEvictions = t.kvAgg.CacheEvictions
				if lr.PrefixLookups > 0 {
					lr.PrefixHitRate = float64(lr.PrefixHits) / float64(lr.PrefixLookups)
				}
			}
			tr.LLM = lr
		}
		if f.prioEnabled {
			tr.Priority = t.cfg.Priority.String()
			tr.ShareGroup = t.cfg.ShareGroup
			a := &agg[t.cfg.Priority]
			a.present = true
			a.arrivals += t.arrivals
			a.rejected += t.rejected
			a.completed += t.completed
			a.sloOK += t.sloOK
			a.preempted += t.preempted
			a.resumes += t.resumes
			a.stolen += t.stolenCycles
		}
		if t.arrivals > 0 {
			// Rejected requests count against attainment: a shed request
			// is a broken promise too.
			tr.SLOAttainment = float64(t.sloOK) / float64(t.arrivals)
		}
		if f.faulted {
			tr.Crashes = t.crashes
			tr.CrashRequeued = t.crashRequeued
			tr.CrashLost = t.crashLost
			tr.Replays = t.replays
			tr.RecomputeTokens = t.recomputeTokens
			tr.EmergencySpawns = t.emergencySpawns
			if t.llm != nil {
				tr.Evacuations = t.llm.evacLanded
				tr.EvacuationMB = float64(t.llm.evacBytes) / (1 << 20)
			}
			// Fault-window attainment/goodput: requests arriving from the
			// first scheduled fault onward, same ≤-SLO rule as sloOK.
			if t.fwArrivals > 0 {
				tr.FaultAttainment = float64(t.fwSloOK) / float64(t.fwArrivals)
			}
			if winSec := (end - f.fwStart) / freq; winSec > 0 {
				tr.FaultGoodputRPS = float64(t.fwSloOK) / winSec
			}
			if t.crashAt > 0 {
				// Time-to-recover: first crash → active count back at its
				// pre-fault level. An unrecovered tenant reports the censored
				// bound (end of run) with Recovered false.
				tr.Recovered = t.recoveredAt > 0
				rec := t.recoveredAt
				if rec == 0 {
					rec = end
				}
				tr.TTRMs = ms(rec - t.crashAt)
			}
		}
		rep.Tenants = append(rep.Tenants, tr)
	}
	for p := numPriorities - 1; p >= 0; p-- { // highest class first
		a := agg[p]
		if !a.present {
			continue
		}
		lat := &f.prioLat[p]
		pr := PriorityReport{
			Priority:    Priority(p).String(),
			Arrivals:    a.arrivals,
			Rejected:    a.rejected,
			Completed:   a.completed,
			P50Ms:       ms(lat.P50()),
			P95Ms:       ms(lat.P95()),
			P99Ms:       ms(lat.P99()),
			GoodputRPS:  float64(a.sloOK) / f.cfg.DurationSec,
			Preemptions: a.preempted,
			Resumes:     a.resumes,
			StolenMs:    ms(a.stolen),
		}
		if a.arrivals > 0 {
			pr.SLOAttainment = float64(a.sloOK) / float64(a.arrivals)
		}
		rep.Priorities = append(rep.Priorities, pr)
	}
	rep.SwitchOverheadMs = ms(switchCycles)
	if f.fabric != nil {
		st := f.fabric.Stats(end)
		rep.LinkGBps = f.cfg.LinkGBps
		rep.Links = f.fabric.Links()
		rep.LinkMovedMB = float64(st.BytesMoved) / (1 << 20)
		rep.LinkPeakFlows = st.PeakActive
		rep.LinkCanceled = st.Canceled
		if n := f.fabric.Links(); n > 0 && end > 0 {
			rep.LinkUtil = st.BusyCycles / (end * float64(n))
		}
	}
	if f.faulted {
		rep.FaultEvents = len(f.cfg.Faults.Events)
		rep.FaultPolicy = "replay"
		rep.FaultFromSec = f.fwStart / freq
		if rc := f.cfg.Recover; rc != nil {
			rep.WarmSpares = rc.WarmSpares
			rep.EmergencySpawn = rc.EmergencySpawn
			rep.Evacuate = rc.Evacuate
		}
	}
	totalEUs := float64(f.cfg.Cores * (f.cfg.Core.MEs + f.cfg.Core.VEs))
	if end > 0 {
		rep.FleetEUUtil = busy / (end * totalEUs)
		rep.AllocatedEUFrac = f.allocArea / (end * totalEUs)
		rep.MeanStrandedEUs = f.strandArea / end
	}
	rep.MapAccepts = f.mapAccepts
	rep.MapRejects = f.mapRejects
	f.obsFinish(rep, end)
	return rep
}
