package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"runtime"

	"neu10/internal/experiments"
	"neu10/internal/obs"
	"neu10/internal/sched"
	"neu10/internal/serve"
	"neu10/internal/workload"
)

// The four workloads. Each one puts almost all of its host time into a
// different layer of the simulator, so a change to one layer shows on
// the workload that exercises it and reads flat on the others:
//
//   - paper: the fluid scheduler (sched), through the figure sweeps;
//   - serve-cold: CostDB measurement, the cold start every serving CLI
//     invocation pays;
//   - llm-long: the serve event loop and the paged KV backend, with the
//     CostDB warm;
//   - chaos-obs: the observability collectors and their exports, with
//     the KV layer on its other path (legacy accountant, migrations).

// paperIDs are the paper's figures and tables plus the ablation, SLO and
// cluster studies: everything neu10-bench regenerates except the
// serving scenarios.
var paperIDs = []string{
	"fig2", "fig4", "fig5", "fig7", "fig12", "fig16",
	"fig19", "fig20", "fig21", "fig22", "fig23", "table3",
	"fig24", "fig25", "fig26", "fig27",
	"ablation-harvest", "ablation-preempt", "slo", "cluster",
}

// serveIDs are the serving scenarios; serve-chaos-traced is serve-chaos
// plus flags and is left out.
var serveIDs = []string{
	"serve-steady", "serve-flash", "serve-mix", "serve-priority", "serve-llm",
	"serve-disagg", "serve-chaos", "serve-consolidate", "serve-paged", "serve-attrib",
}

// seedOneScenarios assert claims that hold at seed 1 but not at every
// seed: serve-consolidate's 0.95 attainment floor fails on most seeds
// from 2 to 40, and serve-paged's paged-beats-reserve check on seeds 15
// and 37. They always run at seed 1, so that no seed makes an op fail.
var seedOneScenarios = map[string]bool{"serve-consolidate": true, "serve-paged": true}

// sizes scales the workloads; the smoke test shrinks them.
type sizes struct {
	paperIDs   []string // experiment ids one paper pass regenerates
	serveIDs   []string // experiment ids one serve-cold pass runs
	llmLongSec float64  // simulated seconds of one llm-long serve.Run
	chaosSec   float64  // simulated seconds of one chaos-obs serve.Run
	minPasses  int      // timed passes run even after --seconds has elapsed
	setupReps  int      // fresh set-ups timed for setup_s, at least
	setupSec   float64  // host seconds of set-up repetitions, at least
}

func fullSizes() sizes {
	return sizes{
		paperIDs:   paperIDs,
		serveIDs:   serveIDs,
		llmLongSec: 125_000, // ≈500k requests at 4 rps
		chaosSec:   1200,    // ≈28.7k requests at 24 rps
		minPasses:  3,
		setupReps:  5,
		setupSec:   1,
	}
}

type workloadDef struct {
	name string
	// setup is one repetition of the work done before the first timed
	// pass; the run reports the median repetition as setup_s.
	setup func(b *bench) error
	// pass is one timed pass. It returns the digest of everything the
	// pass produced; every pass of a run must return the same one.
	pass func(b *bench) string
}

func workloadDefs() []workloadDef {
	return []workloadDef{
		{"paper", compileSetup, paperPass},
		{"serve-cold", runnerSetup, serveColdPass},
		{"llm-long", llmLongSetup, llmLongPass},
		{"chaos-obs", chaosSetup, chaosPass},
	}
}

// figureOpts are the runner options of the paper and serve-cold passes:
// one worker, so a pass measures the program and not the pool.
func (b *bench) figureOpts() experiments.Options {
	opts := experiments.DefaultOptions()
	opts.Workers = 1
	opts.ServeSeed = b.seed
	return opts
}

// compileSetup compiles the pair-study graph set on a fresh cache: the
// compiler cold start a paper regeneration pays before it simulates.
func compileSetup(b *bench) error {
	comp, err := workload.NewCompiled(b.core)
	if err != nil {
		return err
	}
	for _, p := range workload.Pairs() {
		for _, pol := range experiments.Policies() {
			if _, err := comp.Tenants(p, pol, b.core.MEs/2, b.core.VEs/2); err != nil {
				return fmt.Errorf("compiling %s for %s: %w", p.Name(), pol, err)
			}
		}
	}
	return nil
}

// runnerSetup builds the fresh runner a serving scenario starts from: all
// a `neu10-serve -scenario X` call does before the scenario runs. Every
// serve-cold pass starts that cold, so this is its only set-up.
func runnerSetup(b *bench) error {
	_, err := experiments.NewRunner(b.figureOpts())
	return err
}

// llmLongSetup measures a fresh CostDB by serving one simulated second of
// the llm-long trace: what `neu10-serve -scenario paged` pays before its
// steady state. The last repetition's database serves the timed passes.
func llmLongSetup(b *bench) error {
	b.db = nil
	return b.warm(llmLongConfig(b.seed, 1, serve.KVPaged))
}

// chaosSetup is llmLongSetup for the chaos-obs fleet.
func chaosSetup(b *bench) error {
	b.db = nil
	return b.warm(chaosConfig(b.seed, 1, nil))
}

// warm makes b.db hold every cost one simulated second of cfg measures,
// which for both serve workloads is every cost their full runs need.
func (b *bench) warm(cfg serve.Config) error {
	if b.db == nil {
		b.db = serve.NewCostDB(b.core)
		b.warmed = map[string]bool{}
	}
	if b.warmed[cfg.Scenario] {
		return nil
	}
	if _, err := serve.Run(cfg, b.db); err != nil {
		return fmt.Errorf("warm-up %s: %w", cfg.Scenario, err)
	}
	b.warmed[cfg.Scenario] = true
	return nil
}

// llmLongConfig is serve-paged's recompute leg at 4 rps for a long
// horizon: 2 chips, 10 sessions over a 96-token shared prefix, a
// 1536-token KV partition per replica. 4 rps keeps attainment near 94%;
// serve-paged's own 14 rps grows an unbounded backlog over long runs.
func llmLongConfig(seed uint64, durSec float64, kvPolicy string) serve.Config {
	evict := serve.KVEvictRecompute
	if kvPolicy != serve.KVPaged {
		evict = ""
	}
	return serve.Config{
		Scenario:    "llm-long/" + kvPolicy,
		Core:        experiments.DefaultOptions().Core,
		Cores:       2,
		Router:      serve.LeastLoaded,
		DurationSec: durSec,
		Seed:        seed,
		Tenants: []serve.TenantConfig{{
			Name: "assistant", Model: "LLaMA", RatePerSec: 4, EUs: 4,
			MaxBatch: 16, QueueCap: 64, SLOMs: 3000,
			InitialReplicas: 2, MaxReplicas: 2,
			LLM: &serve.LLMConfig{
				KVCapTokens: 1536,
				KVPolicy:    kvPolicy,
				KVEvict:     evict,
				Trace: workload.LLMTrace{
					PromptMin: 16, PromptMean: 32, PromptMax: 64,
					OutputMin: 4, OutputMean: 12, OutputMax: 32,
					Sessions: 10, SharedPrefixTokens: 96, MaxSessionTokens: 640,
				},
			},
		}},
	}
}

// timelineMs is the timeline sampling period of the chaos-obs pass, ten
// times the 10 ms default. At the default the retained timelines make up
// most of the heap, and the pass's peak resident set then depends on
// where the collector's heap goal falls: it ranges over ±20% across
// identical passes, and its allocations jump by up to 15% from one seed
// to the next. The traced run prices the collector at the default period
// as obs.timelines_10ms_x.
const timelineMs = 100

// allObs switches every collector on.
var allObs = &serve.ObsConfig{Trace: true, Timelines: true, Attrib: true, SampleEveryMs: timelineMs}

// chaosConfig is serve-chaos's fault+recover leg: 8 chips, a
// disaggregated 2P+2D LLaMA tenant, a decode-replica crash, a pod
// outage and a link degradation, with warm spares, emergency spawns and
// evacuation.
func chaosConfig(seed uint64, durSec float64, o *serve.ObsConfig) serve.Config {
	return serve.Config{
		Scenario:    "chaos-obs",
		Core:        experiments.DefaultOptions().Core,
		Cores:       8,
		Router:      serve.LeastLoaded,
		DurationSec: durSec,
		Seed:        seed,
		Obs:         o,
		Autoscale:   true,
		Faults: &serve.FaultPlan{Events: []serve.FaultEvent{
			{Kind: serve.FaultCrashReplica, AtFrac: 0.35, Tenant: "assistant", Role: serve.RoleDecode},
			{Kind: serve.FaultPodOutage, AtFrac: 0.52, Chips: []int{0, 1}},
			{Kind: serve.FaultLinkDegrade, AtFrac: 0.55, Scale: 1.0 / 16, UntilFrac: 0.72},
		}},
		Recover: &serve.RecoveryConfig{WarmSpares: 1, EmergencySpawn: true, Evacuate: true},
		Tenants: []serve.TenantConfig{{
			Name: "assistant", Model: "LLaMA", RatePerSec: 24, EUs: 4,
			MaxBatch: 4, QueueCap: 64, SLOMs: 2000,
			InitialReplicas: 4, MaxReplicas: 8,
			LLM: &serve.LLMConfig{
				Trace: workload.LLMTrace{
					PromptMin: 16, PromptMean: 32, PromptMax: 64,
					PromptLongFrac: 0.25, PromptLongMin: 128, PromptLongMean: 192, PromptLongMax: 256,
					OutputMin: 6, OutputMean: 12, OutputMax: 24,
				},
				Disagg: &serve.DisaggConfig{
					PrefillReplicas: 2, MaxPrefill: 3,
					DecodeReplicas: 2, MaxDecode: 4,
					ChunkTokens: 64,
				},
			},
		}},
	}
}

// paperPass regenerates every paper id on a fresh runner, booking each
// id's host time as a per-layer metric.
func paperPass(b *bench) string {
	h := sha256.New()
	r, err := experiments.NewRunner(b.figureOpts())
	if err != nil {
		b.ops++
		b.fail("runner: %v", err)
		return "error"
	}
	for _, id := range b.sz.paperIDs {
		b.ops++
		s := b.sp.begin("experiments", "Runner.Run "+id)
		res, err := r.Run(id)
		b.addExperiment(id, b.sp.end(s))
		if err != nil {
			b.fail("%s: %v", id, err)
			fmt.Fprintf(h, "%s: error\n", id)
			continue
		}
		fmt.Fprintf(h, "%s\n%s", id, res.Table())
		b.host.tick()
		if ps, ok := res.(*experiments.PairStudyResult); ok && id == "fig19" {
			b.paperModeled(ps)
		}
	}
	return sum(h)
}

// paperModeled records the headline claims as the model reproduces
// them: the best Neu10-over-PMT throughput gain and p95 reduction of any
// workload in the nine pairs (the paper reports up to 1.4× and 4.6×).
func (b *bench) paperModeled(ps *experiments.PairStudyResult) {
	type pt struct{ pmt, neu10 experiments.PairMetrics }
	by := map[string]*pt{}
	for _, m := range ps.Metrics {
		p := by[m.Pair.Name()]
		if p == nil {
			p = &pt{}
			by[m.Pair.Name()] = p
		}
		switch m.Policy {
		case sched.PMT:
			p.pmt = m
		case sched.Neu10:
			p.neu10 = m
		}
	}
	var tput, tail float64
	for _, p := range by {
		for w := 0; w < 2; w++ {
			if p.pmt.Throughput[w] > 0 {
				tput = max(tput, p.neu10.Throughput[w]/p.pmt.Throughput[w])
			}
			if p.neu10.P95[w] > 0 {
				tail = max(tail, p.pmt.P95[w]/p.neu10.P95[w])
			}
		}
	}
	b.modeled["paper_tput_x"] = tput
	b.modeled["paper_tput_err"] = tput/1.4 - 1
	b.modeled["paper_tail_x"] = tail
	b.modeled["paper_tail_err"] = tail/4.6 - 1
}

// serveColdPass runs every serving scenario on its own fresh runner, as
// one `neu10-serve -scenario X` invocation does.
func serveColdPass(b *bench) string {
	h := sha256.New()
	for _, id := range b.sz.serveIDs {
		b.ops++
		out, err := b.serveScenario(nil, id)
		if err != nil {
			b.fail("%s: %v", id, err)
			fmt.Fprintf(h, "%s: error\n", id)
			continue
		}
		h.Write(out)
		b.host.tick()
	}
	return sum(h)
}

// serveRunner is a fresh runner for one serving scenario.
func (b *bench) serveRunner(id string) (*experiments.Runner, error) {
	opts := b.figureOpts()
	if seedOneScenarios[id] {
		opts.ServeSeed = 1
	}
	return experiments.NewRunner(opts)
}

// serveScenario runs one serving scenario on r (a fresh runner when nil)
// and returns its tables and report JSON.
func (b *bench) serveScenario(r *experiments.Runner, id string) ([]byte, error) {
	if r == nil {
		var err error
		if r, err = b.serveRunner(id); err != nil {
			return nil, err
		}
	}
	res, err := r.Run(id)
	if err != nil {
		return nil, err
	}
	sr, ok := res.(*experiments.ServeResult)
	if !ok {
		return nil, fmt.Errorf("%s returned %T, not a serving result", id, res)
	}
	js, err := json.Marshal(sr.Reports)
	if err != nil {
		return nil, err
	}
	return append([]byte(id+"\n"+res.Table()), js...), nil
}

// llmLongPass serves the long paged-KV trace on the warm CostDB and
// books the serve loop's and the KV backend's per-layer metrics.
func llmLongPass(b *bench) string {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ops++
	s := b.sp.begin("serve", "serve.Run llm-long")
	rep, err := serve.Run(llmLongConfig(b.seed, b.sz.llmLongSec, serve.KVPaged), b.db)
	d := b.sp.end(s)
	if err != nil {
		b.fail("llm-long: %v", err)
		return "error"
	}
	runtime.ReadMemStats(&m1)
	t := rep.Tenants[0]
	n := float64(t.Arrivals)
	b.layer["serve.loop.ns_per_req"] = d * 1e9 / n
	b.layer["serve.loop.allocs_per_req"] = float64(m1.Mallocs-m0.Mallocs) / n
	b.layer["serve.loop.bytes_per_req"] = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	kv := t.LLM.KVStats
	b.layer["serve.kv.peak_seqs"] = float64(kv.PeakSeqs)
	b.layer["serve.kv.evictions"] = float64(kv.Evictions)
	b.layer["serve.kv.recompute_tokens"] = float64(kv.RecomputeTokens)
	b.layer["serve.kv.prefix_hit_rate"] = kv.PrefixHitRate
	b.layer["serve.kv.stalls"] = float64(kv.KVStalls)
	b.layer["serve.kv.occ_mean"] = kv.KVOccMean
	b.modeled["sim_goodput_rps"] = t.GoodputRPS
	b.modeled["sim_slo_attain"] = t.SLOAttainment
	b.modeled["sim_ttft_p99_ms"] = t.LLM.TTFTP99Ms
	b.modeled["sim_tpot_p99_ms"] = t.LLM.TPOTP99Ms
	h := sha256.New()
	io.WriteString(h, rep.Table())
	if err := json.NewEncoder(h).Encode(rep); err != nil {
		b.fail("llm-long report JSON: %v", err)
	}
	return sum(h)
}

// chaosPass serves the chaos trace with every collector on, then
// streams the Perfetto trace, the timelines CSV and the ledger CSV into
// the pass digest, booking the observability layer's per-layer metrics.
func chaosPass(b *bench) string {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ops++
	s := b.sp.begin("serve", "serve.Run chaos-obs")
	rep, err := serve.Run(chaosConfig(b.seed, b.sz.chaosSec, allObs), b.db)
	d := b.sp.end(s)
	if err != nil {
		b.fail("chaos-obs: %v", err)
		return "error"
	}
	runtime.ReadMemStats(&m1)
	b.obsAll = obsRun{sec: d, mallocs: float64(m1.Mallocs - m0.Mallocs)}
	b.host.tick()
	if v := rep.Ledger.Violations(); v != 0 {
		b.fail("chaos-obs: %d ledger conservation violations", v)
	}
	t := rep.Tenants[0]
	b.modeled["sim_goodput_rps"] = t.GoodputRPS
	b.modeled["sim_slo_attain"] = t.SLOAttainment
	b.modeled["sim_ttft_p99_ms"] = t.LLM.TTFTP99Ms
	b.modeled["sim_fault_attain"] = t.FaultAttainment

	h := sha256.New()
	cw := &countingWriter{w: h}
	exports := []struct {
		name, metric string
		write        func(io.Writer) error
	}{
		{"obs.WriteChromeAll", "obs.export_chrome_s", func(w io.Writer) error {
			return obs.WriteChromeAll(w, []*obs.Tracer{rep.Trace})
		}},
		{"obs.WriteCSVAll", "obs.export_timelines_s", func(w io.Writer) error {
			return obs.WriteCSVAll(w, []*obs.TimelineSet{rep.Timelines})
		}},
		{"obs.WriteLedgerCSVAll", "obs.export_ledger_s", func(w io.Writer) error {
			return obs.WriteLedgerCSVAll(w, []*obs.Ledger{rep.Ledger})
		}},
	}
	for _, e := range exports {
		s := b.sp.begin("obs", e.name)
		err := e.write(cw)
		d := b.sp.end(s)
		if err != nil {
			b.fail("chaos-obs %s: %v", e.name, err)
		}
		b.layer[e.metric] = d
		b.host.tick()
	}
	b.layer["obs.export_mb"] = float64(cw.n) / 1e6
	b.layer["obs.trace_events"] = float64(rep.Trace.Len())
	b.layer["obs.ledger_reqs"] = float64(len(rep.Ledger.Completed()))
	b.layer["obs.ledger_violations"] = float64(rep.Ledger.Violations())
	io.WriteString(h, rep.Table())
	io.WriteString(h, rep.AttribTable())
	// The timelines are in the digest already, as CSV.
	lean := *rep
	lean.Timelines = nil
	if err := json.NewEncoder(h).Encode(&lean); err != nil {
		b.fail("chaos-obs report JSON: %v", err)
	}
	return sum(h)
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }
