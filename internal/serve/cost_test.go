package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neu10/internal/arch"
	"neu10/internal/compiler"
	"neu10/internal/model"
	"neu10/internal/sched"
	"neu10/internal/workload"
)

// TestCostDBSingleFlightConcurrent drives the documented single-flight
// property under real concurrency (run with -race in CI): 32 goroutines
// racing on the SAME key must trigger exactly one measurement and all
// observe the identical value, while distinct keys measure
// independently — once each, however many lookups race.
func TestCostDBSingleFlightConcurrent(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	var measures atomic.Int64
	db.onMeasure = func(costKey) { measures.Add(1) }

	const racers = 32
	vals := make([]float64, racers)
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Batch 3 pads to 4: every racer resolves the same key.
			vals[i], errs[i] = db.cost(fullCost, "MNIST", 3, 0, 0, 2, 2)
		}(i)
	}
	wg.Wait()
	for i := 0; i < racers; i++ {
		if errs[i] != nil {
			t.Fatalf("racer %d: %v", i, errs[i])
		}
		if vals[i] != vals[0] {
			t.Fatalf("racer %d observed %v, racer 0 observed %v", i, vals[i], vals[0])
		}
	}
	if got := measures.Load(); got != 1 {
		t.Errorf("same key measured %d times under %d concurrent lookups, want exactly 1", got, racers)
	}

	// Distinct keys — different models, phases and shapes — racing
	// together: one measurement per key, no cross-talk.
	measures.Store(0)
	type query func() (float64, error)
	queries := []query{
		func() (float64, error) { return db.cost(fullCost, "MNIST", 8, 0, 0, 2, 2) },
		func() (float64, error) { return db.cost(fullCost, "DLRM", 8, 0, 0, 2, 2) },
		func() (float64, error) { return db.cost(prefillCost, "", 2, 32, 0, 2, 2) },
		func() (float64, error) { return db.cost(decodeCost, "", 2, 32, 0, 2, 2) },
	}
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := queries[i%len(queries)](); err != nil {
				t.Errorf("query %d: %v", i%len(queries), err)
			}
		}(i)
	}
	wg.Wait()
	if got := measures.Load(); got != int64(len(queries)) {
		t.Errorf("%d distinct keys measured %d times, want one each", len(queries), got)
	}
}

// TestProfileMemoMatchesGraph: the memo returns exactly the profile and
// footprint of the graph it stands for, for every registry model at
// every padded batch from 1 to 64 and for LLaMA, which it sums from a
// one-layer build, at every batch from 1 to 1024, on 1+1, 4+4 and 8+8
// cores, the last at 300 GB/s; it builds each (model, batch) once,
// caches an unknown model's error like a value, and adds nothing to
// Entries().
func TestProfileMemoMatchesGraph(t *testing.T) {
	base := arch.TPUv4Like()
	for _, core := range []arch.CoreConfig{base.WithEUs(1, 1), base, base.WithEUs(8, 8).WithHBMBandwidth(300e9)} {
		db := NewCostDB(core)
		builds := map[costKey]int{}
		db.onMeasure = func(k costKey) { builds[k]++ }
		cm := compiler.NewCostModel(core)
		for _, name := range model.Names() {
			last, pad := 64, PadBatch
			if name == llmModel {
				last, pad = 1024, func(b int) int { return b }
			}
			for batch := 1; batch <= last; batch++ {
				g, err := model.Build(name, pad(batch))
				if err != nil {
					t.Fatal(err)
				}
				prof, footprint, err := db.profile(name, pad(batch))
				if err != nil || prof != cm.ProfileGraph(g) || footprint != g.HBMFootprint {
					t.Errorf("%dME+%dVE %s batch %d: memo holds (%+v, %d, %v), the graph (%+v, %d)", core.MEs,
						core.VEs, name, batch, prof, footprint, err, cm.ProfileGraph(g), g.HBMFootprint)
				}
			}
		}
		for i := 0; i < 2; i++ {
			if _, _, err := db.profile("GPT7", 8); err == nil {
				t.Error("unknown model profiled")
			}
		}
		if want := (len(model.Names())-1)*7 + 1024 + 1; len(builds) != want {
			t.Errorf("%d keys built, want %d", len(builds), want)
		}
		for k, n := range builds {
			if n != 1 || k.nm != 0 || k.nv != 0 {
				t.Errorf("profile key %+v built %d times, want once with nm = nv = 0", k, n)
			}
		}
		if n := db.Entries(); n != 0 {
			t.Errorf("Entries() = %d after profiles alone, want 0", n)
		}
	}
}

// TestProfileMemoSharedAcrossRuns: runs sharing one database in parallel,
// as the experiment runner's workers do, build each tenant's profile
// once between them (CI runs this under -race), and report what each
// run reports on a database of its own.
func TestProfileMemoSharedAcrossRuns(t *testing.T) {
	const runs = 4
	db := NewCostDB(arch.TPUv4Like())
	var mu sync.Mutex
	builds := map[costKey]int{}
	db.onMeasure = func(k costKey) {
		if k.nm == 0 {
			mu.Lock()
			builds[k]++
			mu.Unlock()
		}
	}
	reps := make([][]byte, runs)
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := Run(fastConfig(uint64(i%2+1)), db)
			if err != nil {
				t.Error(err)
				return
			}
			reps[i], _ = json.Marshal(rep)
		}(i)
	}
	wg.Wait()
	want := map[costKey]int{
		{model: "MNIST", kind: fullCost, batch: 4}: 1,
		{model: "DLRM", kind: fullCost, batch: 8}:  1,
	}
	if len(builds) != len(want) {
		t.Errorf("profiles built %v, want %v", builds, want)
	}
	for k, n := range want {
		if builds[k] != n {
			t.Errorf("profile %+v built %d times across %d runs, want %d", k, builds[k], runs, n)
		}
	}
	for i, got := range reps {
		rep, err := Run(fastConfig(uint64(i%2+1)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if alone, _ := json.Marshal(rep); !bytes.Equal(got, alone) {
			t.Errorf("run %d on the shared database differs from its run alone", i)
		}
	}
}

// TestEntriesCountsOnlyCosts: Entries() counts cost entries alone. One
// simulated second of the llm-long benchmark's fleet (serve-paged's
// recompute leg at 4 rps) on a fresh database reads 5, the benchmark's
// serve.costdb.entries, with the tenant's LLaMA profile memoized beside
// them.
func TestEntriesCountsOnlyCosts(t *testing.T) {
	cfg := servePagedRecompute()
	cfg.DurationSec, cfg.Tenants[0].RatePerSec = 1, 4
	db := NewCostDB(cfg.Core)
	if _, err := Run(cfg, db); err != nil {
		t.Fatal(err)
	}
	if n := db.Entries(); n != 5 || len(db.profiles) != 1 {
		t.Errorf("Entries() = %d with %d profiles, want 5 and 1", n, len(db.profiles))
	}
}

// TestLLMCostBuckets pins the phase-key bucketing: batch and sequence
// both pad to powers of two, so lookups inside one bucket share an
// entry, and the two phases never alias.
func TestLLMCostBuckets(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	a, err := db.cost(decodeCost, "", 3, 33, 0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.cost(decodeCost, "", 4, 64, 0, 2, 2) // same padded bucket (4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("bucketed lookups disagree: %v vs %v", a, b)
	}
	pre, err := db.cost(prefillCost, "", 4, 64, 0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pre == b {
		t.Error("prefill and decode of the same shape priced identically — phases alias")
	}
	// Prefill processes 64 tokens/sequence; a decode step emits one. The
	// compute asymmetry must be reflected in the measured costs.
	if pre < b {
		t.Errorf("prefill (%v cycles) cheaper than one decode step (%v cycles)", pre, b)
	}
	if _, err := db.cost(decodeCost, "", 0, 64, 0, 2, 2); err == nil {
		t.Error("zero batch accepted")
	}
}

// TestCostDBEntryCapConcurrent drives the entry cap under real
// concurrency (run with -race in CI): 32 goroutines hammering far more
// distinct keys than the cap allows must never grow the cache past the
// bound, and every query's value must be identical across racers and
// repeats — an overflow key measures uncached, which is a pure
// function of the key, so the cap bounds memory without being able to
// change a single result (the repo's worker-count determinism
// guarantee survives the cap engaging).
func TestCostDBEntryCapConcurrent(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	const cap = 4
	db.maxEntries = cap
	var measures atomic.Int64
	db.onMeasure = func(costKey) { measures.Add(1) }

	// 12 distinct fine keys (batch buckets 1..32 across two splits) — 3×
	// the cap.
	type q struct{ batch, nm, nv int }
	var queries []q
	for _, b := range []int{1, 2, 4, 8, 16, 32} {
		queries = append(queries, q{b, 1, 1}, q{b, 2, 2})
	}
	const racers = 32
	vals := make([][]float64, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, query := range queries {
				v, err := db.cost(fullCost, "MNIST", query.batch, 0, 0, query.nm, query.nv)
				if err != nil {
					t.Errorf("query %+v: %v", query, err)
					return
				}
				vals[i] = append(vals[i], v)
			}
		}(i)
	}
	wg.Wait()
	if got := db.Entries(); got > cap {
		t.Errorf("cache grew to %d entries under a cap of %d", got, cap)
	}
	for i := 1; i < racers; i++ {
		for j := range vals[0] {
			if vals[i][j] != vals[0][j] {
				t.Fatalf("racer %d query %d observed %v, racer 0 observed %v — capped lookups are not pure",
					i, j, vals[i][j], vals[0][j])
			}
		}
	}
	// Overflow keys measure per query, so the hook must have fired more
	// often than the distinct-key count (the cap traded time, not
	// correctness), while the cache itself stayed bounded.
	if got := measures.Load(); got <= int64(len(queries)) {
		t.Errorf("only %d measurements for %d distinct keys across %d racers — the cap never engaged",
			got, len(queries), racers)
	}

	// The capped database must agree with an unbounded one on every
	// value (the cap cannot change results), and the unbounded one must
	// single-flight each distinct padded key exactly once.
	free := NewCostDB(arch.TPUv4Like())
	var count atomic.Int64
	free.onMeasure = func(costKey) { count.Add(1) }
	for round := 0; round < 2; round++ {
		for j, query := range queries {
			v, err := free.cost(fullCost, "MNIST", query.batch, 0, 0, query.nm, query.nv)
			if err != nil {
				t.Fatal(err)
			}
			if v != vals[0][j] {
				t.Errorf("query %+v: capped database returned %v, unbounded %v", query, vals[0][j], v)
			}
		}
	}
	if got := count.Load(); got != int64(len(queries)) {
		t.Errorf("uncapped database measured %d times for %d distinct keys", got, len(queries))
	}
}

// TestCostDBBatchBuckets pins whole-model batch bucketing: a batch
// pads to the next power of two at every size, so two batches in one
// bucket share an entry in every run regardless of arrival order, and
// neighbouring buckets never alias.
func TestCostDBBatchBuckets(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	var measures atomic.Int64
	db.onMeasure = func(costKey) { measures.Add(1) }
	cost := func(batch int) float64 {
		t.Helper()
		v, err := db.cost(fullCost, "MNIST", batch, 0, 0, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// 33 and 64 share the bucket 64; past it, 65 and 128 share 128,
	// which neither 64 nor 256 joins.
	if a, b := cost(33), cost(64); a != b || measures.Load() != 1 {
		t.Errorf("bucket 64 not shared: %v vs %v (%d measurements)", a, b, measures.Load())
	}
	measures.Store(0)
	if a, b := cost(65), cost(128); a != b || measures.Load() != 1 {
		t.Errorf("bucket 128 not shared: %v vs %v (%d measurements)", a, b, measures.Load())
	}
	if c := cost(128); c == cost(64) || c == cost(256) {
		t.Error("bucket 128 aliased a neighbouring bucket")
	}
}

// servePagedRecompute is the paged/recompute leg of the serve-paged
// scenario (experiments.ServePaged): multi-turn session traffic on two
// replicas with a tight paged KV partition and evict-recompute.
func servePagedRecompute() Config {
	return Config{
		Scenario:    "paged/recompute",
		Core:        arch.TPUv4Like(),
		Cores:       2,
		Router:      LeastLoaded,
		DurationSec: 8.0,
		Seed:        1,
		Tenants: []TenantConfig{{
			Name: "assistant", Model: "LLaMA", RatePerSec: 14, EUs: 4,
			MaxBatch: 16, QueueCap: 64, SLOMs: 3000,
			InitialReplicas: 2, MaxReplicas: 2,
			LLM: &LLMConfig{
				KVCapTokens: 1536,
				KVPolicy:    KVPaged,
				KVEvict:     KVEvictRecompute,
				Trace: workload.LLMTrace{
					PromptMin: 16, PromptMean: 32, PromptMax: 64,
					OutputMin: 4, OutputMean: 12, OutputMax: 32,
					Sessions: 10, SharedPrefixTokens: 96, MaxSessionTokens: 640,
				},
			},
		}},
	}
}

// TestLazyCostingOrderIndependent pins the property first-use costing
// relies on: which run measured an entry first never shows in a result.
// The paged run must render byte-identical JSON on a fresh database and
// on one already warmed by a disaggregated chaos run (an overlapping
// but different key set), and a rerun on the now-warm database must
// measure nothing.
func TestLazyCostingOrderIndependent(t *testing.T) {
	run := func(db *CostDB) []byte {
		t.Helper()
		rep, err := Run(servePagedRecompute(), db)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	fresh := run(NewCostDB(arch.TPUv4Like()))

	warm := NewCostDB(arch.TPUv4Like())
	if _, err := Run(chaosConfig(1, chaosFaults(), nil), warm); err != nil {
		t.Fatal(err)
	}
	if got := run(warm); !bytes.Equal(got, fresh) {
		t.Errorf("paged report differs on a chaos-warmed cost database:\n%s\nvs fresh\n%s", got, fresh)
	}

	measured := 0
	warm.onMeasure = func(costKey) { measured++ }
	if got := run(warm); !bytes.Equal(got, fresh) {
		t.Errorf("paged report differs on a rerun:\n%s\nvs fresh\n%s", got, fresh)
	}
	if measured != 0 {
		t.Errorf("rerun on a warm cost database measured %d new entries, want 0", measured)
	}
}

// TestCostingFailureIsRunError seeds a failed entry — its sync.Once
// already spent, its error set — for a key a launch will ask for, and
// requires Run to return an error wrapping it instead of panicking.
// For each config it fails, in turn, the first key of each invocation
// kind the run's launches measure, which together reach every costing site:
// dynamic batches, colocated prefill and decode (continuous, static and
// paged), and disaggregated chunked prefill.
func TestCostingFailureIsRunError(t *testing.T) {
	errBroken := errors.New("broken kernel")
	cases := []struct {
		name string
		cfg  Config
	}{
		{"dynamic", fastConfig(1)},
		{"llm-continuous", llmConfig(1, false)},
		{"llm-static", llmConfig(1, true)},
		{"llm-paged", pagedCfg(1, KVPaged, KVEvictRecompute)},
		{"llm-disagg", disaggConfig(1, 64, 0)},
	}
	for _, c := range cases {
		// newFleet measures the SLO anchors; what Run measures after
		// that is what its launches ask for, in first-use order.
		db := NewCostDB(c.cfg.Core)
		if _, err := newFleet(c.cfg, db); err != nil {
			t.Fatal(err)
		}
		var firsts []costKey
		seen := map[int]bool{}
		db.onMeasure = func(k costKey) {
			if !seen[k.kind] {
				seen[k.kind] = true
				firsts = append(firsts, k)
			}
		}
		if _, err := Run(c.cfg, db); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(firsts) == 0 {
			t.Fatalf("%s: no launch measured a cost entry", c.name)
		}
		for _, key := range firsts {
			bad := NewCostDB(c.cfg.Core)
			e := &costEntry{err: errBroken}
			e.once.Do(func() {})
			bad.entries[key] = e
			rep, err := Run(c.cfg, bad)
			if !errors.Is(err, errBroken) || rep != nil {
				t.Errorf("%s: failed entry %+v: Run returned (%v, %v), want a nil report and an error wrapping %q",
					c.name, key, rep != nil, err, errBroken)
			}
		}
	}
}

// TestCostTableMatchesCostDB: every cell of a finished run's cost
// tables equals a direct CostDB lookup of its shape, and the run's
// database holds exactly the entries its tables' cells name — newFleet's
// SLO anchors included, since they too are priced through a replica's
// table. A fresh database that looks up each cell's shape directly must
// end up with the same keys.
func TestCostTableMatchesCostDB(t *testing.T) {
	shape := func(ord int) int { // the smallest dimension with ordinal ord
		if ord == 0 {
			return 0
		}
		return 1 << (ord - 1)
	}
	for _, cfg := range []Config{fastConfig(1), sharedPoolConfig(1), llmConfig(1, true),
		pagedCfg(1, KVPaged, KVEvictSwap), disaggConfig(1, 64, 0)} {
		db := NewCostDB(cfg.Core)
		f := runFleet(t, cfg, db)
		direct := NewCostDB(cfg.Core)
		cells := 0
		for _, c := range f.tables {
			for kind, g := range c.grids {
				model := ""
				if kind >= fullCost {
					model = f.tenants[kind-fullCost].cfg.Model
				}
				for i, v := range g.cells {
					if v == 0 {
						continue
					}
					cells++
					b, s, x := i/(g.ns*g.nc), i/g.nc%g.ns, i%g.nc
					want, err := direct.cost(kind, model, shape(b), shape(s), shape(x), c.nm, c.nv)
					if err != nil || v != want {
						t.Errorf("%s: %dME+%dVE kind %d cell [%d][%d][%d] = %v, CostDB says %v (%v)",
							cfg.Scenario, c.nm, c.nv, kind, b, s, x, v, want, err)
					}
				}
			}
		}
		if cells == 0 {
			t.Errorf("%s: the run's cost tables hold no cell", cfg.Scenario)
		}
		if len(db.entries) != len(direct.entries) {
			t.Errorf("%s: the run measured %d entries, its table cells name %d",
				cfg.Scenario, len(db.entries), len(direct.entries))
		}
		for k := range db.entries {
			if direct.entries[k] == nil {
				t.Errorf("%s: the run measured %+v, which no table cell names", cfg.Scenario, k)
			}
		}
	}
}

// TestCutOffCostingIsError: a solo costing run that reaches the fluid
// simulator's cycle cap before its request completes is a costing
// error, not a 0-cycle entry. A tenant whose SLO anchor is such an
// entry fails its run at once; with a 0-cycle anchor its load-derived
// rate was infinite and Run never returned, so each run here is given
// 30 s before the test fails.
func TestCutOffCostingIsError(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	for _, q := range []struct {
		kind                  int
		name                  string
		batch, seq, ctx, m, v int
	}{
		{prefillCost, "", 64, 65536, 1 << 20, 1, 1},
		{fullCost, "RsNt", 1 << 28, 0, 0, 4, 4},
	} {
		if c, err := db.cost(q.kind, q.name, q.batch, q.seq, q.ctx, q.m, q.v); err == nil {
			t.Errorf("%+v: cost %v with no error, want a cut-off error", q, c)
		}
	}
	for _, tc := range []TenantConfig{
		{Name: "huge", Model: "RsNt", EUs: 4, MaxBatch: 1 << 28, RatePerSec: 100},
		{Name: "huge", Model: "RsNt", EUs: 4, MaxBatch: 1 << 28, Load: 0.5},
	} {
		cfg := Config{Scenario: "cutoff-test", Core: arch.TPUv4Like(), Cores: 1, DurationSec: 0.01,
			Seed: 1, Tenants: []TenantConfig{tc}}
		done := make(chan error, 1)
		go func() {
			_, err := Run(cfg, db)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("rate %v load %v: Run returned no error", tc.RatePerSec, tc.Load)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("rate %v load %v: Run did not return within 30 s", tc.RatePerSec, tc.Load)
		}
	}
}

// fullGraph builds the graph a cost entry stands for, apart from
// CostDB.measure: an LLM phase entry's graph LLMLayers deep, or a
// whole-model entry's registry graph.
func fullGraph(t *testing.T, key costKey) *compiler.Graph {
	t.Helper()
	switch key.kind {
	case prefillCost:
		return model.LLMPrefillChunk(key.batch, key.seq, key.ctx, model.LLMLayers)
	case decodeCost:
		return model.LLMDecode(key.batch, key.seq, model.LLMLayers)
	}
	g, err := model.Build(key.model, key.batch)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkEntryMatchesRun requires an entry of db to equal, bit for bit,
// the MeanLatency of a one-request NeuNH sched.Run of its key's full
// graph compiled for its vNPU, the reference sched.SoloLatency stands
// for.
func checkEntryMatchesRun(t *testing.T, db *CostDB, key costKey, cycles float64, label string) {
	t.Helper()
	sub, cg, err := db.compile(fullGraph(t, key), key.nm, key.nv)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Run(sched.Config{Core: sub, Policy: sched.NeuNH, Requests: 1},
		[]sched.TenantSpec{{Name: key.model, Graph: cg, MEs: key.nm, VEs: key.nv}})
	if err != nil {
		t.Fatalf("%s %+v: Run %v", label, key, err)
	}
	if want := res.Tenants[0].MeanLatency; math.Float64bits(cycles) != math.Float64bits(want) {
		t.Errorf("%s %+v: entry %v, sched.Run %v", label, key, cycles, want)
	}
}

// TestCostEntriesMatchRun: every entry a run measures matches its full
// graph's sched.Run (checkEntryMatchesRun).
func TestCostEntriesMatchRun(t *testing.T) {
	for _, cfg := range []Config{fastConfig(1), sharedPoolConfig(1), llmConfig(1, true),
		pagedCfg(1, KVPaged, KVEvictSwap), disaggConfig(1, 64, 0)} {
		db := NewCostDB(cfg.Core)
		if _, err := Run(cfg, db); err != nil {
			t.Fatal(err)
		}
		for key, e := range db.entries {
			if e.err != nil {
				t.Fatalf("%s %+v: %v", cfg.Scenario, key, e.err)
			}
			checkEntryMatchesRun(t, db, key, e.cycles, cfg.Scenario)
		}
		if len(db.entries) == 0 {
			t.Errorf("%s: the run measured no entry", cfg.Scenario)
		}
	}
}

// TestLLMCostGridMatchesRun: LLM phase entries across the shapes serving
// prices — prefill at batches 1–64, chunks 1–1024 and cached contexts
// 0–1024, decode at the same batches and at contexts 1–1024 — on 1+1,
// 2+2, 4+4, 1+3 and 3+1 vNPUs, 875 keys in all, each match their full
// graph's sched.Run (checkEntryMatchesRun).
func TestLLMCostGridMatchesRun(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	keys := 0
	check := func(kind, batch, seq, ctx, nm, nv int) {
		t.Helper()
		cycles, err := db.cost(kind, "", batch, seq, ctx, nm, nv)
		if err != nil {
			t.Fatal(err)
		}
		checkEntryMatchesRun(t, db, costKey{model: llmModel, kind: kind, batch: batch, seq: seq, ctx: ctx,
			nm: nm, nv: nv}, cycles, "grid")
		keys++
	}
	for _, split := range [][2]int{{1, 1}, {2, 2}, {4, 4}, {1, 3}, {3, 1}} {
		for batch := 1; batch <= 64; batch *= 2 {
			for _, seq := range []int{1, 8, 64, 512, 1024} {
				for _, ctx := range []int{0, 1, 32, 1024} {
					check(prefillCost, batch, seq, ctx, split[0], split[1])
				}
				check(decodeCost, batch, seq, 0, split[0], split[1])
			}
		}
	}
	if n := db.Entries(); keys != 875 || n != keys {
		t.Errorf("checked %d keys and the database holds %d, want 875 of each", keys, n)
	}
}

// TestCostDBLLMAllocBudget: on a fresh CostDB, one prefill entry, one
// decode entry and the serving LLM's profile allocate under 32 KB
// together (22 KB on linux/amd64). Building a phase graph 40 layers
// deep allocates 36 KB, and the 2888-op registry LLaMA 289 KB, so
// serving that builds either fails it. The least of three tries
// counts, so an allocation the runtime makes meanwhile cannot fail it.
func TestCostDBLLMAllocBudget(t *testing.T) {
	const budget = 32 << 10
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		db := NewCostDB(arch.TPUv4Like())
		_, perr := db.cost(prefillCost, "", 8, 64, 0, 2, 2)
		_, derr := db.cost(decodeCost, "", 8, 512, 0, 2, 2)
		_, _, lerr := db.profile(llmModel, 8)
		runtime.ReadMemStats(&after)
		if err := errors.Join(perr, derr, lerr); err != nil {
			t.Fatal(err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > budget {
		t.Errorf("a prefill entry, a decode entry and the LLaMA profile allocated %d bytes, budget %d", least, budget)
	}
}
