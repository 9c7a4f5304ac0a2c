package serve

import (
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"neu10/internal/arch"
	"neu10/internal/obs"
	"neu10/internal/sim"
)

// attribOn clones a config with the attribution ledger enabled.
func attribOn(cfg Config) Config {
	o := ObsConfig{}
	if cfg.Obs != nil {
		o = *cfg.Obs
	}
	o.Attrib = true
	cfg.Obs = &o
	return cfg
}

// verifyLedger re-derives both conservation laws from the raw records,
// independently of the in-sim checks the ledger runs itself:
//
//   - per request: the exclusive segments sum EXACTLY — strict float64
//     equality, no epsilon — to completion − arrival (both laws ride on
//     integral sim.Time stamps below 2^53, so every sum is exact);
//   - per replica: the cycle buckets sum exactly to retire − spawn;
//   - fleet-wide: every admitted request is either a completed record
//     or a recorded drop, and nothing is left open after the drain.
func verifyLedger(t *testing.T, label string, rep *Report) {
	t.Helper()
	led := rep.Ledger
	if led == nil {
		t.Fatalf("%s: attribution enabled but the report carries no ledger", label)
	}
	if v := led.Violations(); v != 0 {
		t.Errorf("%s: %d conservation violations", label, v)
	}
	if open := led.Open(); open != 0 {
		t.Errorf("%s: %d requests still open after the drain", label, open)
	}
	for _, r := range led.Completed() {
		var sum float64
		for _, v := range r.Seg {
			sum += v
		}
		if sum != r.Done-r.Arrive {
			t.Errorf("%s: req %s#%d segments sum to %v cycles, lifetime is %v",
				label, r.Proc, r.ID, sum, r.Done-r.Arrive)
		}
	}
	for _, r := range led.Replicas() {
		var sum float64
		for _, v := range r.Buckets {
			sum += v
		}
		if sum != r.Lifetime() {
			t.Errorf("%s: replica %s#%d buckets sum to %v cycles, lifetime is %v",
				label, r.Proc, r.UID, sum, r.Lifetime())
		}
	}
	admitted, completed := 0, 0
	for _, tr := range rep.Tenants {
		admitted += tr.Arrivals - tr.Rejected
		completed += tr.Completed
	}
	if got := len(led.Completed()); got != completed {
		t.Errorf("%s: ledger holds %d completions, reports say %d", label, got, completed)
	}
	if got := len(led.Completed()) + led.Drops(); got != admitted {
		t.Errorf("%s: %d admitted requests but %d completed + %d dropped in the ledger",
			label, admitted, len(led.Completed()), led.Drops())
	}
	cl := rep.CycleLedger
	if cl == nil {
		t.Fatalf("%s: no cycle-ledger section", label)
	}
	var buckets float64
	for _, v := range cl.BucketsMs {
		buckets += v
	}
	if diff := buckets - cl.CapacityMs; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("%s: Σ buckets %.9f ms ≠ capacity %.9f ms", label, buckets, cl.CapacityMs)
	}
}

// TestAttribConservation is the tentpole property test: across seeds ×
// every serving mode — single-shot dynamic batching with autoscaling,
// continuous and static LLM batching, both paged-KV eviction policies,
// preemptive priority sharing, disaggregation, and chaos with crashes,
// a pod outage and link degradation, with and without recovery — both
// conservation laws must hold exactly and the scenario must leave
// nothing unaccounted.
func TestAttribConservation(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	for seed := uint64(1); seed <= 3; seed++ {
		cases := []struct {
			label string
			cfg   Config
		}{
			{"fast", fastConfig(seed)},
			{"llm-continuous", llmConfig(seed, false)},
			{"llm-static", llmConfig(seed, true)},
			{"paged-recompute", pagedCfg(seed, KVPaged, KVEvictRecompute)},
			{"paged-swap", pagedCfg(seed, KVPaged, KVEvictSwap)},
			{"priority-preempt", priorityConfig(seed, true)},
			{"disagg", disaggConfig(seed, 1, 640)},
			{"chaos-recover", chaosConfig(seed, chaosFaults(),
				&RecoveryConfig{WarmSpares: 1, EmergencySpawn: true, Evacuate: true})},
			{"chaos-norecover", chaosConfig(seed, chaosFaults(), nil)},
		}
		for _, c := range cases {
			rep, err := Run(attribOn(c.cfg), db)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.label, seed, err)
			}
			verifyLedger(t, c.label, rep)
		}
	}
}

// TestAttribZeroOverhead is the ledger half of the zero-overhead
// contract: enabling attribution must leave the pre-existing report —
// every table byte and every legacy JSON field — byte-identical, and a
// disabled run must carry no attribution artifacts at all.
func TestAttribZeroOverhead(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	for _, c := range []struct {
		label string
		cfg   Config
	}{
		{"fast", fastConfig(7)},
		{"llm", llmConfig(2, false)},
		{"paged-swap", pagedCfg(2, KVPaged, KVEvictSwap)},
		{"chaos", chaosConfig(1, chaosFaults(),
			&RecoveryConfig{WarmSpares: 1, EmergencySpawn: true, Evacuate: true})},
	} {
		plain, err := Run(c.cfg, db)
		if err != nil {
			t.Fatal(err)
		}
		attrib, err := Run(attribOn(c.cfg), db)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Table() != attrib.Table() {
			t.Errorf("%s: the ledger changed the report table:\n--- off ---\n%s\n--- on ---\n%s",
				c.label, plain.Table(), attrib.Table())
		}
		if plain.Ledger != nil || plain.CycleLedger != nil {
			t.Errorf("%s: disabled run carries attribution artifacts", c.label)
		}
		if plain.AttribTable() != "" {
			t.Errorf("%s: disabled run renders an attribution table", c.label)
		}
		data, err := json.Marshal(plain)
		if err != nil {
			t.Fatal(err)
		}
		for _, leak := range []string{"attrib", "cycle_ledger"} {
			if strings.Contains(string(data), leak) {
				t.Errorf("%s: disabled run leaks %q into JSON", c.label, leak)
			}
		}
		for _, tr := range plain.Tenants {
			if tr.Attrib != nil {
				t.Errorf("%s: disabled run carries tenant attribution", c.label)
			}
		}
	}
}

// TestAttribDeterminism: the same seed must reproduce the attribution
// tables and the raw ledger CSV byte-for-byte.
func TestAttribDeterminism(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	export := func() (string, string) {
		rep, err := Run(attribOn(pagedCfg(2, KVPaged, KVEvictSwap)), db)
		if err != nil {
			t.Fatal(err)
		}
		var csv strings.Builder
		if err := obs.WriteLedgerCSVAll(&csv, []*obs.Ledger{rep.Ledger}); err != nil {
			t.Fatal(err)
		}
		return rep.AttribTable(), csv.String()
	}
	tbl1, csv1 := export()
	tbl2, csv2 := export()
	if tbl1 != tbl2 {
		t.Error("attribution table is not deterministic")
	}
	if csv1 != csv2 {
		t.Error("ledger CSV export is not deterministic")
	}
	if len(tbl1) == 0 || len(csv1) <= len(obs.LedgerCSVHeader) {
		t.Fatal("empty attribution exports")
	}
}

// TestAttribTableShape pins the rendered attribution sections: cohort
// rows (with the "all" cohort and tail cohorts), worst-request
// drilldowns, and the cycle-ledger conservation line.
func TestAttribTableShape(t *testing.T) {
	rep, err := Run(attribOn(llmConfig(1, false)), db(t))
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.AttribTable()
	for _, want := range []string{
		"attrib tenant", "all", "p99_e2e",
		"worst req tenant", "dominant",
		"cycle ledger:", "0 violations, 0 open",
	} {
		if !strings.Contains(tbl, want) {
			t.Errorf("attribution table missing %q:\n%s", want, tbl)
		}
	}
	ten := rep.Tenants[0]
	if ten.Attrib == nil || ten.Attrib.Completed == 0 {
		t.Fatal("no tenant attribution recorded")
	}
	// Cohort means are exact: the per-request law lifts to every mean.
	for _, c := range ten.Attrib.Cohorts {
		var sum float64
		for _, v := range c.Segments {
			sum += v
		}
		if diff := sum - c.MeanMs; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("cohort %s: segment means sum to %.12f ms, mean e2e is %.12f",
				c.Cohort, sum, c.MeanMs)
		}
	}
	if len(ten.Attrib.Worst) == 0 {
		t.Fatal("no worst-request drilldowns")
	}
	for _, w := range ten.Attrib.Worst {
		if w.DominantFrac <= 0 || w.DominantFrac > 1 {
			t.Errorf("req %d: dominant share %v out of (0, 1]", w.Req, w.DominantFrac)
		}
	}
}

// db builds a throwaway cost database.
func db(t *testing.T) *CostDB {
	t.Helper()
	return NewCostDB(arch.TPUv4Like())
}

// TestAttribSelectionMatchesSort: the tail threshold and the worst-five
// drilldown that attribFinish selects in one pass each equal what a
// full sort yields, on random latencies heavy with ties (the p99 cohort
// and the ID tie-break both see them) at every size up to 300.
func TestAttribSelectionMatchesSort(t *testing.T) {
	rng := sim.NewRNG(7)
	for n := 1; n <= 300; n++ {
		recs := make([]*obs.ReqRecord, n)
		vals := make([]float64, n)
		for i := range recs {
			e2e := float64(1 + rng.Intn(n/3+1)) // many ties
			recs[i] = &obs.ReqRecord{ID: int64(rng.Intn(1 << 20)), Arrive: 100, Done: 100 + e2e}
			recs[i].ID = recs[i].ID<<9 | int64(i) // unique
			vals[i] = e2e
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		for _, k := range []int{0, n / 2, (n*99+99)/100 - 1, n - 1} {
			if got := kthSmallest(append([]float64(nil), vals...), k); got != sorted[k] {
				t.Fatalf("n=%d k=%d: selected %v, sort says %v", n, k, got, sorted[k])
			}
		}
		byE2E := append([]*obs.ReqRecord(nil), recs...)
		sort.Slice(byE2E, func(a, b int) bool {
			if byE2E[a].E2E() != byE2E[b].E2E() {
				return byE2E[a].E2E() > byE2E[b].E2E()
			}
			return byE2E[a].ID < byE2E[b].ID
		})
		var worst [5]*obs.ReqRecord
		got := worstFirst(recs, worst[:0])
		if want := byE2E[:min(n, 5)]; len(got) != len(want) {
			t.Fatalf("n=%d: %d worst, want %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != byE2E[i] {
				t.Fatalf("n=%d: worst[%d] is req %d (%v), sort says req %d (%v)",
					n, i, got[i].ID, got[i].E2E(), byE2E[i].ID, byE2E[i].E2E())
			}
		}
	}
}
