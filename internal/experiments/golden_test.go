package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"neu10/internal/obs"
	"neu10/internal/serve"
)

// goldenServe maps every serving scenario to its snapshot files. Table
// snapshots cover the whole scenario surface; JSON is additionally
// pinned for one single-leg and one multi-leg scenario (that locks the
// encoding, without duplicating every number a second time). Regenerate
// with NEU10_UPDATE_GOLDEN=1 go test ./internal/experiments/ -run Golden
// — but only when an output change is intended and reviewed.
var goldenServe = []struct {
	id    string
	table string
	json  string
}{
	{"serve-steady", "golden_serve_steady.txt", "golden_serve_steady.json"},
	{"serve-flash", "golden_serve_flash.txt", ""},
	{"serve-mix", "golden_serve_mix.txt", ""},
	{"serve-priority", "golden_serve_priority.txt", ""},
	{"serve-llm", "golden_serve_llm.txt", "golden_serve_llm.json"},
	{"serve-disagg", "golden_serve_disagg.txt", ""},
	{"serve-chaos", "golden_serve_chaos.txt", ""},
	{"serve-consolidate", "golden_serve_consolidate.txt", ""},
	// JSON pinned too: serve-paged is where the extended KVStats fields
	// (kv_policy, kv_peak_seqs, eviction and prefix-cache counters)
	// first marshal, so this snapshot locks their encoding.
	{"serve-paged", "golden_serve_paged.txt", "golden_serve_paged.json"},
	// JSON pinned too: serve-attrib is where the attribution fields
	// (attrib cohorts/worst drilldowns, cycle_ledger) first marshal, so
	// this snapshot locks their encoding.
	{"serve-attrib", "golden_serve_attrib.txt", "golden_serve_attrib.json"},
}

// TestGoldenServeReports pins the serving output surface end to end:
// with observability off (the default), every scenario's tables — and
// the pinned JSON reports — must be byte-identical to the committed
// snapshots (testdata/golden_serve_*). A diff means a refactor or an
// instrumentation change perturbed the simulation or the report
// encoding; these snapshots are the safety net behind-the-scenes
// restructuring (and the obs zero-overhead contract) is checked
// against.
func TestGoldenServeReports(t *testing.T) {
	update := os.Getenv("NEU10_UPDATE_GOLDEN") != ""
	r, err := NewRunner(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	check := func(name, got string) {
		t.Helper()
		path := filepath.Join("testdata", name)
		if update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := string(data); got != want {
			t.Errorf("%s diverged:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
		}
	}
	for _, g := range goldenServe {
		res, err := r.Run(g.id)
		if err != nil {
			t.Fatal(err)
		}
		check(g.table, res.Table())
		if g.json == "" {
			continue
		}
		sr := res.(*ServeResult)
		data, err := json.MarshalIndent(sr.Reports, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		check(g.json, string(data)+"\n")
	}
}

// goldenObsScenarios are the serving scenarios whose observability
// exports are digest-locked in testdata/golden_obs.sha256.
var goldenObsScenarios = []string{
	"serve-steady", "serve-priority", "serve-llm", "serve-disagg", "serve-chaos", "serve-paged",
}

// obsDigest runs one scenario with every collector on (default 10 ms
// sampling) and hashes its export surface across all legs: the merged
// Chrome trace, timeline CSV and ledger CSV, then each leg's Gantt
// summary, attribution tables, report tables and JSON.
func obsDigest(t *testing.T, r *Runner, id string) string {
	t.Helper()
	res, err := r.Run(id)
	if err != nil {
		t.Fatal(err)
	}
	sr := res.(*ServeResult)
	var tracers []*obs.Tracer
	var sets []*obs.TimelineSet
	var ledgers []*obs.Ledger
	for _, rep := range sr.Reports {
		tracers = append(tracers, rep.Trace)
		sets = append(sets, rep.Timelines)
		ledgers = append(ledgers, rep.Ledger)
	}
	h := sha256.New()
	if err := obs.WriteChromeAll(h, tracers); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteCSVAll(h, sets); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteLedgerCSVAll(h, ledgers); err != nil {
		t.Fatal(err)
	}
	for _, rep := range sr.Reports {
		io.WriteString(h, rep.Trace.Gantt(0))
		io.WriteString(h, rep.AttribTable())
	}
	io.WriteString(h, res.Table())
	data, err := json.Marshal(sr.Reports)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenObsExports byte-locks the observability exports (trace,
// timelines, ledger) that TestGoldenServeReports leaves unchecked:
// one SHA-256 per scenario in testdata/golden_obs.sha256, regenerated
// under the same NEU10_UPDATE_GOLDEN switch.
func TestGoldenObsExports(t *testing.T) {
	opts := DefaultOptions()
	opts.ServeObs = &serve.ObsConfig{Trace: true, Timelines: true, Attrib: true}
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, id := range goldenObsScenarios {
		fmt.Fprintf(&sb, "%s  %s\n", obsDigest(t, r, id), id)
	}
	got := sb.String()
	path := filepath.Join("testdata", "golden_obs.sha256")
	if os.Getenv("NEU10_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("observability exports diverged:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// tracedOptions is DefaultOptions with lifecycle tracing and timeline
// sampling on for every serving scenario.
func tracedOptions() Options {
	opts := DefaultOptions()
	opts.ServeObs = &serve.ObsConfig{Trace: true, Timelines: true}
	return opts
}

// TestServeChaosTracedMatchesUntraced checks that serve-chaos run with
// tracing and timelines on renders the exact same tables as the
// untraced run (observation never changes a number) while additionally
// carrying trace and timeline artifacts on every report.
func TestServeChaosTracedMatchesUntraced(t *testing.T) {
	r, err := NewRunner(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := r.Run("serve-chaos")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRunner(tracedOptions())
	if err != nil {
		t.Fatal(err)
	}
	traced, err := rt.Run("serve-chaos")
	if err != nil {
		t.Fatal(err)
	}
	if plain.Table() != traced.Table() {
		t.Errorf("traced chaos tables differ from untraced:\n--- untraced ---\n%s\n--- traced ---\n%s",
			plain.Table(), traced.Table())
	}
	for i, rep := range traced.(*ServeResult).Reports {
		if rep.Trace == nil || rep.Trace.Len() == 0 {
			t.Errorf("traced leg %d has no trace", i)
		}
		if rep.Timelines == nil || len(rep.Timelines.Series()) == 0 {
			t.Errorf("traced leg %d has no timelines", i)
		}
	}
	for i, rep := range plain.(*ServeResult).Reports {
		if rep.Trace != nil || rep.Timelines != nil {
			t.Errorf("untraced leg %d carries observability artifacts", i)
		}
	}
}

// TestTracedExportsWorkerInvariant is the traced determinism gate:
// serve-chaos's merged Chrome trace and timeline CSV, traced, must be
// byte-identical between a sequential and an oversubscribed
// parallel runner. Each leg owns a private tracer filled by its own
// event loop, so worker interleaving must never reach the exports.
func TestTracedExportsWorkerInvariant(t *testing.T) {
	export := func(workers int) (string, string, string) {
		opts := tracedOptions()
		opts.Workers = workers
		r, err := NewRunner(opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run("serve-chaos")
		if err != nil {
			t.Fatal(err)
		}
		sr := res.(*ServeResult)
		var tracers []*obs.Tracer
		var sets []*obs.TimelineSet
		for _, rep := range sr.Reports {
			tracers = append(tracers, rep.Trace)
			sets = append(sets, rep.Timelines)
		}
		var tr, tl bytes.Buffer
		if err := obs.WriteChromeAll(&tr, tracers); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteCSVAll(&tl, sets); err != nil {
			t.Fatal(err)
		}
		return res.Table(), tr.String(), tl.String()
	}
	seqTab, seqTr, seqTl := export(1)
	parTab, parTr, parTl := export(4)
	if seqTab != parTab {
		t.Error("traced chaos table differs between worker counts")
	}
	if seqTr != parTr {
		t.Error("merged Chrome trace differs between worker counts")
	}
	if seqTl != parTl {
		t.Error("timeline CSV differs between worker counts")
	}
}

// TestServeAttribKeepsCallerCollectors: serve-attrib forces attribution
// on, but on top of the caller's collectors — every leg of a traced run
// must still carry its tracer and timelines, and its tables must match
// the untraced run's.
func TestServeAttribKeepsCallerCollectors(t *testing.T) {
	plain, err := NewRunner(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Run("serve-attrib")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(tracedOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run("serve-attrib")
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range res.(*ServeResult).Reports {
		if rep.Trace == nil || rep.Trace.Len() == 0 {
			t.Errorf("%s carries no trace", rep.Scenario)
		}
		if rep.Timelines == nil || len(rep.Timelines.Series()) == 0 {
			t.Errorf("%s carries no timelines", rep.Scenario)
		}
		if rep.Ledger == nil {
			t.Errorf("%s carries no ledger", rep.Scenario)
		}
	}
	if res.Table() != want.Table() {
		t.Error("traced serve-attrib tables differ from the untraced run's")
	}
}

// TestAttribExportsWorkerInvariant is the attribution determinism gate:
// serve-attrib's tables and merged ledger CSV must be byte-identical
// between a sequential and an oversubscribed parallel runner, and every
// leg's ledger must come back conservation-clean.
func TestAttribExportsWorkerInvariant(t *testing.T) {
	export := func(workers int) (string, string) {
		opts := DefaultOptions()
		opts.Workers = workers
		r, err := NewRunner(opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run("serve-attrib")
		if err != nil {
			t.Fatal(err)
		}
		var ledgers []*obs.Ledger
		for _, rep := range res.(*ServeResult).Reports {
			if rep.Ledger == nil {
				t.Fatalf("%s carries no ledger", rep.Scenario)
			}
			if v, open := rep.Ledger.Violations(), rep.Ledger.Open(); v != 0 || open != 0 {
				t.Fatalf("%s: %d violations, %d open requests", rep.Scenario, v, open)
			}
			ledgers = append(ledgers, rep.Ledger)
		}
		var csv bytes.Buffer
		if err := obs.WriteLedgerCSVAll(&csv, ledgers); err != nil {
			t.Fatal(err)
		}
		return res.Table(), csv.String()
	}
	seqTab, seqCSV := export(1)
	parTab, parCSV := export(4)
	if seqTab != parTab {
		t.Error("serve-attrib table differs between worker counts")
	}
	if seqCSV != parCSV {
		t.Error("merged attribution CSV differs between worker counts")
	}
}
