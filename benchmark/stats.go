package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// spec describes one metric: its unit, which direction is better, and
// the bound by which it may worsen, as a share of the parent's median,
// before a change counts as a regression (negative: no bound).
type spec struct {
	unit   string
	better string // "lower", "higher", or "same" for outputs that must not move
	bound  float64
}

// endToEnd are the metrics a user of the simulator sees; each has a
// bound. The modeled outputs are deterministic, so their bound is 0.
// wall_s and setup_s are host seconds scaled to the reference host's
// speed (hostspeed.go); the raw host seconds are reported beside them.
var endToEnd = map[string]spec{
	"wall_s":       {"s", "lower", 0.25},
	"setup_s":      {"s", "lower", 0.25},
	"alloc_mb":     {"MB", "lower", 0.08},
	"allocs_m":     {"millions", "lower", 0.08},
	"peak_rss_mb":  {"MB", "lower", 0.10},
	"fail_frac":    {"frac", "lower", 0},
	"wall_host_s":  {"s", "lower", -1},
	"setup_host_s": {"s", "lower", -1},
	"host_speed":   {"x", "higher", -1},

	"paper_tput_x":     {"x", "same", 0},
	"paper_tput_err":   {"frac", "same", 0},
	"paper_tail_x":     {"x", "same", 0},
	"paper_tail_err":   {"frac", "same", 0},
	"sim_goodput_rps":  {"1/s", "same", 0},
	"sim_slo_attain":   {"frac", "same", 0},
	"sim_ttft_p99_ms":  {"ms", "same", 0},
	"sim_tpot_p99_ms":  {"ms", "same", 0},
	"sim_fault_attain": {"frac", "same", 0},
}

// measuredE2E are the end-to-end metrics BENCHMARK.json lists: the
// bounded host measurements.
var measuredE2E = []string{"wall_s", "setup_s", "alloc_mb", "allocs_m", "peak_rss_mb"}

// perLayer are the traced run's metrics. They have no bound.
var perLayer = map[string]spec{
	"trace_overhead_frac": {"frac", "lower", -1},

	"experiments.fig19_s":            {"s", "lower", -1},
	"experiments.fig23_s":            {"s", "lower", -1},
	"experiments.fig25_s":            {"s", "lower", -1},
	"experiments.fig26_s":            {"s", "lower", -1},
	"experiments.fig27_s":            {"s", "lower", -1},
	"experiments.ablation-harvest_s": {"s", "lower", -1},
	"experiments.ablation-preempt_s": {"s", "lower", -1},
	"experiments.slo_s":              {"s", "lower", -1},
	"experiments.other_s":            {"s", "lower", -1},

	"compiler.graphs":       {"count", "higher", -1},
	"compiler.ms_per_graph": {"ms", "lower", -1},

	"sched.runs":          {"count", "higher", -1},
	"sched.ms_per_run":    {"ms", "lower", -1},
	"sched.gcycles_per_s": {"Gcycles/s", "higher", -1},

	"serve.costdb.entries":      {"count", "lower", -1},
	"serve.costdb.ms_per_entry": {"ms", "lower", -1},
	"serve.costdb.warmup_s":     {"s", "lower", -1},

	"serve.loop.ns_per_req":     {"ns", "lower", -1},
	"serve.loop.allocs_per_req": {"count", "lower", -1},
	"serve.loop.bytes_per_req":  {"B", "lower", -1},

	"serve.kv.peak_seqs":          {"count", "higher", -1},
	"serve.kv.evictions":          {"count", "lower", -1},
	"serve.kv.recompute_tokens":   {"tokens", "lower", -1},
	"serve.kv.prefix_hit_rate":    {"frac", "higher", -1},
	"serve.kv.stalls":             {"count", "lower", -1},
	"serve.kv.occ_mean":           {"frac", "higher", -1},
	"serve.kv.reserve_ns_per_req": {"ns", "lower", -1},

	"obs.trace_x":            {"x", "lower", -1},
	"obs.timelines_x":        {"x", "lower", -1},
	"obs.timelines_10ms_x":   {"x", "lower", -1},
	"obs.attrib_x":           {"x", "lower", -1},
	"obs.all_x":              {"x", "lower", -1},
	"obs.all_allocs_x":       {"x", "lower", -1},
	"obs.export_chrome_s":    {"s", "lower", -1},
	"obs.export_timelines_s": {"s", "lower", -1},
	"obs.export_ledger_s":    {"s", "lower", -1},
	"obs.export_mb":          {"MB", "lower", -1},
	"obs.trace_events":       {"count", "higher", -1},
	"obs.ledger_reqs":        {"count", "higher", -1},
	// Always 0 on a correct run (a nonzero count fails the run), so it is
	// reported here but not listed in BENCHMARK.json.
	"obs.ledger_violations": {"count", "lower", -1},
}

func init() {
	for _, id := range serveIDs {
		perLayer["experiments."+id+".cold_s"] = spec{"s", "lower", -1}
	}
}

// metric is one metric of the detailed report.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Better  string    `json:"better,omitempty"`
	Bound   *float64  `json:"bound,omitempty"`
	N       int       `json:"n,omitempty"`
	Q1      float64   `json:"q1,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

func newMetric(sp spec, samples []float64) metric {
	m := metric{Unit: sp.unit, Better: sp.better}
	if sp.bound >= 0 {
		b := sp.bound
		m.Bound = &b
	}
	if len(samples) == 1 {
		m.Value = samples[0]
		return m
	}
	m.Q1, m.Value, m.Q3 = quartiles(samples)
	m.N = len(samples)
	m.Samples = samples
	return m
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// spreads here match the ones computed from result files with Python.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// readReports reads every detailed report line (one with a "workload"
// key) from a file of benchmark output, such as the stdout of several
// runs appended together.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var r report
		if err := json.Unmarshal(line, &r); err != nil || r.Workload == "" {
			continue
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no benchmark reports", path)
	}
	return out, nil
}

// compare prints one row per workload and metric: both sides' medians
// and quartiles over their runs, the change, and a verdict against the
// metric's bound. A metric whose parent runs spread wider than its bound
// cannot be judged and reads "unresolved".
func compare(w io.Writer, parent, change []report) {
	type key struct{ workload, metric string }
	collect := func(rs []report) (map[key][]float64, map[key]metric) {
		vals, specs := map[key][]float64{}, map[key]metric{}
		for _, r := range rs {
			for name, m := range r.Metrics {
				k := key{r.Workload, name}
				vals[k] = append(vals[k], m.Value)
				specs[k] = m
			}
		}
		return vals, specs
	}
	pv, ps := collect(parent)
	cv, _ := collect(change)
	keys := make([]key, 0, len(pv))
	for k := range pv {
		if _, ok := cv[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median [q1, q3]\tchange median [q1, q3]\tchange\tbound\tverdict")
	for _, k := range keys {
		m := ps[k]
		p1, p2, p3 := quartiles(pv[k])
		c1, c2, c3 := quartiles(cv[k])
		rel := 0.0
		switch {
		case p2 != 0:
			rel = (c2 - p2) / math.Abs(p2)
		case c2 != 0:
			rel = math.Copysign(math.Inf(1), c2)
		}
		bound, verdict := "-", "-"
		if m.Bound != nil {
			bound = fmt.Sprintf("%.0f%%", *m.Bound*100)
			verdict = judge(m.Better, *m.Bound, p1, p2, p3, rel)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%s\t%s\n",
			k.workload, k.metric, m.Unit, p2, p1, p3, c2, c1, c3, rel*100, bound, verdict)
	}
	tw.Flush()
}

func judge(better string, bound, p1, p2, p3, rel float64) string {
	if better == "same" {
		if rel == 0 {
			return "same"
		}
		return "CHANGED"
	}
	if p2 != 0 && (p3-p1)/math.Abs(p2) > bound {
		return "unresolved"
	}
	worse := rel
	if better == "higher" {
		worse = -rel
	}
	if worse > bound {
		return "REGRESSION"
	}
	return "ok"
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
