package experiments

import (
	"fmt"
	"sort"
	"strings"

	"neu10/internal/sched"
	"neu10/internal/workload"
)

// PairMetrics is one (pair, policy) outcome.
type PairMetrics struct {
	Pair   workload.Pair
	Policy sched.Mode
	// Per workload (index 0 = W1, 1 = W2).
	P95        [2]float64
	Mean       [2]float64
	Throughput [2]float64
	Blocked    [2]float64 // harvest-blocked fraction of runtime (Table III)
	MEUtil     float64
	VEUtil     float64
}

// PairStudyResult backs Figs. 19-22 and Table III: the nine pairs under
// all four policies. id selects the figure Table renders ("" is fig19).
type PairStudyResult struct {
	Metrics []PairMetrics
	id      string
}

// byPair groups metrics by pair name preserving paper order.
func (r *PairStudyResult) byPair() ([]string, map[string]map[sched.Mode]PairMetrics) {
	var order []string
	m := map[string]map[sched.Mode]PairMetrics{}
	for _, pm := range r.Metrics {
		key := pm.Pair.Name()
		if _, ok := m[key]; !ok {
			order = append(order, key)
			m[key] = map[sched.Mode]PairMetrics{}
		}
		m[key][pm.Policy] = pm
	}
	return order, m
}

// Table renders the figure selected by the id: values are normalized to
// PMT exactly as in the paper (latency figures: PMT/x would invert; the
// paper normalizes latencies to PMT so >1 means worse — here we report
// x/PMT for latencies and x/PMT for throughput).
func (r *PairStudyResult) Table() string {
	order, by := r.byPair()
	var sb strings.Builder
	var title string
	metric := func(pm, base PairMetrics, w int) float64 { return 0 }
	switch r.id {
	case "", "fig19":
		title = "Fig. 19 — 95th-percentile latency normalized to PMT (lower is better)"
		metric = func(pm, base PairMetrics, w int) float64 { return pm.P95[w] / base.P95[w] }
	case "fig20":
		title = "Fig. 20 — average latency normalized to PMT (lower is better)"
		metric = func(pm, base PairMetrics, w int) float64 { return pm.Mean[w] / base.Mean[w] }
	case "fig21":
		title = "Fig. 21 — throughput normalized to PMT (higher is better)"
		metric = func(pm, base PairMetrics, w int) float64 {
			return pm.Throughput[w] / base.Throughput[w]
		}
	case "fig22":
		title = "Fig. 22 — total ME / VE utilization of the NPU core"
	case "table3":
		title = "Table III — harvesting overhead (blocked time / end-to-end time)"
	}
	sb.WriteString(title + "\n")

	switch r.id {
	case "fig22":
		tab := &table{header: []string{"pair", "PMT ME", "V10 ME", "NH ME", "Neu10 ME",
			"PMT VE", "V10 VE", "NH VE", "Neu10 VE"}}
		for _, key := range order {
			row := []string{key}
			for _, pol := range Policies() {
				row = append(row, f3(by[key][pol].MEUtil))
			}
			for _, pol := range Policies() {
				row = append(row, f3(by[key][pol].VEUtil))
			}
			tab.add(row...)
		}
		sb.WriteString(tab.String())
	case "table3":
		tab := &table{header: []string{"pair", "W1 overhead", "W2 overhead"}}
		for _, key := range order {
			pm := by[key][sched.Neu10]
			tab.add(key, fmtOverhead(pm.Blocked[0]), fmtOverhead(pm.Blocked[1]))
		}
		sb.WriteString(tab.String())
	default:
		tab := &table{header: []string{"pair",
			"W1-PMT", "W1-V10", "W1-NH", "W1-Neu10",
			"W2-PMT", "W2-V10", "W2-NH", "W2-Neu10"}}
		for _, key := range order {
			base := by[key][sched.PMT]
			row := []string{key}
			for w := 0; w < 2; w++ {
				for _, pol := range Policies() {
					row = append(row, f2(metric(by[key][pol], base, w)))
				}
			}
			tab.add(row...)
		}
		sb.WriteString(tab.String())
	}
	return sb.String()
}

func fmtOverhead(v float64) string {
	if v < 0.0001 {
		return "<0.01%"
	}
	return fmt.Sprintf("%.2f%%", v*100)
}

// PairStudy gathers the nine pairs under the four policies — 36
// independent scenario simulations fanned across the worker pool and
// collected in (pair, policy) order, so the result is byte-identical to
// the sequential sweep. The simulations are the runner's shared pair
// runs, so fig19-22/table3 each rebuild their metrics from one sweep.
func (r *Runner) PairStudy() (*PairStudyResult, error) {
	type cell struct {
		p   workload.Pair
		pol sched.Mode
	}
	var cells []cell
	for _, p := range workload.Pairs() {
		for _, pol := range Policies() {
			cells = append(cells, cell{p, pol})
		}
	}
	metrics, err := parMap(r.workers(), cells, func(c cell) (PairMetrics, error) {
		res, err := r.runPair(c.p, c.pol, r.opts.Core, false)
		if err != nil {
			return PairMetrics{}, fmt.Errorf("%s/%s: %w", c.p.Name(), c.pol, err)
		}
		pm := PairMetrics{Pair: c.p, Policy: c.pol, MEUtil: res.MEUtil, VEUtil: res.VEUtil}
		for w := 0; w < 2; w++ {
			pm.P95[w] = res.Tenants[w].P95Latency
			pm.Mean[w] = res.Tenants[w].MeanLatency
			pm.Throughput[w] = res.Tenants[w].Throughput
			if res.DurationCycles > 0 {
				pm.Blocked[w] = res.Tenants[w].HarvestBlocked / res.DurationCycles
			}
		}
		return pm, nil
	})
	if err != nil {
		return nil, err
	}
	return &PairStudyResult{Metrics: metrics}, nil
}

// Fig. 23 — per-operator speedup of Neu10 over Neu10-NH for each pair,
// rendered as the distribution (deciles) of per-op ratios.

// BreakdownCurve is one pair's speedup distribution for both workloads.
type BreakdownCurve struct {
	Pair     workload.Pair
	Deciles  [2][11]float64 // per workload: min, d10..d90, max of per-op speedup
	MeanGain [2]float64
}

// Fig23Result holds all breakdown curves.
type Fig23Result struct{ Curves []BreakdownCurve }

func (r *Fig23Result) Table() string {
	var sb strings.Builder
	sb.WriteString("Fig. 23 — per-operator speedup of Neu10 over Neu10-NH (deciles)\n")
	tab := &table{header: []string{"pair", "wl", "min", "p10", "p30", "p50", "p70", "p90", "max", "mean"}}
	for _, c := range r.Curves {
		names := []string{c.Pair.W1, c.Pair.W2}
		for w := 0; w < 2; w++ {
			d := c.Deciles[w]
			tab.add(c.Pair.Name(), names[w], f2(d[0]), f2(d[1]), f2(d[3]), f2(d[5]),
				f2(d[7]), f2(d[9]), f2(d[10]), f2(c.MeanGain[w]))
		}
	}
	sb.WriteString(tab.String())
	return sb.String()
}

// Fig23Breakdown traces per-op durations under NH and Neu10 and reports
// the speedup distribution. Each pair's NH/Neu10 run couple is one
// worker-pool job.
func (r *Runner) Fig23Breakdown() (*Fig23Result, error) {
	curves, err := parMap(r.workers(), workload.Pairs(), func(p workload.Pair) (BreakdownCurve, error) {
		nh, err := r.runPair(p, sched.NeuNH, r.opts.Core, false)
		if err != nil {
			return BreakdownCurve{}, err
		}
		n10, err := r.runPair(p, sched.Neu10, r.opts.Core, false)
		if err != nil {
			return BreakdownCurve{}, err
		}
		c := BreakdownCurve{Pair: p}
		for w := 0; w < 2; w++ {
			var ratios []float64
			var sum float64
			for i, dNH := range nh.Tenants[w].OpDurations {
				d10 := n10.Tenants[w].OpDurations[i]
				if dNH > 0 && d10 > 0 {
					ratios = append(ratios, dNH/d10)
					sum += dNH / d10
				}
			}
			if len(ratios) == 0 {
				continue
			}
			sort.Float64s(ratios)
			for q := 0; q <= 10; q++ {
				idx := q * (len(ratios) - 1) / 10
				c.Deciles[w][q] = ratios[idx]
			}
			c.MeanGain[w] = sum / float64(len(ratios))
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig23Result{Curves: curves}, nil
}

// Fig. 24 — assigned MEs/VEs over time for three pairs under Neu10.

// TimelineStat summarizes one tenant's assignment series.
type TimelineStat struct {
	Pair    string
	Tenant  string
	MeanMEs float64
	MaxMEs  float64
	MeanVEs float64
	MaxVEs  float64
	Points  int
}

// Fig24Result holds assignment timeline summaries.
type Fig24Result struct{ Stats []TimelineStat }

func (r *Fig24Result) Table() string {
	tab := &table{header: []string{"pair", "tenant", "mean MEs", "max MEs", "mean VEs", "max VEs", "samples"}}
	for _, s := range r.Stats {
		tab.add(s.Pair, s.Tenant, f2(s.MeanMEs), f2(s.MaxMEs), f2(s.MeanVEs), f2(s.MaxVEs), fmt.Sprint(s.Points))
	}
	return "Fig. 24 — MEs/VEs assigned over time under Neu10 (allocation = 2 each;\n" +
		"max > 2 shows harvesting in action)\n" + tab.String()
}

// Fig24Timeline samples assignment timelines for the paper's three pairs.
func (r *Runner) Fig24Timeline() (*Fig24Result, error) {
	pairs := []workload.Pair{
		{W1: "DLRM", W2: "RtNt"}, {W1: "ENet", W2: "SMask"}, {W1: "RNRS", W2: "RtNt"},
	}
	perPair, err := parMap(r.workers(), pairs, func(p workload.Pair) ([]TimelineStat, error) {
		res, err := r.runPair(p, sched.Neu10, r.opts.Core, true)
		if err != nil {
			return nil, err
		}
		var stats []TimelineStat
		for _, tr := range res.Tenants {
			stats = append(stats, TimelineStat{
				Pair: p.Name(), Tenant: tr.Name,
				MeanMEs: tr.METimeline.Mean(), MaxMEs: tr.METimeline.MaxValue(),
				MeanVEs: tr.VETimeline.Mean(), MaxVEs: tr.VETimeline.MaxValue(),
				Points: tr.METimeline.Len(),
			})
		}
		return stats, nil
	})
	if err != nil {
		return nil, err
	}
	out := &Fig24Result{}
	for _, stats := range perPair {
		out.Stats = append(out.Stats, stats...)
	}
	return out, nil
}
