package experiments

import (
	"fmt"

	"neu10/internal/arch"
	"neu10/internal/sched"
	"neu10/internal/workload"
)

// Fig. 25 — throughput improvement of Neu10 over V10 while scaling the
// physical core from 2ME-2VE to 8ME-8VE (evenly partitioned between the
// two vNPUs). The paper's claim: more engines → more dynamic-scheduling
// headroom → a larger Neu10 advantage.

// Fig25Result holds the scaling sweep. For each pair and hardware
// configuration it reports the aggregate normalized throughput of both
// Neu10 and V10, normalized to V10 on the 2ME-2VE core — the paper's
// exact presentation ("throughput improvement of Neu10 with varying
// numbers of MEs and VEs over V10 with 2 MEs and 2 VEs").
type Fig25Result struct {
	Configs [][2]int
	// Points[pair][config] = [Neu10, V10] normalized throughput.
	Points map[string]map[[2]int][2]float64
}

func (r *Fig25Result) Table() string {
	tab := &table{header: []string{"pair"}}
	for _, c := range r.Configs {
		tab.header = append(tab.header, fmt.Sprintf("%dME-%dVE N10/V10", c[0], c[1]))
	}
	for _, p := range sortedKeys(r.Points) {
		row := []string{p}
		for _, c := range r.Configs {
			v := r.Points[p][c]
			row = append(row, fmt.Sprintf("%.2f/%.2f", v[0], v[1]))
		}
		tab.add(row...)
	}
	return "Fig. 25 — throughput scaling with MEs/VEs, normalized to V10 on 2ME-2VE\n" + tab.String()
}

// pairGain computes the Neu10:V10 ratio of aggregate normalized
// throughput for a pair on the given core. Each workload's throughput is
// normalized to its own V10 value then averaged (the paper normalizes
// per workload).
func (r *Runner) pairGain(p workload.Pair, core arch.CoreConfig) (float64, error) {
	v10, err := r.runPair(p, sched.V10, core, false)
	if err != nil {
		return 0, err
	}
	n10, err := r.runPair(p, sched.Neu10, core, false)
	if err != nil {
		return 0, err
	}
	var sum float64
	for w := 0; w < 2; w++ {
		base := v10.Tenants[w].Throughput
		if base <= 0 {
			return 0, fmt.Errorf("experiments: zero V10 throughput for %s", v10.Tenants[w].Name)
		}
		sum += n10.Tenants[w].Throughput / base
	}
	return sum / 2, nil
}

// pairThroughputs returns the per-workload throughputs of a pair under a
// policy on the given core.
func (r *Runner) pairThroughputs(p workload.Pair, pol sched.Mode, core arch.CoreConfig) ([2]float64, error) {
	res, err := r.runPair(p, pol, core, false)
	if err != nil {
		return [2]float64{}, err
	}
	return [2]float64{res.Tenants[0].Throughput, res.Tenants[1].Throughput}, nil
}

// Fig25Scaling sweeps the five hardware configurations over all pairs,
// one worker-pool job per pair (each job runs the ten per-config
// simulations; the first config's V10 run is the baseline).
func (r *Runner) Fig25Scaling() (*Fig25Result, error) {
	configs := [][2]int{{2, 2}, {4, 2}, {4, 4}, {8, 4}, {8, 8}}
	pairs := workload.Pairs()
	points, err := parMap(r.workers(), pairs, func(p workload.Pair) (map[[2]int][2]float64, error) {
		pts := map[[2]int][2]float64{}
		var base [2]float64
		for i, c := range configs {
			core := r.opts.Core.WithEUs(c[0], c[1])
			n10, err := r.pairThroughputs(p, sched.Neu10, core)
			if err != nil {
				return nil, fmt.Errorf("%s %v: %w", p.Name(), c, err)
			}
			v10, err := r.pairThroughputs(p, sched.V10, core)
			if err != nil {
				return nil, fmt.Errorf("%s %v: %w", p.Name(), c, err)
			}
			if i == 0 {
				base = v10 // V10 on 2ME-2VE
			}
			// Aggregate normalized throughput per policy: mean over the
			// two workloads of tput/baseline-V10-2ME2VE-tput.
			norm := func(t [2]float64) float64 {
				return (t[0]/base[0] + t[1]/base[1]) / 2
			}
			pts[c] = [2]float64{norm(n10), norm(v10)}
		}
		return pts, nil
	})
	if err != nil {
		return nil, err
	}
	out := &Fig25Result{Configs: configs, Points: map[string]map[[2]int][2]float64{}}
	for i, p := range pairs {
		out.Points[p.Name()] = points[i]
	}
	return out, nil
}

// Fig. 26 — Neu10 throughput gain over V10 at 900 GB/s, 1.2 TB/s,
// 2 TB/s and 3 TB/s HBM bandwidth, including the memory-intensive pairs
// (DLRM+NCF, NCF+TFMR) and the LLaMA collocations.

// Fig26Result holds the bandwidth sweep: pair → bandwidth → gain.
type Fig26Result struct {
	Bandwidths []float64 // bytes/s
	Points     map[string]map[float64]float64
}

func (r *Fig26Result) Table() string {
	tab := &table{header: []string{"pair"}}
	for _, bw := range r.Bandwidths {
		tab.header = append(tab.header, fmt.Sprintf("%.0fGB/s", bw/1e9))
	}
	for _, p := range sortedKeys(r.Points) {
		row := []string{p}
		for _, bw := range r.Bandwidths {
			row = append(row, f2(r.Points[p][bw]))
		}
		tab.add(row...)
	}
	return "Fig. 26 — Neu10 throughput gain over V10 vs HBM bandwidth\n" + tab.String()
}

// Fig26Bandwidth sweeps bandwidth over the standard and memory pairs,
// fanning the (pair, bandwidth) grid cells across the worker pool.
func (r *Runner) Fig26Bandwidth() (*Fig26Result, error) {
	out := &Fig26Result{
		Bandwidths: []float64{900e9, 1200e9, 2000e9, 3000e9},
		Points:     map[string]map[float64]float64{},
	}
	pairs := append(workload.MemoryPairs()[:2], workload.Pairs()...)
	type gridCell struct {
		p  workload.Pair
		bw float64
	}
	var cells []gridCell
	for _, p := range pairs {
		for _, bw := range out.Bandwidths {
			cells = append(cells, gridCell{p, bw})
		}
	}
	gains, err := parMap(r.workers(), cells, func(c gridCell) (float64, error) {
		gain, err := r.pairGain(c.p, r.opts.Core.WithHBMBandwidth(c.bw))
		if err != nil {
			return 0, fmt.Errorf("%s @%.0fGB/s: %w", c.p.Name(), c.bw/1e9, err)
		}
		return gain, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		if out.Points[c.p.Name()] == nil {
			out.Points[c.p.Name()] = map[float64]float64{}
		}
		out.Points[c.p.Name()][c.bw] = gains[i]
	}
	return out, nil
}

// Fig. 27 — the LLaMA case study: collocating a memory-bandwidth-bound
// LLM with compute-bound models; per-workload throughput under V10 and
// Neu10 plus core utilization.

// LLMPoint is one collocation's outcome.
type LLMPoint struct {
	Pair      string
	V10Tput   [2]float64
	Neu10Tput [2]float64
	V10MEUtil float64
	N10MEUtil float64
	V10VEUtil float64
	N10VEUtil float64
}

// Fig27Result holds the LLM collocation study.
type Fig27Result struct{ Points []LLMPoint }

func (r *Fig27Result) Table() string {
	tab := &table{header: []string{"pair",
		"W1 V10→Neu10 (rps)", "W2 V10→Neu10 (rps)", "W2 gain",
		"ME util V10→Neu10", "VE util V10→Neu10"}}
	for _, p := range r.Points {
		gain := 0.0
		if p.V10Tput[1] > 0 {
			gain = p.Neu10Tput[1] / p.V10Tput[1]
		}
		tab.add(p.Pair,
			fmt.Sprintf("%.2f→%.2f", p.V10Tput[0], p.Neu10Tput[0]),
			fmt.Sprintf("%.2f→%.2f", p.V10Tput[1], p.Neu10Tput[1]),
			f2(gain),
			fmt.Sprintf("%.3f→%.3f", p.V10MEUtil, p.N10MEUtil),
			fmt.Sprintf("%.3f→%.3f", p.V10VEUtil, p.N10VEUtil))
	}
	return "Fig. 27 — LLM (LLaMA2-13B) collocation: V10 vs Neu10\n" + tab.String()
}

// Fig27LLM runs the three LLaMA collocations under V10 and Neu10, one
// worker-pool job per collocation.
func (r *Runner) Fig27LLM() (*Fig27Result, error) {
	points, err := parMap(r.workers(), workload.MemoryPairs()[2:], func(p workload.Pair) (LLMPoint, error) {
		v10, err := r.runPair(p, sched.V10, r.opts.Core, false)
		if err != nil {
			return LLMPoint{}, err
		}
		n10, err := r.runPair(p, sched.Neu10, r.opts.Core, false)
		if err != nil {
			return LLMPoint{}, err
		}
		return LLMPoint{
			Pair:      p.Name(),
			V10Tput:   [2]float64{v10.Tenants[0].Throughput, v10.Tenants[1].Throughput},
			Neu10Tput: [2]float64{n10.Tenants[0].Throughput, n10.Tenants[1].Throughput},
			V10MEUtil: v10.MEUtil, N10MEUtil: n10.MEUtil,
			V10VEUtil: v10.VEUtil, N10VEUtil: n10.VEUtil,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig27Result{Points: points}, nil
}
