package experiments

import (
	"fmt"

	"neu10/internal/sched"
	"neu10/internal/workload"
)

// Extension studies beyond the paper's figures: ablations of Neu10's two
// harvesting mechanisms, sensitivity to the ME preemption cost, and an
// open-loop SLO study. These are the design-choice ablations; they
// reuse the paper's pair methodology.

// AblationHarvestResult compares full Neu10 against each harvesting
// mechanism disabled, per pair, as aggregate throughput normalized to
// Neu10-NH (1.0 = no harvesting benefit).
type AblationHarvestResult struct {
	// Gains[pair] = [full, no-ME-harvest, no-VE-harvest] aggregate
	// throughput relative to Neu10-NH.
	Gains map[string][3]float64
}

func (r *AblationHarvestResult) Table() string {
	tab := &table{header: []string{"pair", "Neu10", "-ME harvest", "-VE harvest"}}
	for _, p := range sortedKeys(r.Gains) {
		g := r.Gains[p]
		tab.add(p, f3(g[0]), f3(g[1]), f3(g[2]))
	}
	return "Ablation — harvesting mechanisms (aggregate throughput / Neu10-NH)\n" + tab.String()
}

// AblationHarvest runs the harvest-mechanism ablation over all pairs,
// one worker-pool job per pair: the NH and full-Neu10 legs are shared
// pair runs, the two ablated legs its own simulations.
func (r *Runner) AblationHarvest() (*AblationHarvestResult, error) {
	pairs := workload.Pairs()
	gains, err := parMap(r.workers(), pairs, func(p workload.Pair) ([3]float64, error) {
		specs, err := r.comp.Tenants(p, sched.Neu10, r.opts.Core.MEs/2, r.opts.Core.VEs/2)
		if err != nil {
			return [3]float64{}, err
		}
		base, err := r.runPair(p, sched.NeuNH, r.opts.Core, false)
		if err != nil {
			return [3]float64{}, err
		}
		full, err := r.runPair(p, sched.Neu10, r.opts.Core, false)
		if err != nil {
			return [3]float64{}, err
		}
		agg := func(res *sched.Result) float64 {
			var s float64
			for w := 0; w < 2; w++ {
				s += res.Tenants[w].Throughput / base.Tenants[w].Throughput
			}
			return s / 2
		}
		gains := [3]float64{agg(full)}
		for i, cfg := range []sched.Config{
			{Core: r.opts.Core, Policy: sched.Neu10, Requests: r.opts.Requests, DisableMEHarvest: true},
			{Core: r.opts.Core, Policy: sched.Neu10, Requests: r.opts.Requests, DisableVEHarvest: true},
		} {
			res, err := sched.Run(cfg, specs)
			if err != nil {
				return [3]float64{}, fmt.Errorf("%s ablation %d: %w", p.Name(), i+1, err)
			}
			gains[i+1] = agg(res)
		}
		return gains, nil
	})
	if err != nil {
		return nil, err
	}
	out := &AblationHarvestResult{Gains: map[string][3]float64{}}
	for i, p := range pairs {
		out.Gains[p.Name()] = gains[i]
	}
	return out, nil
}

// AblationPreemptResult sweeps the ME reclaim (context switch) cost.
type AblationPreemptResult struct {
	Costs []int
	// PerCost[cost] = [aggregate throughput vs NH, worst victim blocked fraction].
	PerCost map[int][2]float64
}

func (r *AblationPreemptResult) Table() string {
	tab := &table{header: []string{"reclaim cycles", "throughput vs NH", "worst blocked %"}}
	for _, c := range r.Costs {
		v := r.PerCost[c]
		tab.add(fmt.Sprint(c), f3(v[0]), fmt.Sprintf("%.2f%%", v[1]*100))
	}
	return "Ablation — ME preemption cost sweep (paper's §III-G picks 256;\nmean over the 9 pairs)\n" + tab.String()
}

// AblationPreempt sweeps the reclaim penalty from free to 64x the
// paper's value. The (cost, pair) grid cells fan across the worker
// pool; per-cost aggregation walks the results in grid order so the
// floating-point accumulation matches the sequential sweep exactly.
func (r *Runner) AblationPreempt() (*AblationPreemptResult, error) {
	out := &AblationPreemptResult{
		Costs:   []int{0, 256, 1024, 4096, 16384},
		PerCost: map[int][2]float64{},
	}
	pairs := workload.Pairs()
	// The NeuNH baseline does not depend on the preemption cost: run it
	// once per pair instead of once per grid cell.
	baselines, err := parMap(r.workers(), pairs, func(p workload.Pair) (*sched.Result, error) {
		return r.runPair(p, sched.NeuNH, r.opts.Core, false)
	})
	if err != nil {
		return nil, err
	}
	type gridCell struct {
		cost int
		pi   int
	}
	type cellResult struct {
		gain    [2]float64
		blocked [2]float64
	}
	var cells []gridCell
	for _, cost := range out.Costs {
		for pi := range pairs {
			cells = append(cells, gridCell{cost, pi})
		}
	}
	results, err := parMap(r.workers(), cells, func(c gridCell) (cellResult, error) {
		core := r.opts.Core
		core.MEPreemptCycles = c.cost
		n10, err := r.runPair(pairs[c.pi], sched.Neu10, core, false)
		if err != nil {
			return cellResult{}, err
		}
		nh := baselines[c.pi]
		var cr cellResult
		for w := 0; w < 2; w++ {
			cr.gain[w] = n10.Tenants[w].Throughput / nh.Tenants[w].Throughput
			cr.blocked[w] = n10.Tenants[w].HarvestBlocked / n10.DurationCycles
		}
		return cr, nil
	})
	if err != nil {
		return nil, err
	}
	for ci, cost := range out.Costs {
		var gainSum, worstBlocked float64
		n := 0
		for pi := range pairs {
			cr := results[ci*len(pairs)+pi]
			for w := 0; w < 2; w++ {
				gainSum += cr.gain[w]
				n++
				if cr.blocked[w] > worstBlocked {
					worstBlocked = cr.blocked[w]
				}
			}
		}
		out.PerCost[cost] = [2]float64{gainSum / float64(n), worstBlocked}
	}
	return out, nil
}

// SLOResult is the open-loop latency-vs-load study: p95 latency of a
// latency-sensitive tenant collocated with a batch tenant, across offered
// loads, under V10/NeuNH/Neu10.
type SLOResult struct {
	Loads []float64
	// P95Ms[policy][load] in milliseconds.
	P95Ms map[string]map[float64]float64
}

func (r *SLOResult) Table() string {
	tab := &table{header: []string{"offered load"}}
	pols := []string{"V10", "Neu10-NH", "Neu10"}
	tab.header = append(tab.header, pols...)
	for _, l := range r.Loads {
		row := []string{fmt.Sprintf("%.0f%%", l*100)}
		for _, p := range pols {
			row = append(row, fmt.Sprintf("%.3f ms", r.P95Ms[p][l]))
		}
		tab.add(row...)
	}
	return "SLO study — open-loop p95 latency of MNIST collocated with RetinaNet\n" +
		"(Poisson arrivals at a fraction of MNIST's half-core capacity)\n" + tab.String()
}

// SLOStudy sweeps offered load for the latency-sensitive MNIST tenant
// sharing a core with closed-loop RetinaNet.
func (r *Runner) SLOStudy() (*SLOResult, error) {
	core := r.opts.Core
	// MNIST half-core service rate: measure once solo.
	soloCG, err := r.comp.Graph("MNIST", workload.BatchFor("MNIST"), sched.NeuNH.ISAFor())
	if err != nil {
		return nil, err
	}
	solo, err := sched.Run(sched.Config{Core: core, Policy: sched.NeuNH, Requests: 20},
		[]sched.TenantSpec{{Name: "MNIST", Graph: soloCG, MEs: core.MEs / 2, VEs: core.VEs / 2}})
	if err != nil {
		return nil, err
	}
	capacity := solo.Tenants[0].Throughput

	out := &SLOResult{
		Loads: []float64{0.2, 0.4, 0.6, 0.8},
		P95Ms: map[string]map[float64]float64{"V10": {}, "Neu10-NH": {}, "Neu10": {}},
	}
	pols := []sched.Mode{sched.V10, sched.NeuNH, sched.Neu10}
	type gridCell struct {
		pol  sched.Mode
		load float64
	}
	var cells []gridCell
	for _, pol := range pols {
		for _, load := range out.Loads {
			cells = append(cells, gridCell{pol, load})
		}
	}
	p95s, err := parMap(r.workers(), cells, func(c gridCell) (float64, error) {
		mnist, err := r.comp.Graph("MNIST", workload.BatchFor("MNIST"), c.pol.ISAFor())
		if err != nil {
			return 0, err
		}
		rtnt, err := r.comp.Graph("RtNt", workload.BatchFor("RtNt"), c.pol.ISAFor())
		if err != nil {
			return 0, err
		}
		res, err := sched.Run(sched.Config{Core: core, Policy: c.pol, Requests: 50, Seed: 11},
			[]sched.TenantSpec{
				{Name: "MNIST", Graph: mnist, MEs: core.MEs / 2, VEs: core.VEs / 2, ArrivalRate: c.load * capacity},
				{Name: "RtNt", Graph: rtnt, MEs: core.MEs / 2, VEs: core.VEs / 2},
			})
		if err != nil {
			return 0, fmt.Errorf("slo %s@%.1f: %w", c.pol, c.load, err)
		}
		return res.Tenants[0].P95Latency / core.FrequencyHz * 1e3, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		out.P95Ms[c.pol.String()][c.load] = p95s[i]
	}
	return out, nil
}
