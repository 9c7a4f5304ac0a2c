package experiments

import (
	"fmt"
	"strings"

	"neu10/internal/compiler"
	"neu10/internal/isa"
	"neu10/internal/model"
	"neu10/internal/sched"
)

// Fig. 2/3 — the number of MEs and VEs demanded by each workload over
// time. This is a compile-time property: for every operator, the number
// of ME µTOps the compiler generated and whether the vector engines are
// needed, laid out on the operator timeline.

// DemandPoint is one operator's demand on the timeline.
type DemandPoint struct {
	TimeUs float64 // operator start, microseconds
	MEs    int
	VEs    int
}

// Fig2Result holds per-model demand timelines.
type Fig2Result struct {
	Batch  int
	Series map[string][]DemandPoint
}

func (r *Fig2Result) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig. 2 — ME/VE demand over time (batch %d)\n", r.Batch)
	for _, m := range sortedKeys(r.Series) {
		pts := r.Series[m]
		tab := &table{header: []string{"t (µs)", "MEs", "VEs"}}
		step := len(pts)/12 + 1
		for i := 0; i < len(pts); i += step {
			tab.add(f2(pts[i].TimeUs), fmt.Sprint(pts[i].MEs), fmt.Sprint(pts[i].VEs))
		}
		fmt.Fprintf(&sb, "\n%s (%d operators, total %.1f µs):\n%s",
			m, len(pts), pts[len(pts)-1].TimeUs, tab.String())
	}
	return sb.String()
}

// Fig2Demand computes demand timelines for the six models of Fig. 2.
func (r *Runner) Fig2Demand() (*Fig2Result, error) {
	return r.demandTimelines([]string{"BERT", "TFMR", "DLRM", "NCF", "RsNt", "MRCNN"}, 8)
}

func (r *Runner) demandTimelines(models []string, batch int) (*Fig2Result, error) {
	out := &Fig2Result{Batch: batch, Series: map[string][]DemandPoint{}}
	cm := compiler.NewCostModel(r.opts.Core)
	series, err := parMap(r.workers(), models, func(name string) ([]DemandPoint, error) {
		g, err := model.Build(name, batch)
		if err != nil {
			return nil, err
		}
		cg, err := r.comp.Graph(name, batch, compiler.ISANeu)
		if err != nil {
			return nil, err
		}
		var pts []DemandPoint
		tUs := 0.0
		for i := range cg.Ops {
			op := &cg.Ops[i]
			mes, ves := 0, 0
			for _, grp := range op.Groups {
				nME := 0
				hasVE := false
				for _, u := range grp.UTops {
					if u.Kind == isa.MEUTop {
						nME++
						if u.VECycles > 0 {
							hasVE = true
						}
					} else {
						hasVE = true
					}
				}
				if nME > mes {
					mes = nME
				}
				if hasVE {
					ves = r.opts.Core.VEs
				}
			}
			pts = append(pts, DemandPoint{TimeUs: tUs, MEs: mes, VEs: ves})
			// Advance by the operator's best-case duration on the full core.
			c := cm.Cost(&g.Ops[i])
			dur := float64(c.MECycles) / float64(r.opts.Core.MEs)
			if v := float64(c.VECycles) / float64(r.opts.Core.VEs); v > dur {
				dur = v
			}
			if h := float64(cm.HBMCycles(c.HBMBytes)); h > dur {
				dur = h
			}
			tUs += dur / r.opts.Core.FrequencyHz * 1e6
		}
		return pts, nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range models {
		out.Series[name] = series[i]
	}
	return out, nil
}

// Fig. 4 — ME:VE intensity ratio per workload and batch size.

// Fig4Result maps model → batch → ratio.
type Fig4Result struct {
	Batches []int
	Ratios  map[string]map[int]float64
}

func (r *Fig4Result) Table() string {
	tab := &table{header: []string{"model"}}
	for _, b := range r.Batches {
		tab.header = append(tab.header, fmt.Sprintf("b=%d", b))
	}
	for _, m := range sortedKeys(r.Ratios) {
		row := []string{m}
		for _, b := range r.Batches {
			if v, ok := r.Ratios[m][b]; ok {
				row = append(row, fmt.Sprintf("%.4f", v))
			} else {
				row = append(row, "OOM") // paper omits configs that exceed memory
			}
		}
		tab.add(row...)
	}
	return "Fig. 4 — ME/VE intensity ratio (execution-time ratio)\n" + tab.String()
}

// Fig4Intensity computes the intensity grid for the 11 Table I models.
func (r *Runner) Fig4Intensity() (*Fig4Result, error) {
	res := &Fig4Result{
		Batches: []int{1, 8, 32, 64, 128, 256, 512, 1024},
		Ratios:  map[string]map[int]float64{},
	}
	cm := compiler.NewCostModel(r.opts.Core)
	for _, name := range model.Names() {
		if name == "LLaMA" {
			continue // Fig. 4 covers the 11 Table I inference models
		}
		res.Ratios[name] = map[int]float64{}
		for _, b := range res.Batches {
			g, err := model.Build(name, b)
			if err != nil {
				return nil, err
			}
			// The paper omits workloads whose footprint exceeds HBM at
			// large batch; reproduce that by skipping them.
			if g.HBMFootprint > r.opts.Core.HBMBytes {
				continue
			}
			res.Ratios[name][b] = cm.IntensityRatio(g)
		}
	}
	return res, nil
}

// Fig. 5 — ME and VE utilization of a single inference request on a full
// core, plus Fig. 7's HBM bandwidth, both from solo simulator runs.

// SoloStat summarizes one workload's solo run.
type SoloStat struct {
	Model     string
	Batch     int
	MEUtil    float64
	VEUtil    float64
	AvgBWGBs  float64
	PeakBWGBs float64
	LatencyMs float64
}

// Fig5Result holds solo utilization stats.
type Fig5Result struct{ Stats []SoloStat }

func (r *Fig5Result) Table() string {
	tab := &table{header: []string{"model", "batch", "ME util", "VE util", "latency(ms)"}}
	for _, s := range r.Stats {
		tab.add(s.Model, fmt.Sprint(s.Batch), f3(s.MEUtil), f3(s.VEUtil), f2(s.LatencyMs))
	}
	return "Fig. 5 — solo ME/VE utilization per inference request\n" + tab.String()
}

// solo runs three requests of one model alone on the whole core: NeuISA
// under Neu10-NH, VLIW under PMT (with one tenant, plain full-core VLIW
// execution). sample records the utilization and bandwidth timelines.
func (r *Runner) solo(name string, batch int, kind compiler.ISAKind, sample bool) (*sched.Result, error) {
	cg, err := r.comp.Graph(name, batch, kind)
	if err != nil {
		return nil, err
	}
	cfg := sched.Config{Core: r.opts.Core, Policy: sched.NeuNH, Requests: 3}
	if kind == compiler.ISAVLIW {
		cfg.Policy = sched.PMT
	}
	if sample {
		cfg.SampleEvery = sampleEvery
	}
	return sched.Run(cfg, []sched.TenantSpec{{Name: name, Graph: cg, MEs: r.opts.Core.MEs, VEs: r.opts.Core.VEs}})
}

func (r *Runner) soloRun(name string, batch int) (SoloStat, error) {
	res, err := r.solo(name, batch, compiler.ISANeu, true)
	if err != nil {
		return SoloStat{}, err
	}
	bytesPerCyc := res.AvgBandwidth
	peak := res.HBMTimeline.MaxValue()
	toGBs := r.opts.Core.FrequencyHz / 1e9
	return SoloStat{
		Model: name, Batch: batch,
		MEUtil: res.MEUtil, VEUtil: res.VEUtil,
		AvgBWGBs:  bytesPerCyc * toGBs,
		PeakBWGBs: peak * toGBs,
		LatencyMs: res.Tenants[0].MeanLatency / r.opts.Core.FrequencyHz * 1e3,
	}, nil
}

// Fig5Utilization runs the six Fig. 5 models solo, one worker-pool job
// per model.
func (r *Runner) Fig5Utilization() (*Fig5Result, error) {
	models := []string{"BERT", "TFMR", "DLRM", "NCF", "RsNt", "MRCNN"}
	stats, err := parMap(r.workers(), models, func(name string) (SoloStat, error) {
		return r.soloRun(name, 8)
	})
	if err != nil {
		return nil, err
	}
	return &Fig5Result{Stats: stats}, nil
}

// Fig7Result holds HBM bandwidth stats for BERT/DLRM at two batch sizes.
type Fig7Result struct{ Stats []SoloStat }

func (r *Fig7Result) Table() string {
	tab := &table{header: []string{"model", "batch", "avg BW (GB/s)", "peak BW (GB/s)"}}
	for _, s := range r.Stats {
		tab.add(s.Model, fmt.Sprint(s.Batch), f2(s.AvgBWGBs), f2(s.PeakBWGBs))
	}
	return "Fig. 7 — HBM bandwidth utilization (paper: avg 176-498 GB/s, peak near limit)\n" + tab.String()
}

// Fig7HBM measures solo HBM bandwidth for BERT and DLRM at batch 8/32.
func (r *Runner) Fig7HBM() (*Fig7Result, error) {
	type gridCell struct {
		name  string
		batch int
	}
	cells := []gridCell{{"BERT", 8}, {"BERT", 32}, {"DLRM", 8}, {"DLRM", 32}}
	stats, err := parMap(r.workers(), cells, func(c gridCell) (SoloStat, error) {
		return r.soloRun(c.name, c.batch)
	})
	if err != nil {
		return nil, err
	}
	return &Fig7Result{Stats: stats}, nil
}
