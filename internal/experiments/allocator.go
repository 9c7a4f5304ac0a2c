package experiments

import (
	"fmt"
	"strings"

	"neu10/internal/compiler"
	"neu10/internal/core"
	"neu10/internal/model"
)

// Fig. 12 — vNPU allocation: for each EU budget, the speedup of every
// (m, v) split and the allocator's selection, for BERT, ResNet,
// EfficientNet (batch 32) and ShapeMask (batch 8).

// AllocCurve is one model's sweep.
type AllocCurve struct {
	Model  string
	Batch  int
	M, V   float64 // profiled active fractions fed to the allocator
	Points []core.SweepPoint
}

// Fig12Result holds the four allocation sweeps.
type Fig12Result struct{ Curves []AllocCurve }

func (r *Fig12Result) Table() string {
	var sb strings.Builder
	sb.WriteString("Fig. 12 — vNPU allocation sweep (selected config per EU budget)\n")
	for _, c := range r.Curves {
		fmt.Fprintf(&sb, "\n%s (batch %d, m=%.3f v=%.3f):\n", c.Model, c.Batch, c.M, c.V)
		tab := &table{header: []string{"EUs", "selected (m,v)", "speedup", "best alternative"}}
		byTotal := map[int][]core.SweepPoint{}
		for _, p := range c.Points {
			byTotal[p.TotalEUs] = append(byTotal[p.TotalEUs], p)
		}
		for total := 2; total <= 16; total++ {
			pts := byTotal[total]
			if len(pts) == 0 {
				continue
			}
			var sel core.SweepPoint
			bestAlt := 0.0
			for _, p := range pts {
				if p.Selected {
					sel = p
				} else if p.Speedup > bestAlt {
					bestAlt = p.Speedup
				}
			}
			tab.add(fmt.Sprint(total), fmt.Sprintf("(%d,%d)", sel.MEs, sel.VEs),
				f3(sel.Speedup), f3(bestAlt))
		}
		sb.WriteString(tab.String())
	}
	return sb.String()
}

// Fig12Allocator sweeps the allocator for the paper's four models, one
// worker-pool job per model (graph build + profile dominate the cost).
func (r *Runner) Fig12Allocator() (*Fig12Result, error) {
	alloc, err := core.NewAllocator(r.opts.Core)
	if err != nil {
		return nil, err
	}
	cm := compiler.NewCostModel(r.opts.Core)
	cases := []struct {
		name  string
		batch int
	}{
		{"BERT", 32}, {"RsNt", 32}, {"ENet", 32}, {"SMask", 8},
	}
	curves, err := parMap(r.workers(), cases, func(c struct {
		name  string
		batch int
	}) (AllocCurve, error) {
		g, err := model.Build(c.name, c.batch)
		if err != nil {
			return AllocCurve{}, err
		}
		p := cm.ProfileGraph(g)
		return AllocCurve{
			Model: c.name, Batch: c.batch, M: p.M, V: p.V,
			Points: alloc.Sweep(p.M, p.V, 16),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig12Result{Curves: curves}, nil
}

// Fig. 16 — NeuISA performance overhead relative to the traditional
// VLIW ISA, per workload and batch size: solo full-core runs under both
// compilations. Positive = NeuISA slower (the reduction-split effect),
// shrinking with batch size.

// OverheadPoint is one (model, batch) measurement.
type OverheadPoint struct {
	Model    string
	Batch    int
	Overhead float64 // (tNeu - tVLIW) / tVLIW
}

// Fig16Result holds the overhead grid.
type Fig16Result struct {
	Batches []int
	Points  map[string]map[int]float64
}

func (r *Fig16Result) Table() string {
	tab := &table{header: []string{"model"}}
	for _, b := range r.Batches {
		tab.header = append(tab.header, fmt.Sprintf("b=%d", b))
	}
	for _, m := range sortedKeys(r.Points) {
		row := []string{m}
		for _, b := range r.Batches {
			if v, ok := r.Points[m][b]; ok {
				row = append(row, fmt.Sprintf("%+.2f%%", v*100))
			} else {
				row = append(row, "OOM")
			}
		}
		tab.add(row...)
	}
	return "Fig. 16 — NeuISA overhead vs VLIW (paper: <1% average, shrinking with batch)\n" + tab.String()
}

// Fig16NeuISAOverhead measures NeuISA-vs-VLIW solo latency for the
// Table I models across batch sizes, fanning the (model, batch) grid
// across the worker pool.
func (r *Runner) Fig16NeuISAOverhead() (*Fig16Result, error) {
	out := &Fig16Result{Batches: []int{1, 8, 32, 128}, Points: map[string]map[int]float64{}}
	type gridCell struct {
		name  string
		batch int
	}
	var cells []gridCell
	for _, name := range model.Names() {
		if name == "LLaMA" {
			continue
		}
		out.Points[name] = map[int]float64{}
		for _, b := range out.Batches {
			cells = append(cells, gridCell{name, b})
		}
	}
	type overhead struct {
		v  float64
		ok bool
	}
	points, err := parMap(r.workers(), cells, func(c gridCell) (overhead, error) {
		g, err := model.Build(c.name, c.batch)
		if err != nil {
			return overhead{}, err
		}
		if g.HBMFootprint > r.opts.Core.HBMBytes {
			return overhead{}, nil // paper omits OOM configs
		}
		tNeu, err := r.soloLatency(c.name, c.batch, compiler.ISANeu)
		if err != nil {
			return overhead{}, err
		}
		tVLIW, err := r.soloLatency(c.name, c.batch, compiler.ISAVLIW)
		if err != nil {
			return overhead{}, err
		}
		return overhead{v: (tNeu - tVLIW) / tVLIW, ok: true}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		if points[i].ok {
			out.Points[c.name][c.batch] = points[i].v
		}
	}
	return out, nil
}

func (r *Runner) soloLatency(name string, batch int, kind compiler.ISAKind) (float64, error) {
	res, err := r.solo(name, batch, kind, false)
	if err != nil {
		return 0, err
	}
	return res.Tenants[0].MeanLatency, nil
}
