package sched

import (
	"fmt"
	"math"
	"testing"

	"neu10/internal/arch"
	"neu10/internal/compiler"
	"neu10/internal/model"
	"neu10/internal/sim"
)

// checkSolo requires SoloLatency of cg along order on a mes+ves vNPU of
// core to equal, bit for bit, the MeanLatency of the one-request NeuNH
// Run of the graph it stands for, along(cg, order).
func checkSolo(t *testing.T, core arch.CoreConfig, cg *compiler.CompiledGraph, order []int32, mes, ves int, label string) {
	t.Helper()
	res, err := Run(Config{Core: core, Policy: NeuNH, Requests: 1},
		[]TenantSpec{{Name: cg.Model, Graph: along(cg, order), MEs: mes, VEs: ves}})
	if err != nil {
		t.Fatalf("%s: Run: %v", label, err)
	}
	got, err := SoloLatency(core, cg, order, mes, ves)
	if err != nil {
		t.Fatalf("%s: SoloLatency: %v", label, err)
	}
	if want := res.Tenants[0].MeanLatency; math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s: SoloLatency %v (%#x), Run %v (%#x)", label, got, math.Float64bits(got),
			want, math.Float64bits(want))
	}
}

// along returns cg's ops in order, or cg for an empty order. Repeated
// ops share their groups.
func along(cg *compiler.CompiledGraph, order []int32) *compiler.CompiledGraph {
	if len(order) == 0 {
		return cg
	}
	g := *cg
	g.Ops = make([]compiler.CompiledOp, len(order))
	for k, i := range order {
		g.Ops[k] = cg.Ops[i]
	}
	return &g
}

// repeated returns an order of three times n ops drawn at random from
// a graph of n, so that they repeat.
func repeated(n int, rng *sim.RNG) []int32 {
	order := make([]int32, 3*n)
	for k := range order {
		order[k] = int32(rng.Intn(n))
	}
	return order
}

// TestSoloLatencyMatchesRun covers every registry model at batches 1,
// 8 and 64 and the LLM phase graphs at the shapes TestGoldenGraphs
// pins, each compiled for and run on 1ME+1VE, 2+2 and 4+4 vNPUs of the
// TPUv4-like core with their proportional HBM share, as serve's CostDB
// carves them.
func TestSoloLatencyMatchesRun(t *testing.T) {
	var graphs []*compiler.Graph
	for _, name := range model.Names() {
		for _, batch := range []int{1, 8, 64} {
			g, err := model.Build(name, batch)
			if err != nil {
				t.Fatal(err)
			}
			graphs = append(graphs, g)
		}
	}
	for _, s := range [][3]int{{1, 16, 0}, {4, 64, 128}, {16, 1, 640}} {
		graphs = append(graphs, model.LLMPrefillChunk(s[0], s[1], s[2], model.LLMLayers),
			model.LLMDecode(s[0], s[1]+s[2], model.LLMLayers))
	}
	core := tpu()
	for _, n := range []int{1, 2, 4} {
		frac := float64(2*n) / float64(core.MEs+core.VEs)
		sub := core.WithEUs(n, n).WithHBMBandwidth(core.HBMBwBytes * frac)
		c, err := compiler.New(sub)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range graphs {
			cg, err := c.Compile(g, compiler.ISANeu)
			if err != nil {
				t.Fatal(err)
			}
			checkSolo(t, sub, cg, nil, n, n, fmt.Sprintf("%s b%d on %dME+%dVE", g.Model, g.BatchSize, n, n))
		}
	}
}

// TestSoloLatencyRandomRepeats covers randGraph graphs, every other
// one varied per µTOp with HBM traffic, in graph order, along a random
// order whose operators repeat, and as the graph of that order, whose
// repeats share groups, on every split of the 4+4 core.
func TestSoloLatencyRandomRepeats(t *testing.T) {
	rng := sim.NewRNG(35)
	for trial := 0; trial < 60; trial++ {
		g := randGraph(rng, compiler.ISANeu)
		if trial%2 == 1 {
			vary(g, rng)
		}
		mes, ves := 1+trial%4, 1+trial/4%4
		label := fmt.Sprintf("trial %d on %dME+%dVE", trial, mes, ves)
		order := repeated(len(g.Ops), rng)
		checkSolo(t, tpu(), g, nil, mes, ves, label)
		checkSolo(t, tpu(), g, order, mes, ves, label+", repeated")
		checkSolo(t, tpu(), along(g, order), nil, mes, ves, label+", repeated graph")
	}
}

// TestSoloLatencyRejectsBadOrder: an order index outside the graph is
// an error, not a panic.
func TestSoloLatencyRejectsBadOrder(t *testing.T) {
	g := randGraph(sim.NewRNG(36), compiler.ISANeu)
	n := int32(len(g.Ops))
	for _, order := range [][]int32{{0, n}, {-1}, {n - 1, 0, 1 << 30}} {
		if c, err := SoloLatency(tpu(), g, order, 2, 2); err == nil {
			t.Errorf("order %v over %d ops: latency %v and no error", order, n, c)
		}
	}
}
