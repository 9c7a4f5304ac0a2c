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

// checkSolo requires SoloLatency of cg on a mes+ves vNPU of core to
// equal, bit for bit, the MeanLatency of the one-request NeuNH Run it
// stands for.
func checkSolo(t *testing.T, core arch.CoreConfig, cg *compiler.CompiledGraph, mes, ves int, label string) {
	t.Helper()
	res, err := Run(Config{Core: core, Policy: NeuNH, Requests: 1},
		[]TenantSpec{{Name: cg.Model, Graph: cg, MEs: mes, VEs: ves}})
	if err != nil {
		t.Fatalf("%s: Run: %v", label, err)
	}
	got, err := SoloLatency(core, cg, mes, ves)
	if err != nil {
		t.Fatalf("%s: SoloLatency: %v", label, err)
	}
	if want := res.Tenants[0].MeanLatency; math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s: SoloLatency %v (%#x), Run %v (%#x)", label, got, math.Float64bits(got),
			want, math.Float64bits(want))
	}
}

// repeated returns a graph three times g's length whose operators are
// g's drawn at random, so that they repeat through shared groups.
func repeated(g *compiler.CompiledGraph, rng *sim.RNG) *compiler.CompiledGraph {
	out := *g
	out.Ops = make([]compiler.CompiledOp, 3*len(g.Ops))
	for i := range out.Ops {
		out.Ops[i] = g.Ops[rng.Intn(len(g.Ops))]
	}
	return &out
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
		graphs = append(graphs, model.LLMPrefillChunk(s[0], s[1], s[2]), model.LLMDecode(s[0], s[1]+s[2]))
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
			checkSolo(t, sub, cg, n, n, fmt.Sprintf("%s b%d on %dME+%dVE", g.Model, g.BatchSize, n, n))
		}
	}
}

// TestSoloLatencyRandomRepeats covers randGraph graphs, every other
// one varied per µTOp with HBM traffic, and copies of them whose
// operators repeat through shared groups, on every split of the 4+4
// core.
func TestSoloLatencyRandomRepeats(t *testing.T) {
	rng := sim.NewRNG(35)
	for trial := 0; trial < 60; trial++ {
		g := randGraph(rng, compiler.ISANeu)
		if trial%2 == 1 {
			vary(g, rng)
		}
		mes, ves := 1+trial%4, 1+trial/4%4
		label := fmt.Sprintf("trial %d on %dME+%dVE", trial, mes, ves)
		checkSolo(t, tpu(), g, mes, ves, label)
		checkSolo(t, tpu(), repeated(g, rng), mes, ves, label+", repeated")
	}
}
