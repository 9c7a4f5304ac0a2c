package model

import (
	"testing"

	"neu10/internal/arch"
	"neu10/internal/compiler"
)

func cm() *compiler.CostModel { return compiler.NewCostModel(arch.TPUv4Like()) }

func TestAllModelsBuildAndValidate(t *testing.T) {
	for _, name := range Names() {
		for _, batch := range []int{1, 8, 32} {
			g, err := Build(name, batch)
			if err != nil {
				t.Fatalf("%s batch %d: %v", name, batch, err)
			}
			if g.Model != name {
				t.Fatalf("graph model %q for %q", g.Model, name)
			}
			if g.BatchSize != batch {
				t.Fatalf("%s: batch %d recorded as %d", name, batch, g.BatchSize)
			}
		}
	}
}

func TestUnknownModelRejected(t *testing.T) {
	if _, err := Build("GPT7", 8); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := Build("BERT", 0); err == nil {
		t.Fatal("batch 0 accepted")
	}
}

func TestRegistryHasAllPaperModels(t *testing.T) {
	want := []string{"BERT", "TFMR", "DLRM", "NCF", "MRCNN", "RtNt", "SMask", "MNIST", "RsNt", "RNRS", "ENet", "LLaMA"}
	have := map[string]bool{}
	for _, n := range Names() {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("paper model %s missing from registry", w)
		}
	}
	if len(Names()) != len(want) {
		t.Errorf("registry has %d models, want %d", len(Names()), len(want))
	}
}

// TestTableIFootprints checks the Table I column: footprints at batch 8
// must land near the published values (within 2× — the graphs stand in
// for hardware traces, see the package doc) and preserve the published
// ordering.
func TestTableIFootprints(t *testing.T) {
	published := map[string]float64{ // bytes
		"BERT":  1.27e9 * 1.074, // paper lists GB (decimal ambiguity absorbed by the 2x band)
		"TFMR":  1.54e9 * 1.074,
		"DLRM":  22.38e9 * 1.074,
		"NCF":   11.10e9 * 1.074,
		"MRCNN": 3.21e9 * 1.074,
		"RtNt":  860.51e6 * 1.049,
		"SMask": 6.04e9 * 1.074,
		"MNIST": 10.59e6 * 1.049,
		"RsNt":  216.02e6 * 1.049,
		"RNRS":  458.17e6 * 1.049,
		"ENet":  99.06e6 * 1.049,
	}
	for name, want := range published {
		g, err := Build(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(g.HBMFootprint)
		if got < want/2 || got > want*2 {
			t.Errorf("%s footprint %.2f MB, paper %.2f MB (outside 2x band)",
				name, got/1e6, want/1e6)
		}
	}
}

// TestFig4IntensitySpread checks the Fig. 4 characterization: workloads
// span the VE-intensive to ME-intensive spectrum.
func TestFig4IntensitySpread(t *testing.T) {
	ratios := map[string]float64{}
	for _, name := range Names() {
		g, err := Build(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		ratios[name] = cm().IntensityRatio(g)
	}
	if ratios["DLRM"] > 0.05 {
		t.Errorf("DLRM ratio %.4f; Fig. 4 places it ≤ 0.05", ratios["DLRM"])
	}
	if ratios["NCF"] > 1 {
		t.Errorf("NCF ratio %.3f; should be VE-leaning", ratios["NCF"])
	}
	if ratios["ENet"] < 0.2 || ratios["ENet"] > 3 {
		t.Errorf("ENet ratio %.3f; should be near-balanced", ratios["ENet"])
	}
	for _, me := range []string{"BERT", "RsNt", "RtNt", "TFMR", "SMask"} {
		if ratios[me] < 2 {
			t.Errorf("%s ratio %.3f; Fig. 4 places it ME-intensive", me, ratios[me])
		}
	}
	if ratios["BERT"] <= ratios["DLRM"]*50 {
		t.Errorf("spread too narrow: BERT %.3f vs DLRM %.4f", ratios["BERT"], ratios["DLRM"])
	}
}

// TestFig4BatchScaling: BERT becomes more ME-intensive with batch size
// while DLRM stays VE-intensive regardless (paper §II-B).
func TestFig4BatchScaling(t *testing.T) {
	bertSmall, _ := Build("BERT", 1)
	bertBig, _ := Build("BERT", 32)
	if cm().IntensityRatio(bertBig) < cm().IntensityRatio(bertSmall) {
		t.Error("BERT ME intensity did not grow with batch size")
	}
	dlrmBig, _ := Build("DLRM", 32)
	if cm().IntensityRatio(dlrmBig) > 0.2 {
		t.Errorf("DLRM at batch 32 not VE-intensive: %.3f", cm().IntensityRatio(dlrmBig))
	}
}

// TestProfileExtremes: the allocator inputs (m, v) must reflect the
// workload character the paper's Fig. 5 reports.
func TestProfileExtremes(t *testing.T) {
	bert, _ := Build("BERT", 8)
	p := cm().ProfileGraph(bert)
	if p.M < 0.8 {
		t.Errorf("BERT m=%.3f; should be ME-active most of the time", p.M)
	}
	dlrm, _ := Build("DLRM", 8)
	p = cm().ProfileGraph(dlrm)
	if p.V < 0.7 {
		t.Errorf("DLRM v=%.3f; should be VE-active most of the time", p.V)
	}
	if p.M > 0.3 {
		t.Errorf("DLRM m=%.3f; MEs should be mostly idle", p.M)
	}
}

// TestLLaMAMemoryBound: the §V-F case study premise — LLaMA decode
// saturates HBM bandwidth while underutilizing compute.
func TestLLaMAMemoryBound(t *testing.T) {
	g, err := Build("LLaMA", 8)
	if err != nil {
		t.Fatal(err)
	}
	p := cm().ProfileGraph(g)
	core := arch.TPUv4Like()
	avgBW := float64(p.HBMBytes) / core.CyclesToSeconds(p.TotalCycles)
	if avgBW < 0.8*core.HBMBwBytes {
		t.Errorf("LLaMA average bandwidth %.0f GB/s; should approach the %.0f GB/s limit",
			avgBW/1e9, core.HBMBwBytes/1e9)
	}
	if p.M > 0.5 {
		t.Errorf("LLaMA m=%.3f; decode should leave MEs mostly idle", p.M)
	}
}

// TestRequestLatencyOrdering: relative 1ME/1VE runtimes must track the
// paper's Fig. 2/5 timelines (µs-scale DLRM … hundreds of ms MRCNN).
func TestRequestLatencyOrdering(t *testing.T) {
	core := arch.TPUv4Like()
	ms := func(name string) float64 {
		g, err := Build(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		return core.CyclesToSeconds(cm().ProfileGraph(g).TotalCycles) * 1e3
	}
	dlrm, mnist, bert, mrcnn := ms("DLRM"), ms("MNIST"), ms("BERT"), ms("MRCNN")
	if dlrm > 2 {
		t.Errorf("DLRM request %.3f ms; paper shows sub-millisecond", dlrm)
	}
	if mnist > dlrm {
		t.Errorf("MNIST (%.3f ms) slower than DLRM (%.3f ms)", mnist, dlrm)
	}
	if bert < 2 || bert > 80 {
		t.Errorf("BERT request %.2f ms; paper shows ~10 ms scale", bert)
	}
	if mrcnn < 50 {
		t.Errorf("MRCNN request %.1f ms; paper shows ~200 ms scale", mrcnn)
	}
	if !(dlrm < bert && bert < mrcnn) {
		t.Errorf("latency ordering broken: DLRM %.3f, BERT %.2f, MRCNN %.1f", dlrm, bert, mrcnn)
	}
}

func TestGraphsAreDeterministic(t *testing.T) {
	for _, name := range Names() {
		a, _ := Build(name, 8)
		b, _ := Build(name, 8)
		if len(a.Ops) != len(b.Ops) || a.HBMFootprint != b.HBMFootprint {
			t.Fatalf("%s: non-deterministic graph", name)
		}
		for i := range a.Ops {
			if a.Ops[i] != b.Ops[i] {
				t.Fatalf("%s: op %d differs between builds", name, i)
			}
		}
	}
}

func TestAllModelsCompileBothISAs(t *testing.T) {
	comp, err := compiler.New(arch.TPUv4Like())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
		g, err := Build(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []compiler.ISAKind{compiler.ISANeu, compiler.ISAVLIW} {
			cg, err := comp.Compile(g, kind)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, kind, err)
			}
			if err := cg.Validate(); err != nil {
				t.Fatalf("%s/%s: %v", name, kind, err)
			}
		}
	}
}
