package core

import (
	"math"
	"testing"
	"testing/quick"

	"neu10/internal/arch"
	"neu10/internal/compiler"
	"neu10/internal/model"
)

func TestVNPUConfigValidate(t *testing.T) {
	good := VNPUConfig{1, 1, 2, 2, 64 << 20, 16 << 30}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []VNPUConfig{
		{0, 1, 2, 2, 1, 1},
		{1, 0, 2, 2, 1, 1},
		{1, 1, 0, 2, 1, 1}, // every vNPU has ≥1 ME (§III-B)
		{1, 1, 2, 0, 1, 1},
		{1, 1, 2, 2, 0, 1},
		{1, 1, 2, 2, 1, 0},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d validated: %+v", i, c)
		}
	}
}

// TestEq1KnownValues pins Eq. 1 against hand-computed values.
func TestEq1KnownValues(t *testing.T) {
	// m=1, v=0.5: ME-only 0.5, VE-only 0, concurrent 0.5.
	got := NormalizedTime(1, 0.5, 2, 1)
	want := 0.5/2 + 0.0/1 + 0.5/1
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("T(1,0.5,2,1) = %v, want %v", got, want)
	}
	// Equal engines, fully concurrent workload halves on 2+2.
	got = NormalizedTime(1, 1, 2, 2)
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("T(1,1,2,2) = %v, want 0.5", got)
	}
	// 1 ME + 1 VE is the unit baseline for any compute-bound profile.
	for _, mv := range [][2]float64{{1, 0.3}, {0.6, 0.6}, {0.2, 0.9}} {
		if mv[0]+mv[1] < 1 {
			continue
		}
		if d := math.Abs(NormalizedTime(mv[0], mv[1], 1, 1) - 1); d > 1e-12 {
			t.Fatalf("T(m=%v,v=%v,1,1) != 1 (off by %v)", mv[0], mv[1], d)
		}
	}
}

// TestEq4MatchesBruteForce verifies the paper's closed-form Eq. 4 against
// exhaustive search of Eq. 2 over fine-grained splits: the closed-form
// k must achieve utilization within a hair of the best real split.
func TestEq4MatchesBruteForce(t *testing.T) {
	f := func(mRaw, vRaw uint16) bool {
		m := float64(mRaw%1000)/1000*0.5 + 0.5 // m in [0.5, 1)
		v := 1 - m + float64(vRaw%1000)/1000*(1-(1-m))
		if v > 1 {
			v = 1
		}
		// Continuous check: evaluate U on a fine grid of k with nv=100.
		kStar := OptimalRatio(m, v)
		const nv = 100
		nmStar := int(math.Round(kStar * nv))
		if nmStar < 1 {
			nmStar = 1
		}
		uStar := Utilization(m, v, nmStar, nv)
		for nm := 1; nm <= 400; nm++ {
			if Utilization(m, v, nm, nv) > uStar+1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalRatioCases(t *testing.T) {
	// m ≥ 0.5 and v ≥ 0.5 → equal split.
	if OptimalRatio(0.7, 0.8) != 1 {
		t.Fatal("balanced profile should give k=1")
	}
	// VE-heavy (m < 0.5): fewer MEs than VEs.
	if k := OptimalRatio(0.2, 0.9); k >= 1 {
		t.Fatalf("VE-heavy profile gave k=%v ≥ 1", k)
	}
	// ME-heavy (v < 0.5): more MEs than VEs.
	if k := OptimalRatio(0.95, 0.3); k <= 1 {
		t.Fatalf("ME-heavy profile gave k=%v ≤ 1", k)
	}
}

func TestChooseSplitMEHeavyVsVEHeavy(t *testing.T) {
	a, err := NewAllocator(arch.TPUv4Like())
	if err != nil {
		t.Fatal(err)
	}
	// BERT-like profile: heavily ME-active.
	nm, nv, err := a.ChooseSplit(0.97, 0.18, 8)
	if err != nil {
		t.Fatal(err)
	}
	if nm <= nv {
		t.Fatalf("ME-heavy split gave %d MEs / %d VEs", nm, nv)
	}
	// DLRM-like profile: heavily VE-active.
	nm, nv, err = a.ChooseSplit(0.02, 0.9, 8)
	if err != nil {
		t.Fatal(err)
	}
	if nm >= nv {
		t.Fatalf("VE-heavy split gave %d MEs / %d VEs", nm, nv)
	}
	if nm < 1 {
		t.Fatal("split dropped below 1 ME")
	}
}

func TestChooseSplitErrors(t *testing.T) {
	a, _ := NewAllocator(arch.TPUv4Like())
	if _, _, err := a.ChooseSplit(0.5, 0.5, 1); err == nil {
		t.Fatal("1-EU budget accepted")
	}
	if _, _, err := a.ChooseSplit(-0.1, 0.5, 4); err == nil {
		t.Fatal("negative m accepted")
	}
	if _, _, err := a.ChooseSplit(0.5, 1.2, 4); err == nil {
		t.Fatal("v > 1 accepted")
	}
}

// TestFig12SelectionWalk reproduces Fig. 12's qualitative result: for an
// ME-intensive model the selected configs hold more MEs than VEs at every
// budget; for a balanced model (EfficientNet) they stay near-equal; and
// selected speedup is monotonically non-decreasing in the budget.
func TestFig12SelectionWalk(t *testing.T) {
	tpu := arch.TPUv4Like()
	a, _ := NewAllocator(tpu)
	cm := compiler.NewCostModel(tpu)

	prof := func(name string) compiler.Profile {
		g, err := model.Build(name, 32)
		if err != nil {
			t.Fatal(err)
		}
		return cm.ProfileGraph(g)
	}

	bert := prof("BERT")
	prevSpeedup := 0.0
	for total := 2; total <= 16; total++ {
		nm, nv, err := a.ChooseSplit(bert.M, bert.V, total)
		if err != nil {
			t.Fatal(err)
		}
		if nm < nv {
			t.Errorf("BERT at %d EUs: selected %d MEs < %d VEs", total, nm, nv)
		}
		sp := 1 / NormalizedTime(bert.M, bert.V, nm, nv)
		if sp+1e-9 < prevSpeedup {
			t.Errorf("BERT speedup not monotone at %d EUs: %.3f < %.3f", total, sp, prevSpeedup)
		}
		prevSpeedup = sp
	}

	enetGraph, _ := model.Build("ENet", 32)
	enet := cm.ProfileGraph(enetGraph)
	for total := 2; total <= 16; total += 2 {
		nm, nv, err := a.ChooseSplit(enet.M, enet.V, total)
		if err != nil {
			t.Fatal(err)
		}
		if d := nm - nv; d < -2 || d > 2 {
			t.Errorf("ENet at %d EUs: selected (%d,%d), expected near-balanced", total, nm, nv)
		}
	}
}

func TestSweepMarksExactlyOneSelectionPerBudget(t *testing.T) {
	a, _ := NewAllocator(arch.TPUv4Like())
	points := a.Sweep(0.9, 0.4, 16)
	count := map[int]int{}
	for _, p := range points {
		if p.MEs+p.VEs != p.TotalEUs {
			t.Fatalf("sweep point %+v inconsistent", p)
		}
		if p.Selected {
			count[p.TotalEUs]++
		}
	}
	for total := 2; total <= 16; total++ {
		if count[total] != 1 {
			t.Fatalf("budget %d has %d selected configs", total, count[total])
		}
	}
}

func TestAllocateSizesMemory(t *testing.T) {
	tpu := arch.TPUv4Like()
	a, _ := NewAllocator(tpu)
	g, _ := model.Build("BERT", 8)
	p := compiler.NewCostModel(tpu).ProfileGraph(g)
	al, err := a.Allocate(p, g.HBMFootprint, 4)
	if err != nil {
		t.Fatal(err)
	}
	if al.MEs+al.VEs != 4 {
		t.Fatalf("allocation EUs %d+%d != 4", al.MEs, al.VEs)
	}
	if al.HBMBytes < g.HBMFootprint {
		t.Fatal("HBM allocation below footprint")
	}
	if al.SRAMBytes <= 0 || al.SRAMBytes > tpu.SRAMBytes {
		t.Fatalf("SRAM allocation %d out of range", al.SRAMBytes)
	}
	cfg := a.ConfigFor(al)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMapperSpatialIsolation(t *testing.T) {
	tpu := arch.TPUv4Like()
	mp, err := NewMapper(1, tpu)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id, mes, ves int) *VNPU {
		return &VNPU{ID: id, Config: VNPUConfig{1, 1, mes, ves, 32 << 20, 8 << 30}, State: StateCreated}
	}
	a, b := mk(0, 2, 2), mk(1, 2, 2)
	if err := mp.Map(a, SpatialIsolated); err != nil {
		t.Fatal(err)
	}
	if err := mp.Map(b, SpatialIsolated); err != nil {
		t.Fatal(err)
	}
	// Engines must not overlap.
	seen := map[int]bool{}
	for _, me := range append(append([]int{}, a.Mapping.MEs...), b.Mapping.MEs...) {
		if seen[me] {
			t.Fatalf("ME %d double-assigned", me)
		}
		seen[me] = true
	}
	// Third 2+2 vNPU cannot fit a 4-ME core.
	c := mk(2, 2, 2)
	if err := mp.Map(c, SpatialIsolated); err == nil {
		t.Fatal("overcommitted spatial mapping accepted")
	}
	// After freeing one, it fits.
	if err := mp.Unmap(a); err != nil {
		t.Fatal(err)
	}
	if a.State != StateFreed {
		t.Fatalf("state after unmap = %v", a.State)
	}
	if err := mp.Map(c, SpatialIsolated); err != nil {
		t.Fatalf("mapping after free failed: %v", err)
	}
}

func TestMapperTemporalOversubscription(t *testing.T) {
	tpu := arch.TPUv4Like()
	mp, _ := NewMapper(1, tpu)
	// Four 2+2 vNPUs on a 4+4 core: 2x oversubscribed, allowed.
	for i := 0; i < 4; i++ {
		v := &VNPU{ID: i, Config: VNPUConfig{1, 1, 2, 2, 8 << 20, 4 << 30}, State: StateCreated}
		if err := mp.Map(v, TemporalShared); err != nil {
			t.Fatalf("vNPU %d: %v", i, err)
		}
	}
	if got := mp.PNPUs()[0].TemporalLoad(); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("temporal load %v, want 2.0", got)
	}
	// Memory is never oversubscribed: segments are physical.
	big := &VNPU{ID: 99, Config: VNPUConfig{1, 1, 1, 1, 8 << 20, 60 << 30}, State: StateCreated}
	if err := mp.Map(big, TemporalShared); err == nil {
		t.Fatal("HBM oversubscription accepted")
	}
}

func TestMapperBalancesEUsAndMemory(t *testing.T) {
	// Paper §III-C: vNPUs with many EUs and small memory should collocate
	// with vNPUs with few EUs and large memory.
	tpu := arch.TPUv4Like()
	mp, _ := NewMapper(2, tpu)
	euHeavy := &VNPU{ID: 0, Config: VNPUConfig{1, 1, 3, 3, 8 << 20, 2 << 30}, State: StateCreated}
	if err := mp.Map(euHeavy, SpatialIsolated); err != nil {
		t.Fatal(err)
	}
	memHeavy := &VNPU{ID: 1, Config: VNPUConfig{1, 1, 1, 1, 8 << 20, 48 << 30}, State: StateCreated}
	if err := mp.Map(memHeavy, SpatialIsolated); err != nil {
		t.Fatal(err)
	}
	if euHeavy.Mapping.PNPU != memHeavy.Mapping.PNPU {
		t.Fatal("complementary vNPUs not collocated by the balance policy")
	}
}

func TestSegmentTranslation(t *testing.T) {
	m := &Mapping{
		SRAMSegments: []int{5, 9},
		HBMSegments:  []int{3, 0, 7},
	}
	// vaddr in segment 1 at offset 100.
	pa, err := m.TranslateHBM(HBMSegmentBytes + 100)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 0*HBMSegmentBytes+100 {
		t.Fatalf("HBM translation %d", pa)
	}
	if _, err := m.TranslateHBM(3 * HBMSegmentBytes); err == nil {
		t.Fatal("out-of-range HBM access did not fault")
	}
	pa, err = m.TranslateSRAM(SRAMSegmentBytes * 2 / 2)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 9*SRAMSegmentBytes {
		t.Fatalf("SRAM translation %d", pa)
	}
	if _, err := m.TranslateSRAM(-1); err == nil {
		t.Fatal("negative address did not fault")
	}
}

func TestSegmentTranslationProperty(t *testing.T) {
	m := &Mapping{HBMSegments: []int{2, 4, 6, 8}}
	f := func(raw uint32) bool {
		vaddr := int64(raw) % (4 * HBMSegmentBytes)
		pa, err := m.TranslateHBM(vaddr)
		if err != nil {
			return false
		}
		// Offset preserved, segment remapped, no cross-segment bleed.
		return pa%HBMSegmentBytes == vaddr%HBMSegmentBytes &&
			pa/HBMSegmentBytes == int64(m.HBMSegments[vaddr/HBMSegmentBytes])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
