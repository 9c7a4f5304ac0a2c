package virt

import (
	"reflect"
	"strings"
	"testing"

	"neu10/internal/arch"
	"neu10/internal/compiler"
	"neu10/internal/core"
	"neu10/internal/isa"
	"neu10/internal/tensor"
)

func testHV(t *testing.T) *Hypervisor {
	t.Helper()
	hv, err := NewHypervisor(2, arch.TPUv4Like())
	if err != nil {
		t.Fatal(err)
	}
	return hv
}

func smallVNPU() core.VNPUConfig {
	return core.VNPUConfig{
		NumChips: 1, NumCoresPerChip: 1,
		NumMEsPerCore: 2, NumVEsPerCore: 2,
		SRAMSizePerCore: 8 << 20, MemSizePerCore: 2 << 30,
	}
}

func TestVNPULifecycle(t *testing.T) {
	hv := testHV(t)
	vm := NewGuestVM("tenant-a", 1<<16)
	drv, err := Attach(hv, vm, smallVNPU(), core.SpatialIsolated)
	if err != nil {
		t.Fatal(err)
	}
	if hv.Live() != 1 {
		t.Fatalf("live VFs = %d", hv.Live())
	}
	h := drv.Hierarchy()
	if h.NumMEsPerCore != 2 || h.NumVEsPerCore != 2 {
		t.Fatalf("hierarchy %+v", h)
	}
	if drv.Status() != StatusIdle {
		t.Fatal("fresh device not idle")
	}
	if err := drv.Detach(); err != nil {
		t.Fatal(err)
	}
	if hv.Live() != 0 || drv.vf.VNPU.State != core.StateFreed {
		t.Fatal("vNPU not torn down")
	}
}

// TestHypercallLifecycle drives the three management hypercalls
// directly: create maps the vNPU, reconfigure applies a bigger shape,
// and free unregisters it so no later hypercall can reach it.
func TestHypercallLifecycle(t *testing.T) {
	hv := testHV(t)
	vf, err := hv.HypercallCreateVNPU(NewGuestVM("tenant-a", 1<<16), smallVNPU(), core.SpatialIsolated)
	if err != nil {
		t.Fatal(err)
	}
	if vf.VNPU.State != core.StateMapped || hv.Live() != 1 {
		t.Fatalf("state %v and %d live VFs after create", vf.VNPU.State, hv.Live())
	}
	cfg := smallVNPU()
	cfg.NumMEsPerCore = 3
	if err := hv.HypercallReconfigureVNPU(vf, cfg); err != nil {
		t.Fatal(err)
	}
	if vf.VNPU.Config != cfg || vf.VNPU.State != core.StateMapped {
		t.Fatalf("reconfigure did not apply: config %+v, state %v", vf.VNPU.Config, vf.VNPU.State)
	}
	if err := hv.HypercallFreeVNPU(vf); err != nil {
		t.Fatal(err)
	}
	if hv.Live() != 0 || vf.VNPU.State != core.StateFreed {
		t.Fatal("vNPU still live after free")
	}
	if err := hv.HypercallFreeVNPU(vf); err == nil {
		t.Fatal("freed vNPU freed again")
	}
	if err := hv.HypercallReconfigureVNPU(vf, smallVNPU()); err == nil {
		t.Fatal("freed vNPU reconfigured")
	}
}

func TestHypercallReconfigure(t *testing.T) {
	hv := testHV(t)
	vm := NewGuestVM("t", 1<<16)
	drv, err := Attach(hv, vm, smallVNPU(), core.SpatialIsolated)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallVNPU()
	cfg.NumMEsPerCore = 3
	if err := hv.HypercallReconfigureVNPU(drv.vf, cfg); err != nil {
		t.Fatal(err)
	}
	if drv.Hierarchy().NumMEsPerCore != 3 {
		t.Fatal("reconfigure did not apply")
	}
}

// TestHypercallReconfigureResizesDevice grows a vNPU from 2 to 3 MEs
// and runs a VLIW binary compiled for 3 MEs on it: the device must have
// been rebuilt at the new size and kept the HBM word written before.
func TestHypercallReconfigureResizesDevice(t *testing.T) {
	hv := testHV(t)
	vm := NewGuestVM("t", 1<<16)
	drv, err := Attach(hv, vm, smallVNPU(), core.SpatialIsolated)
	if err != nil {
		t.Fatal(err)
	}
	if err := drv.MapDMA(0, PageWords); err != nil {
		t.Fatal(err)
	}
	vm.Mem[0] = 42
	if err := drv.MemcpyH2D(100, 0, 1); err != nil {
		t.Fatal(err)
	}
	drv.RingDoorbell()
	cfg := smallVNPU()
	cfg.NumMEsPerCore = 3
	if err := hv.HypercallReconfigureVNPU(drv.vf, cfg); err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.LowerMatMulVLIW(12, 16, isa.VectorLanes, 3, false,
		compiler.MatMulLayout{ABase: 0, BBase: 4096, CBase: 8192}, 3)
	if err != nil {
		t.Fatal(err)
	}
	before := drv.Completions()
	if err := drv.LaunchVLIW(prog); err != nil {
		t.Fatal(err)
	}
	drv.RingDoorbell()
	if drv.Status() != StatusIdle || drv.Completions() != before+1 {
		t.Fatalf("3-ME binary on the grown vNPU: status %d and %d completions, want status %d and 1",
			drv.Status(), drv.Completions()-before, StatusIdle)
	}
	if err := drv.MemcpyD2H(1, 100, 1); err != nil {
		t.Fatal(err)
	}
	drv.RingDoorbell()
	if vm.Mem[1] != 42 {
		t.Fatalf("HBM word read back as %v after the resize, want 42", vm.Mem[1])
	}
}

// TestHypercallReconfigureRollsBack has two guests fill one core;
// growing one of them cannot fit, so its config, state, mapping and
// device must be restored.
func TestHypercallReconfigureRollsBack(t *testing.T) {
	hv, err := NewHypervisor(1, arch.TPUv4Like())
	if err != nil {
		t.Fatal(err)
	}
	drvA, err := Attach(hv, NewGuestVM("a", 1<<16), smallVNPU(), core.SpatialIsolated)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(hv, NewGuestVM("b", 1<<16), smallVNPU(), core.SpatialIsolated); err != nil {
		t.Fatal(err)
	}
	v := drvA.vf.VNPU
	oldMap, oldDev := *v.Mapping, drvA.vf.dev
	cfg := smallVNPU()
	cfg.NumMEsPerCore = 3 // B holds 2 of the core's 4 MEs
	if err := hv.HypercallReconfigureVNPU(drvA.vf, cfg); err == nil {
		t.Fatal("impossible reconfigure succeeded")
	}
	if v.Config != smallVNPU() || v.State != core.StateMapped {
		t.Fatalf("rollback failed: config %+v, state %v", v.Config, v.State)
	}
	if !reflect.DeepEqual(*v.Mapping, oldMap) || drvA.vf.dev != oldDev {
		t.Fatalf("rollback changed the binding: mapping %+v, want %+v", *v.Mapping, oldMap)
	}
}

// TestEndToEndInference drives the full stack: guest writes tensors into
// its memory, maps DMA buffers, copies to the device, launches a staged
// NeuISA matmul, copies the result back, and checks it against the
// reference — with zero hypercalls on the submission path.
func TestEndToEndInference(t *testing.T) {
	const m, k, n = 16, 64, isa.VectorLanes
	hv := testHV(t)
	vm := NewGuestVM("tenant-a", 1<<20)
	drv, err := Attach(hv, vm, smallVNPU(), core.SpatialIsolated)
	if err != nil {
		t.Fatal(err)
	}

	// Guest-side data (page-aligned buffers).
	a := tensor.New(m, k)
	bm := tensor.New(k, n)
	for i := range a.Data {
		a.Data[i] = float32(i%13) - 6
	}
	for i := range bm.Data {
		bm.Data[i] = float32(i%7)/2 - 1.5
	}
	want := tensor.ReLU(tensor.MatMul(a, bm))

	const gA, gB, gC = 0, 8 * PageWords, 16 * PageWords
	copy(vm.Mem[gA:], a.Data)
	copy(vm.Mem[gB:], bm.Data)
	for _, buf := range [][2]int64{{gA, m * k}, {gB, k * n}, {gC, m * n}} {
		if err := drv.MapDMA(buf[0], buf[1]); err != nil {
			t.Fatal(err)
		}
	}
	setupCalls := hv.Hypercalls

	// Device memory layout (vNPU HBM words) and SRAM staging layout.
	const hA, hB, hC = 0, 16384, 32768
	const sA, sB, sC = 0, 8192, 65536
	prog, err := compiler.LowerMatMul(m, k, n, 2, true,
		compiler.MatMulLayout{ABase: sA, BBase: sB, CBase: sC}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := compiler.WrapWithHBMStaging(prog,
		[]compiler.Transfer{{SRAM: sA, HBM: hA, Words: m * k}, {SRAM: sB, HBM: hB, Words: k * n}},
		[]compiler.Transfer{{SRAM: sC, HBM: hC, Words: m * n}}); err != nil {
		t.Fatal(err)
	}

	// Submission path: command ring + doorbell, no hypervisor.
	completions := 0
	drv.OnCompletion(func(uint64) { completions++ })
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(drv.MemcpyH2D(hA, gA, m*k))
	must(drv.MemcpyH2D(hB, gB, k*n))
	must(drv.Launch(prog))
	must(drv.MemcpyD2H(gC, hC, m*n))
	drv.RingDoorbell()

	if drv.Status() != StatusIdle {
		t.Fatalf("device status %d after run", drv.Status())
	}
	if drv.Completions() != 4 || completions != 4 {
		t.Fatalf("completions = %d (interrupts %d), want 4", drv.Completions(), completions)
	}
	if hv.Hypercalls != setupCalls {
		t.Fatalf("submission path made %d hypercalls", hv.Hypercalls-setupCalls)
	}

	got := tensor.New(m, n)
	copy(got.Data, vm.Mem[gC:gC+m*n])
	if d := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Fatalf("end-to-end result differs from reference by %v", d)
	}
}

func TestIOMMUFaultStopsDevice(t *testing.T) {
	hv := testHV(t)
	vm := NewGuestVM("t", 1<<18)
	drv, err := Attach(hv, vm, smallVNPU(), core.SpatialIsolated)
	if err != nil {
		t.Fatal(err)
	}
	// No MapDMA: the copy must fault and set error status.
	if err := drv.MemcpyH2D(0, 0, 128); err != nil {
		t.Fatal(err)
	}
	drv.RingDoorbell()
	if drv.Status() != StatusError {
		t.Fatalf("unmapped DMA did not fault the device (status %d)", drv.Status())
	}
	if drv.Completions() != 0 {
		t.Fatal("faulting command counted as completed")
	}
}

func TestIOMMUUnmapRevokesAccess(t *testing.T) {
	hv := testHV(t)
	vm := NewGuestVM("t", 1<<18)
	drv, err := Attach(hv, vm, smallVNPU(), core.SpatialIsolated)
	if err != nil {
		t.Fatal(err)
	}
	if err := drv.MapDMA(0, PageWords); err != nil {
		t.Fatal(err)
	}
	if err := drv.MemcpyH2D(0, 0, 64); err != nil {
		t.Fatal(err)
	}
	drv.RingDoorbell()
	if drv.Status() != StatusIdle {
		t.Fatal("mapped DMA failed")
	}
	drv.vf.domain.Unmap(0, PageWords)
	if err := drv.MemcpyH2D(0, 0, 64); err != nil {
		t.Fatal(err)
	}
	drv.RingDoorbell()
	if drv.Status() != StatusError {
		t.Fatal("revoked mapping still usable")
	}
}

func TestIOMMURejectsUnalignedAndOutOfRange(t *testing.T) {
	i := NewIOMMU()
	vm := NewGuestVM("t", PageWords*4)
	d := i.CreateDomain(vm)
	if err := d.Map(5, 100); err == nil {
		t.Fatal("unaligned map accepted")
	}
	if err := d.Map(0, PageWords*100); err == nil {
		t.Fatal("out-of-range map accepted")
	}
	if err := d.Map(PageWords, PageWords); err != nil {
		t.Fatal(err)
	}
}

func TestCommandRingFIFOAndOverflow(t *testing.T) {
	r := NewCommandRing(4)
	for i := 0; i < 4; i++ {
		if err := r.Push(Command{Dev: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Push(Command{}); err == nil {
		t.Fatal("overflow accepted")
	}
	for i := 0; i < 4; i++ {
		c, ok := r.Pop()
		if !ok || c.Dev != int64(i) {
			t.Fatalf("FIFO broken at %d: %+v", i, c)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("empty ring popped")
	}
	// Wrap-around reuse.
	for i := 0; i < 6; i++ {
		if err := r.Push(Command{Dev: int64(100 + i)}); err != nil {
			t.Fatal(err)
		}
		c, _ := r.Pop()
		if c.Dev != int64(100+i) {
			t.Fatal("wraparound broken")
		}
	}
}

func TestTwoTenantsIsolatedMemories(t *testing.T) {
	hv := testHV(t)
	vmA := NewGuestVM("a", 1<<18)
	vmB := NewGuestVM("b", 1<<18)
	drvA, err := Attach(hv, vmA, smallVNPU(), core.SpatialIsolated)
	if err != nil {
		t.Fatal(err)
	}
	drvB, err := Attach(hv, vmB, smallVNPU(), core.SpatialIsolated)
	if err != nil {
		t.Fatal(err)
	}
	if err := drvA.MapDMA(0, PageWords); err != nil {
		t.Fatal(err)
	}
	if err := drvB.MapDMA(0, PageWords); err != nil {
		t.Fatal(err)
	}
	vmA.Mem[7] = 111
	vmB.Mem[7] = 222
	// Round-trip each tenant's word through its own device HBM; the D2H
	// target PageWords/2 lies inside the already-mapped first page.
	for _, d := range []*Driver{drvA, drvB} {
		if err := d.MemcpyH2D(0, 0, 16); err != nil {
			t.Fatal(err)
		}
		if err := d.MemcpyD2H(PageWords/2, 0, 16); err != nil {
			t.Fatal(err)
		}
	}
	drvA.RingDoorbell()
	drvB.RingDoorbell()
	if drvB.Status() == StatusError || drvA.Status() == StatusError {
		t.Fatal("device errored")
	}
	if vmA.Mem[PageWords/2+7] != 111 || vmB.Mem[PageWords/2+7] != 222 {
		t.Fatalf("cross-tenant contamination: A=%v B=%v",
			vmA.Mem[PageWords/2+7], vmB.Mem[PageWords/2+7])
	}
}

func TestOversizedVNPURejected(t *testing.T) {
	hv := testHV(t)
	vm := NewGuestVM("t", 1<<16)
	cfg := smallVNPU()
	cfg.NumMEsPerCore = 99
	if _, err := Attach(hv, vm, cfg, core.SpatialIsolated); err == nil {
		t.Fatal("oversized vNPU accepted")
	}
	if hv.Live() != 0 {
		t.Fatal("failed attach leaked a VF")
	}
}

// TestHypercallRejectsOversizedVNPU caps create and reconfigure at the
// physical core in both isolation modes.
func TestHypercallRejectsOversizedVNPU(t *testing.T) {
	hv := testHV(t)
	vm := NewGuestVM("t", 1<<16)
	cfg := smallVNPU()
	cfg.NumMEsPerCore = arch.TPUv4Like().MEs + 1
	for _, mode := range []core.IsolationMode{core.SpatialIsolated, core.TemporalShared} {
		if _, err := hv.HypercallCreateVNPU(vm, cfg, mode); err == nil {
			t.Fatalf("%s vNPU bigger than the physical core accepted", mode)
		}
	}
	if hv.Live() != 0 {
		t.Fatal("failed create leaked a VF")
	}
	// A temporal-shared vNPU claims no engines, so only the cap at the
	// physical core stops it growing past one.
	vf, err := hv.HypercallCreateVNPU(vm, smallVNPU(), core.TemporalShared)
	if err != nil {
		t.Fatal(err)
	}
	if err := hv.HypercallReconfigureVNPU(vf, cfg); err == nil {
		t.Fatal("vNPU grown past the physical core")
	}
	if vf.VNPU.Config != smallVNPU() {
		t.Fatalf("rejected reconfigure changed the config to %+v", vf.VNPU.Config)
	}
}

func TestBadProgramFaultsDevice(t *testing.T) {
	hv := testHV(t)
	vm := NewGuestVM("t", 1<<16)
	drv, err := Attach(hv, vm, smallVNPU(), core.SpatialIsolated)
	if err != nil {
		t.Fatal(err)
	}
	if err := drv.Submit(Command{Op: CmdLaunch, Prog: []byte("garbage")}); err != nil {
		t.Fatal(err)
	}
	drv.RingDoorbell()
	if drv.Status() != StatusError {
		t.Fatal("garbage binary did not fault")
	}
}

// TestBadGuestProgramIsolated has guest A launch a binary that names
// register %r40 (VLIW), pushes a negative-length row (NeuISA) or pushes
// rows forever without popping them (NeuISA): A's VF must fault within
// a few thousand cycles, and guest B on the same hypervisor must still
// run a VLIW program (DMA in, one vector op, DMA out) to the exact
// result.
func TestBadGuestProgramIsolated(t *testing.T) {
	f := isa.Format{MESlots: 1, VESlots: 1}
	badReg := isa.NewInstruction(f)
	badReg.Misc = isa.SMovI(40, 1)
	halt := isa.NewInstruction(f)
	halt.Misc = isa.Halt()
	badVLIW := &isa.Program{Format: f, Code: []isa.Instruction{badReg, halt}}
	badNeu, err := isa.Assemble(".neuisa veslots=1\n.utop me bad\n    me.push [%r1], -4\n    uTop.finish\n.group bad\n")
	if err != nil {
		t.Fatal(err)
	}
	pushFlood, err := isa.Assemble(".neuisa veslots=1\n.utop me flood\n    me.loadw [%r0], 8, 8\nL:\n    me.push [%r0], 8\n    beq %r0, %r0, @L\n    uTop.finish\n.group flood\n")
	if err != nil {
		t.Fatal(err)
	}

	const n = isa.VectorLanes
	const sIn, sOut, hIn, hOut = 256, 512, 0, 1024
	b := isa.NewBuilder(isa.Format{VESlots: 1})
	b.Misc(isa.SMovI(1, sIn)).End()
	b.Misc(isa.SMovI(4, hIn)).End()
	b.Misc(isa.DMALoad(1, 4, n)).End()
	b.LS(isa.Operation{Op: isa.OpVLoad, Dst: 1, A: 1}).End()
	b.VE(isa.Operation{Op: isa.OpVAddS, Dst: 2, A: 1, Imm: 3}).End()
	b.LS(isa.VStore(1, 2, sOut-sIn)).End()
	b.Misc(isa.SMovI(2, hOut)).End()
	b.Misc(isa.SMovI(3, sOut)).End()
	b.Misc(isa.DMAStore(2, 3, n)).End()
	b.Misc(isa.Halt()).End()
	code, err := b.Code()
	if err != nil {
		t.Fatal(err)
	}
	good := &isa.Program{Format: isa.Format{VESlots: 1}, Code: code}

	for _, bad := range []struct {
		name   string
		launch func(*Driver) error
	}{
		{"VLIW register 40", func(d *Driver) error { return d.LaunchVLIW(badVLIW) }},
		{"NeuISA negative push", func(d *Driver) error { return d.Launch(badNeu) }},
		{"NeuISA push without pop", func(d *Driver) error { return d.Launch(pushFlood) }},
	} {
		t.Run(bad.name, func(t *testing.T) {
			hv := testHV(t)
			vmA, vmB := NewGuestVM("a", 1<<16), NewGuestVM("b", 1<<16)
			drvA, err := Attach(hv, vmA, smallVNPU(), core.SpatialIsolated)
			if err != nil {
				t.Fatal(err)
			}
			drvB, err := Attach(hv, vmB, smallVNPU(), core.SpatialIsolated)
			if err != nil {
				t.Fatal(err)
			}
			if err := bad.launch(drvA); err != nil {
				t.Fatal(err)
			}
			drvA.RingDoorbell()
			if drvA.Status() != StatusError {
				t.Fatalf("guest A status %d, want StatusError", drvA.Status())
			}
			if n := drvA.vf.dev.Instructions; n > 1<<16 {
				t.Fatalf("guest A ran %d instructions before its fault", n)
			}

			if err := drvB.MapDMA(0, PageWords); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				vmB.Mem[i] = float32(i) - 50
			}
			for _, err := range []error{
				drvB.MemcpyH2D(hIn, 0, n),
				drvB.LaunchVLIW(good),
				drvB.MemcpyD2H(PageWords/2, hOut, n),
			} {
				if err != nil {
					t.Fatal(err)
				}
			}
			drvB.RingDoorbell()
			if drvB.Status() != StatusIdle {
				t.Fatalf("guest B status %d, want StatusIdle", drvB.Status())
			}
			for i := 0; i < n; i++ {
				if got, want := vmB.Mem[PageWords/2+i], float32(i)-47; got != want {
					t.Fatalf("guest B word %d = %v, want %v", i, got, want)
				}
			}
		})
	}
}

func TestTemporalSharedAttach(t *testing.T) {
	hv := testHV(t)
	// Four 2+2 vNPUs on two 4+4 cores via temporal sharing.
	for i := 0; i < 4; i++ {
		vm := NewGuestVM(strings.Repeat("x", i+1), 1<<14)
		if _, err := Attach(hv, vm, smallVNPU(), core.TemporalShared); err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
	}
	if hv.Live() != 4 {
		t.Fatalf("live = %d", hv.Live())
	}
}
