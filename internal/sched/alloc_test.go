package sched

import (
	"runtime"
	"testing"

	"neu10/internal/compiler"
)

// TestSimulatorAllocBudget is the allocation budget for the fluid
// simulator's event loop. The loop recycles µTOps and keeps every
// per-event temporary in Simulator scratch, so a full steady-state run
// should cost only the per-run setup (simulator construction, metrics,
// result collection) — a few hundred objects — rather than the
// hundreds of thousands per run the allocating version performed.
// The budget is deliberately loose (1500) to stay robust across Go
// versions while still catching any reintroduced per-event allocation
// (each run executes ~960 events). The byte budget, 16 KB, catches a
// per-event series that grows by appending, which costs few objects
// but many bytes: an unsampled run records no timeline.
func TestSimulatorAllocBudget(t *testing.T) {
	graphA := synth(compiler.ISANeu,
		meOp(4, 3000, 800), veOp(4000), meOp(2, 1500, 2200), meOp(3, 2500, 0))
	graphB := synth(compiler.ISANeu,
		meOp(2, 2000, 500), meOp(4, 1000, 1500), veOp(2500))
	specs := []TenantSpec{
		{Name: "A", Graph: graphA, MEs: 2, VEs: 2},
		{Name: "B", Graph: graphB, MEs: 2, VEs: 2},
	}
	cfg := Config{Core: tpu(), Policy: Neu10, Requests: 50}
	if _, err := Run(cfg, specs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Run(cfg, specs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1500 {
		t.Fatalf("simulator run allocates %.0f objects, want ≤ 1500 (event-loop allocation regression?)", allocs)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Run(cfg, specs); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if bytes := (after.TotalAlloc - before.TotalAlloc) / runs; bytes > 16<<10 {
		t.Fatalf("simulator run allocates %d bytes, want ≤ 16 KB (a per-event series?)", bytes)
	}
}

// TestOpenLoopAllocBudget bounds what an open-loop run allocates per
// extra arrival. A request that arrives while its vNPU is busy waits in
// a head-indexed FIFO that reuses its array, so doubling the requests
// adds only the latency recorder's amortized growth. A queue that pops
// by re-slicing instead regrows its array behind the dead prefix: about
// one allocation every few queued arrivals.
func TestOpenLoopAllocBudget(t *testing.T) {
	core := tpu()
	g := synth(compiler.ISANeu, meOp(4, 1000, 0))
	rate := 0.9 * core.FrequencyHz / 1000 // 90% load: most arrivals queue
	run := func(requests int) float64 {
		cfg := Config{Core: core, Policy: NeuNH, Requests: requests, Seed: 7}
		specs := []TenantSpec{{Name: "ol", Graph: g, MEs: 4, VEs: 4, ArrivalRate: rate}}
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(cfg, specs); err != nil {
				t.Fatal(err)
			}
		})
	}
	a1, a2 := run(1000), run(2000)
	per := (a2 - a1) / 1000
	t.Logf("%.0f allocs at 1000 requests, %.0f at 2000: %.3f per extra arrival", a1, a2, per)
	if per > 0.02 {
		t.Errorf("%.3f allocations per extra arrival, want ≤ 0.02 (a queue that regrows as it pops?)", per)
	}
}
