package sched

import (
	"fmt"
	"reflect"
	"testing"

	"neu10/internal/compiler"
	"neu10/internal/isa"
	"neu10/internal/sim"
)

// Property tests: randomized workload graphs run under every policy and
// checked against structural invariants of the simulator — completion,
// determinism, work conservation, and the isolation guarantee of static
// spatial partitioning.

// randGraph builds a random compiled graph: 2-6 operators mixing ME
// groups (1-4 µTOps, with or without inline VE work), VE ops, and
// reduction-split shapes.
func randGraph(rng *sim.RNG, kind compiler.ISAKind) *compiler.CompiledGraph {
	nOps := 2 + rng.Intn(5)
	var ops []compiler.CompiledOp
	for i := 0; i < nOps; i++ {
		switch rng.Intn(4) {
		case 0: // plain ME op
			ops = append(ops, meOp(1+rng.Intn(4), uint64(500+rng.Intn(4000)), uint64(rng.Intn(800))))
		case 1: // VE op
			ops = append(ops, veOp(uint64(300+rng.Intn(5000))))
		case 2: // ME op with heavy inline VE
			ops = append(ops, meOp(1+rng.Intn(2), uint64(500+rng.Intn(1000)), uint64(1000+rng.Intn(2000))))
		default: // reduction-split: ME group then VE summation group
			op := meOp(2+rng.Intn(3), uint64(500+rng.Intn(2000)), 0)
			op.Groups = append(op.Groups, compiler.GroupSpec{UTops: []compiler.UTopSpec{
				{Kind: isa.VEUTop, VECycles: uint64(200 + rng.Intn(1000))},
			}})
			op.ReductionSplit = true
			ops = append(ops, op)
		}
	}
	return synth(kind, ops...)
}

// fluidCase is one random two-tenant scenario on the 4+4 core. Both
// graphs come from randGraph seeded with seed; tenant A gets meA MEs and
// veA VEs, tenant B the rest. With rate > 0, A's requests arrive
// open-loop at rate per second and B's at half that. cut and quantum
// are the progress (a fraction of the run) and the quantum (cycles)
// CheckpointAt is asked to split the run at.
type fluidCase struct {
	seed         uint64
	policy       Mode
	meA, veA     int
	requests     int
	rate         float64
	cut, quantum float64
}

// checkFluid runs c and checks the simulator's invariants: every tenant
// completes its requests, no request beats its critical path, a second
// run returns the same result, utilizations lie in [0, 1], CheckpointAt
// splits the run's cycles exactly, and SoloLatency prices tenant A's
// graph alone, in graph order and along a random order, as Run does.
func checkFluid(t *testing.T, c fluidCase) {
	t.Helper()
	gr := sim.NewRNG(c.seed)
	ga := randGraph(gr, c.policy.ISAFor())
	gb := randGraph(gr, c.policy.ISAFor())
	specs := []TenantSpec{
		{Name: "A", Graph: ga, MEs: c.meA, VEs: c.veA, ArrivalRate: c.rate},
		{Name: "B", Graph: gb, MEs: 4 - c.meA, VEs: 4 - c.veA, ArrivalRate: c.rate / 2},
	}
	cfg := Config{Core: tpu(), Policy: c.policy, Requests: c.requests, Seed: c.seed}
	s, err := New(cfg, specs)
	if err != nil {
		t.Fatalf("%+v: %v", c, err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("%+v: %v", c, err)
	}

	// Invariant 1: every tenant completed the target.
	for _, tr := range res.Tenants {
		if tr.Requests < c.requests {
			t.Fatalf("%+v: tenant %s completed %d/%d", c, tr.Name, tr.Requests, c.requests)
		}
	}

	// Invariant 2: latency lower bound — a request can never beat
	// its critical path on unlimited engines (max over ops of the
	// longest single µTOp, summed over ops is too strong; use the
	// sum of each op's longest µTOp, which any schedule must pay).
	for w, g := range []*compiler.CompiledGraph{ga, gb} {
		var critical float64
		for i := range g.Ops {
			for _, grp := range g.Ops[i].Groups {
				var longest uint64
				for _, u := range grp.UTops {
					n := u.MECycles
					if u.VECycles > n && u.Kind == isa.MEUTop {
						n = u.VECycles
					}
					if u.Kind == isa.VEUTop {
						// Divisible across all VEs at best.
						n = u.VECycles / uint64(tpu().VEs)
					}
					if n > longest {
						longest = n
					}
				}
				critical += float64(longest)
			}
		}
		// Every request's latency must be ≥ the critical path, and so
		// must the mean and p95 the result reports. (A p95 may still sit
		// far below the mean: under PMT a tenant can finish dozens of
		// requests in one quantum and one more across the switch.)
		tr := res.Tenants[w]
		lo := s.tenants[w].lat.Percentile(0)
		if bound := critical * 0.999; lo < bound || tr.MeanLatency < bound || tr.P95Latency < bound {
			t.Fatalf("%+v tenant %d: latency min %.0f / mean %.0f / p95 %.0f below critical path %.0f",
				c, w, lo, tr.MeanLatency, tr.P95Latency, critical)
		}
	}

	// Invariant 3: determinism.
	res2, err := Run(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Fatalf("%+v: nondeterministic result", c)
	}

	// Invariant 4: utilizations in [0, 1].
	if res.MEUtil < 0 || res.MEUtil > 1+1e-9 || res.VEUtil < 0 || res.VEUtil > 1+1e-9 {
		t.Fatalf("%+v: utilization out of range %v/%v", c, res.MEUtil, res.VEUtil)
	}

	// Invariant 5: a checkpoint anywhere in the run conserves its cycles.
	total := res.DurationCycles
	if rp := CheckpointAt(total, c.cut*total, c.quantum); rp.Completed+rp.Remaining != total {
		t.Fatalf("%+v: checkpoint %v + %v != %v cycles", c, rp.Completed, rp.Remaining, total)
	}

	// Invariant 6: SoloLatency of tenant A's graph, in graph order, along
	// a random order whose operators repeat, and as the graph of that
	// order, equals a one-request NeuNH Run of that op sequence alone on
	// A's split, bit for bit.
	solo := *ga
	solo.ISA = compiler.ISANeu
	label := fmt.Sprintf("%+v: tenant A alone", c)
	order := repeated(len(solo.Ops), sim.NewRNG(c.seed))
	checkSolo(t, tpu(), &solo, nil, c.meA, c.veA, label)
	checkSolo(t, tpu(), &solo, order, c.meA, c.veA, label+", repeated")
	checkSolo(t, tpu(), along(&solo, order), nil, c.meA, c.veA, label+", repeated graph")
}

func TestPropertyRandomGraphsAllPolicies(t *testing.T) {
	rng := sim.NewRNG(2024)
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		seed := rng.Uint64()
		for _, pol := range []Mode{PMT, V10, NeuNH, Neu10} {
			checkFluid(t, fluidCase{seed: seed, policy: pol, meA: 2, veA: 2, requests: 4,
				cut: float64(trial) / trials, quantum: 4096})
		}
	}
}

// FuzzFluid decodes its arguments into a fluidCase and checks it with
// checkFluid. The EU split, request count (1-8) and open-loop rate
// (kilo-requests per second; 0 = closed loop) are taken modulo their
// ranges, so every input decodes to a valid scenario. The checkpoint
// quantum is a whole number of cycles, as the serving layer's
// preemption quantum is: with a fractional one the boundary has bits
// below the run's last cycle, and Completed + Remaining can miss total
// by an ulp.
func FuzzFluid(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, policy, meA, veA, requests, rateK uint8, cut, quantum uint16) {
		checkFluid(t, fluidCase{
			seed:     seed,
			policy:   Mode(policy % 4),
			meA:      1 + int(meA%3),
			veA:      1 + int(veA%3),
			requests: 1 + int(requests%8),
			rate:     1000 * float64(rateK),
			cut:      float64(cut) / (1 << 15), // up to twice the run
			quantum:  1 + float64(quantum),
		})
	})
}

// TestPropertyNHIsolation: under static spatial partitioning with no HBM
// pressure, a tenant's latency must be bit-identical no matter what its
// neighbour runs — the definition of hardware isolation.
func TestPropertyNHIsolation(t *testing.T) {
	rng := sim.NewRNG(7)
	for trial := 0; trial < 25; trial++ {
		seed := rng.Uint64()
		gr := sim.NewRNG(seed)
		ga := randGraph(gr, compiler.ISANeu)
		mkB := func(s uint64) *compiler.CompiledGraph { return randGraph(sim.NewRNG(s), compiler.ISANeu) }

		run := func(gb *compiler.CompiledGraph) float64 {
			res, err := Run(Config{Core: tpu(), Policy: NeuNH, Requests: 5},
				[]TenantSpec{
					{Name: "A", Graph: ga, MEs: 2, VEs: 2},
					{Name: "B", Graph: gb, MEs: 2, VEs: 2},
				})
			if err != nil {
				t.Fatal(err)
			}
			return res.Tenants[0].MeanLatency
		}
		l1 := run(mkB(seed ^ 0xaaaa))
		l2 := run(mkB(seed ^ 0x5555))
		if l1 != l2 {
			t.Fatalf("trial %d: NH tenant latency depends on neighbour (%.2f vs %.2f)", trial, l1, l2)
		}
	}
}

// TestPropertyHarvestingNeverSlowsAggregate: across random scenarios,
// Neu10's total completed work per cycle is at least NH's (modulo a
// small tolerance for reclaim penalties).
func TestPropertyHarvestingAggregate(t *testing.T) {
	rng := sim.NewRNG(99)
	for trial := 0; trial < 25; trial++ {
		seed := rng.Uint64()
		gr1 := sim.NewRNG(seed)
		mk := func(r *sim.RNG) []TenantSpec {
			return []TenantSpec{
				{Name: "A", Graph: randGraph(r, compiler.ISANeu), MEs: 2, VEs: 2},
				{Name: "B", Graph: randGraph(r, compiler.ISANeu), MEs: 2, VEs: 2},
			}
		}
		specs := mk(gr1)
		nh, err := Run(Config{Core: tpu(), Policy: NeuNH, Requests: 5}, specs)
		if err != nil {
			t.Fatal(err)
		}
		n10, err := Run(Config{Core: tpu(), Policy: Neu10, Requests: 5}, specs)
		if err != nil {
			t.Fatal(err)
		}
		aggNH := nh.Tenants[0].Throughput + nh.Tenants[1].Throughput
		aggN10 := n10.Tenants[0].Throughput + n10.Tenants[1].Throughput
		if aggN10 < aggNH*0.93 {
			t.Fatalf("trial %d: harvesting reduced aggregate throughput %.1f -> %.1f",
				trial, aggNH, aggN10)
		}
	}
}
