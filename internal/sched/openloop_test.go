package sched

import (
	"math"
	"reflect"
	"testing"

	"neu10/internal/compiler"
	"neu10/internal/metrics"
	"neu10/internal/sim"
)

// Open-loop (Poisson arrival) traffic and the harvest-ablation knobs.

func TestOpenLoopLowLoadLatencyNearService(t *testing.T) {
	// Service time 1000 cycles on 4 MEs; arrivals at 5% load: queueing
	// is negligible, mean latency ≈ service time.
	core := tpu()
	g := synth(compiler.ISANeu, meOp(4, 1000, 0))
	rate := 0.05 * core.FrequencyHz / 1000 // 5% utilization
	res := mustRun(t, Config{Core: core, Policy: NeuNH, Requests: 200, Seed: 1},
		TenantSpec{Name: "ol", Graph: g, MEs: 4, VEs: 4, ArrivalRate: rate})
	lat := res.Tenants[0].MeanLatency
	if lat < 1000 || lat > 1200 {
		t.Fatalf("low-load open-loop latency %.0f, want ~1000-1200", lat)
	}
}

func TestOpenLoopQueueingGrowsWithLoad(t *testing.T) {
	// M/D/1-style behavior: latency at 90% load must clearly exceed
	// latency at 30% load (queueing delay).
	core := tpu()
	mk := func() *compiler.CompiledGraph { return synth(compiler.ISANeu, meOp(4, 1000, 0)) }
	run := func(load float64) float64 {
		rate := load * core.FrequencyHz / 1000
		res := mustRun(t, Config{Core: core, Policy: NeuNH, Requests: 400, Seed: 7},
			TenantSpec{Name: "ol", Graph: mk(), MEs: 4, VEs: 4, ArrivalRate: rate})
		return res.Tenants[0].MeanLatency
	}
	lo, hi := run(0.3), run(0.9)
	if hi < 1.5*lo {
		t.Fatalf("latency at 90%% load (%.0f) not clearly above 30%% load (%.0f)", hi, lo)
	}
}

func TestOpenLoopThroughputTracksArrivalRate(t *testing.T) {
	// Under low load the served rate equals the offered rate, not the
	// closed-loop saturation rate.
	core := tpu()
	g := synth(compiler.ISANeu, meOp(4, 1000, 0))
	rate := 0.1 * core.FrequencyHz / 1000
	res := mustRun(t, Config{Core: core, Policy: NeuNH, Requests: 300, Seed: 3},
		TenantSpec{Name: "ol", Graph: g, MEs: 4, VEs: 4, ArrivalRate: rate})
	if got := res.Tenants[0].Throughput; math.Abs(got-rate)/rate > 0.15 {
		t.Fatalf("served %.0f req/s vs offered %.0f", got, rate)
	}
}

func TestOpenLoopDeterministicUnderSeed(t *testing.T) {
	core := tpu()
	mk := func() []TenantSpec {
		return []TenantSpec{{
			Name:  "ol",
			Graph: synth(compiler.ISANeu, meOp(4, 1000, 200), veOp(500)),
			MEs:   2, VEs: 2,
			ArrivalRate: 1e5,
		}}
	}
	cfg := Config{Core: core, Policy: Neu10, Requests: 100, Seed: 42}
	a := mustRun(t, cfg, mk()...)
	b := mustRun(t, cfg, mk()...)
	if a.Tenants[0].MeanLatency != b.Tenants[0].MeanLatency {
		t.Fatal("same seed produced different open-loop results")
	}
	cfg2 := cfg
	cfg2.Seed = 43
	c := mustRun(t, cfg2, mk()...)
	if a.Tenants[0].MeanLatency == c.Tenants[0].MeanLatency {
		t.Fatal("different seeds produced identical arrival streams")
	}
}

func TestOpenLoopMixedWithClosedLoop(t *testing.T) {
	// A bursty open-loop tenant next to a closed-loop batch tenant: the
	// batch tenant harvests the idle engines between bursts.
	core := tpu()
	bursty := synth(compiler.ISANeu, meOp(2, 5000, 0))
	batch := synth(compiler.ISANeu, meOp(4, 20000, 0))
	res := mustRun(t, Config{Core: core, Policy: Neu10, Requests: 20, Seed: 5},
		TenantSpec{Name: "bursty", Graph: bursty, MEs: 2, VEs: 2, ArrivalRate: 2000},
		TenantSpec{Name: "batch", Graph: batch, MEs: 2, VEs: 2})
	nh := mustRun(t, Config{Core: core, Policy: NeuNH, Requests: 20, Seed: 5},
		TenantSpec{Name: "bursty", Graph: bursty, MEs: 2, VEs: 2, ArrivalRate: 2000},
		TenantSpec{Name: "batch", Graph: batch, MEs: 2, VEs: 2})
	// The batch tenant gains from harvesting the bursty tenant's slack.
	if res.Tenants[1].Throughput <= nh.Tenants[1].Throughput*1.2 {
		t.Fatalf("batch tenant gained only %.2fx from harvesting idle open-loop engines",
			res.Tenants[1].Throughput/nh.Tenants[1].Throughput)
	}
	// The bursty tenant's own latency must stay near its NH value.
	if res.Tenants[0].P95Latency > nh.Tenants[0].P95Latency*1.25 {
		t.Fatalf("bursty tenant p95 inflated %.2fx by harvesting",
			res.Tenants[0].P95Latency/nh.Tenants[0].P95Latency)
	}
}

func TestNegativeArrivalRateRejected(t *testing.T) {
	g := synth(compiler.ISANeu, meOp(1, 100, 0))
	_, err := Run(Config{Core: tpu(), Policy: Neu10, Requests: 1},
		[]TenantSpec{{Name: "x", Graph: g, MEs: 1, VEs: 1, ArrivalRate: -1}})
	if err == nil {
		t.Fatal("negative arrival rate accepted")
	}
}

// Ablations: disabling each harvesting mechanism must remove exactly its
// contribution.

func TestAblationDisableMEHarvest(t *testing.T) {
	// Tenant A has ME work 4 wide on 2 own MEs; B is VE-only. ME
	// harvesting is the whole benefit; disabling it must reduce A to NH
	// speed.
	ga := synth(compiler.ISANeu, meOp(4, 1000, 0))
	gb := synth(compiler.ISANeu, veOp(4000))
	run := func(disable bool) float64 {
		res := mustRun(t, Config{Core: tpu(), Policy: Neu10, Requests: 10, DisableMEHarvest: disable},
			TenantSpec{Name: "A", Graph: ga, MEs: 2, VEs: 2},
			TenantSpec{Name: "B", Graph: gb, MEs: 2, VEs: 2})
		return res.Tenants[0].MeanLatency
	}
	with, without := run(false), run(true)
	if without < with*1.8 {
		t.Fatalf("disabling ME harvest changed latency %.0f -> %.0f; expected ~2x", with, without)
	}
}

func TestAblationDisableVEHarvest(t *testing.T) {
	// Tenant A's ME µTOps carry VE work needing more than its own VEs
	// (veNeed 1.0 per µTOp, 2 µTOps, 1 own VE); B's VEs are idle. VE
	// harvesting doubles A's effective VE feed.
	ga := synth(compiler.ISANeu, meOp(2, 1000, 1000))
	gb := synth(compiler.ISANeu, meOp(1, 100000, 0))
	run := func(disable bool) float64 {
		res := mustRun(t, Config{Core: tpu(), Policy: Neu10, Requests: 10, DisableVEHarvest: disable},
			TenantSpec{Name: "A", Graph: ga, MEs: 2, VEs: 1},
			TenantSpec{Name: "B", Graph: gb, MEs: 2, VEs: 3})
		return res.Tenants[0].MeanLatency
	}
	with, without := run(false), run(true)
	if without <= with*1.3 {
		t.Fatalf("disabling VE harvest changed latency %.0f -> %.0f; expected clear slowdown", with, without)
	}
}

// TestAblationFullDisableEqualsNH checks that Neu10 with both harvest
// paths disabled is Neu10-NH: over random graphs and EU splits, closed-
// and open-loop, the two runs return the same Result in every field but
// Policy, timelines included, and record the same request latencies.
func TestAblationFullDisableEqualsNH(t *testing.T) {
	splits := [][2]int{{2, 2}, {1, 3}, {3, 1}}
	rng := sim.NewRNG(11)
	for trial := 0; trial < 100; trial++ {
		seed := rng.Uint64()
		me, ve := splits[trial%3], splits[(trial/3)%3]
		for _, rate := range []float64{0, float64(20_000 + 10_000*(trial%5))} {
			run := func(cfg Config) (*Result, []*metrics.Latencies) {
				gr := sim.NewRNG(seed)
				cfg.Core, cfg.Requests, cfg.SampleEvery, cfg.Seed = tpu(), 5, 700, seed
				s, err := New(cfg, []TenantSpec{
					{Name: "A", Graph: randGraph(gr, compiler.ISANeu), MEs: me[0], VEs: ve[0], ArrivalRate: rate},
					{Name: "B", Graph: randGraph(gr, compiler.ISANeu), MEs: me[1], VEs: ve[1], ArrivalRate: rate / 2},
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res, []*metrics.Latencies{s.tenants[0].lat, s.tenants[1].lat}
			}
			nh, nhLat := run(Config{Policy: NeuNH})
			abl, ablLat := run(Config{Policy: Neu10, DisableMEHarvest: true, DisableVEHarvest: true})
			abl.Policy = nh.Policy
			if !reflect.DeepEqual(nh, abl) || !reflect.DeepEqual(nhLat, ablLat) {
				t.Fatalf("trial %d rate %.0f: fully-ablated Neu10 differs from NH:\nNH  %+v\nabl %+v",
					trial, rate, nh.Tenants, abl.Tenants)
			}
		}
	}
}
