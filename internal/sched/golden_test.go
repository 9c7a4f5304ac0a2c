package sched

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"neu10/internal/arch"
	"neu10/internal/compiler"
	"neu10/internal/metrics"
	"neu10/internal/sim"
)

// TestGoldenFluid pins the raw bits of every float the fluid simulator
// reports. It runs the property test's random graphs (every other trial
// varied per µTOp, with HBM traffic) under each policy, closed- and
// open-loop, with timeline sampling off and on, on the 4ME-4VE core and
// on an 8ME-8VE one (Fig. 25's largest), where harvesting and the
// blocked-ME scans see more engines. It hashes
// math.Float64bits of each Result field, each timeline point and each
// tenant's latency samples (read from the Simulator). One SHA-256 per
// (core, policy, loop, sampling) group is pinned in
// testdata/golden_fluid.sha256, regenerated only under
// NEU10_UPDATE_GOLDEN. The tables' goldens print 2-3 decimals, so a
// reordered float sum can pass them; it cannot pass this one.
func TestGoldenFluid(t *testing.T) {
	cores := []struct {
		core   arch.CoreConfig
		splits [][2]int
		label  string // appended to the group's line; empty for 4ME-4VE
	}{
		{tpu(), [][2]int{{2, 2}, {1, 3}, {3, 1}}, ""},
		{tpu().WithEUs(8, 8), [][2]int{{4, 4}, {2, 6}, {6, 2}}, " core=8ME-8VE"},
	}
	var sb strings.Builder
	for _, c := range cores {
		for _, pol := range []Mode{PMT, V10, NeuNH, Neu10} {
			for _, rate := range []float64{0, 30_000} {
				for _, every := range []float64{0, 700} {
					h := sha256.New()
					rng := sim.NewRNG(2024)
					for trial := 0; trial < 25; trial++ {
						seed := rng.Uint64()
						me, ve := c.splits[trial%3], c.splits[(trial/3)%3]
						gr := sim.NewRNG(seed)
						ga, gb := randGraph(gr, pol.ISAFor()), randGraph(gr, pol.ISAFor())
						if trial%2 == 1 {
							vary(ga, gr)
							vary(gb, gr)
						}
						cfg := Config{Core: c.core, Policy: pol, Requests: 5, SampleEvery: every, Seed: seed}
						s, err := New(cfg, []TenantSpec{
							{Name: "A", Graph: ga, MEs: me[0], VEs: ve[0], ArrivalRate: rate},
							{Name: "B", Graph: gb, MEs: me[1], VEs: ve[1], ArrivalRate: rate / 2},
						})
						if err != nil {
							t.Fatal(err)
						}
						res, err := s.Run()
						if err != nil {
							t.Fatalf("%s%s trial %d: %v", pol, c.label, trial, err)
						}
						hashResult(h, s, res, every > 0)
					}
					loop := "closed"
					if rate > 0 {
						loop = "open"
					}
					fmt.Fprintf(&sb, "%x  %s %s sample=%v%s\n", h.Sum(nil), pol, loop, every, c.label)
				}
			}
		}
	}
	path := filepath.Join("testdata", "golden_fluid.sha256")
	if os.Getenv("NEU10_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Errorf("fluid results diverged:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

// vary gives every µTOp of g its own cycle counts, 75-125% of its
// group's, and HBM traffic of 50-550 bytes per cycle of work.
// randGraph's groups are uniform and move no bytes; varied, a few µTOps
// running at once exceed the core's ~1.1 KB/cycle, and a sum over a
// group's µTOps depends on their order.
func vary(g *compiler.CompiledGraph, rng *sim.RNG) {
	for i := range g.Ops {
		for _, grp := range g.Ops[i].Groups {
			for k := range grp.UTops {
				u := &grp.UTops[k]
				u.MECycles = u.MECycles * uint64(75+rng.Intn(51)) / 100
				u.VECycles = u.VECycles * uint64(75+rng.Intn(51)) / 100
				u.HBMBytes = int64(u.MECycles+u.VECycles) * int64(50+rng.Intn(500))
			}
		}
	}
}

// hashResult writes the bits of every number res and the simulator's
// latency recorders hold. Timelines are hashed only for sampled runs.
func hashResult(h hash.Hash, s *Simulator, res *Result, sampled bool) {
	var buf [8]byte
	put := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	series := func(ts *metrics.TimeSeries) {
		put(float64(ts.Len()))
		put(ts.Times...)
		put(ts.Values...)
	}
	put(float64(res.Policy), res.DurationCycles, res.MEUtil, res.VEUtil, res.AvgBandwidth)
	if sampled {
		series(res.HBMTimeline)
	}
	for i, tr := range res.Tenants {
		put(float64(tr.Requests), tr.MeanLatency, tr.P95Latency, tr.Throughput,
			tr.ActiveCycles, tr.HarvestBlocked)
		put(tr.OpDurations...)
		if sampled {
			series(tr.METimeline)
			series(tr.VETimeline)
		}
		put(latencySamples(s.tenants[i].lat)...)
	}
}

// latencySamples returns l's samples in ascending order. Sample k of n
// is the nearest-rank percentile at 100(k-½)/n: half a rank from either
// neighbour, so no rounding of p can select the wrong one.
func latencySamples(l *metrics.Latencies) []float64 {
	n := l.Count()
	out := make([]float64, n)
	for k := 1; k <= n; k++ {
		out[k-1] = l.Percentile(100 * (float64(k) - 0.5) / float64(n))
	}
	return out
}
