package experiments

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"neu10/internal/sched"
)

// The experiment suite's tests assert the *shape* of the paper's results
// (who wins, in which direction), not absolute numbers — the substrate
// is a simulator, not the authors' testbed.

func testRunner(t *testing.T) *Runner {
	t.Helper()
	opts := DefaultOptions()
	opts.Requests = 4
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestIDsAllRunnable renders every experiment and byte-locks the paper's
// figures and tables: the SHA-256 of each non-serving id's Table() at
// Requests=4 is pinned in testdata/golden_paper.sha256 (the serving
// tables have their own snapshots), regenerated only under
// NEU10_UPDATE_GOLDEN.
func TestIDsAllRunnable(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in long mode only")
	}
	r := testRunner(t)
	var paper strings.Builder
	for _, id := range IDs() {
		res, err := r.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		tbl := res.Table()
		if len(tbl) < 40 || !strings.Contains(tbl, "\n") {
			t.Errorf("%s: implausible table output (%d bytes)", id, len(tbl))
		}
		if !strings.HasPrefix(id, "serve-") {
			fmt.Fprintf(&paper, "%x  %s\n", sha256.Sum256([]byte(tbl)), id)
		}
	}
	checkGolden(t, "golden_paper.sha256", paper.String())
}

func TestUnknownExperimentRejected(t *testing.T) {
	r := testRunner(t)
	if _, err := r.Run("fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFig2DemandVaries(t *testing.T) {
	r := testRunner(t)
	res, err := r.Fig2Demand()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"BERT", "DLRM", "RsNt"} {
		pts := res.Series[m]
		if len(pts) < 5 {
			t.Fatalf("%s: only %d demand points", m, len(pts))
		}
		mes := map[int]bool{}
		for _, p := range pts {
			mes[p.MEs] = true
		}
		if len(mes) < 2 {
			t.Errorf("%s: ME demand constant over time; paper Fig. 2 shows variation", m)
		}
	}
	// DLRM must be time-dominated by zero-ME (vector) operators.
	pts := res.Series["DLRM"]
	var zeroDur, total float64
	for i := 0; i < len(pts)-1; i++ {
		d := pts[i+1].TimeUs - pts[i].TimeUs
		total += d
		if pts[i].MEs == 0 {
			zeroDur += d
		}
	}
	if total > 0 && zeroDur < 0.5*total {
		t.Errorf("DLRM spends %.0f%% of its timeline in vector ops; should dominate", zeroDur/total*100)
	}
}

func TestFig5SoloUtilizationShape(t *testing.T) {
	r := testRunner(t)
	res, err := r.Fig5Utilization()
	if err != nil {
		t.Fatal(err)
	}
	byModel := map[string]SoloStat{}
	for _, s := range res.Stats {
		byModel[s.Model] = s
	}
	// Solo runs underutilize at least one engine class (the paper's core
	// motivation): no model should saturate both.
	for m, s := range byModel {
		if s.MEUtil > 0.95 && s.VEUtil > 0.95 {
			t.Errorf("%s saturates both engines (%.2f/%.2f); contradicts §II-B", m, s.MEUtil, s.VEUtil)
		}
	}
	if byModel["DLRM"].MEUtil > 0.3 {
		t.Errorf("DLRM solo ME util %.2f; should be mostly idle", byModel["DLRM"].MEUtil)
	}
	if byModel["BERT"].MEUtil < byModel["BERT"].VEUtil {
		t.Error("BERT should be ME-heavier than VE")
	}
}

func TestFig7BandwidthWithinLimit(t *testing.T) {
	r := testRunner(t)
	res, err := r.Fig7HBM()
	if err != nil {
		t.Fatal(err)
	}
	limit := r.opts.Core.HBMBwBytes / 1e9
	for _, s := range res.Stats {
		if s.PeakBWGBs > limit*1.01 {
			t.Errorf("%s b=%d peak %.0f GB/s exceeds %.0f", s.Model, s.Batch, s.PeakBWGBs, limit)
		}
		if s.AvgBWGBs <= 0 {
			t.Errorf("%s b=%d zero average bandwidth", s.Model, s.Batch)
		}
		if s.AvgBWGBs > s.PeakBWGBs+1e-9 {
			t.Errorf("%s b=%d avg %.0f above peak %.0f", s.Model, s.Batch, s.AvgBWGBs, s.PeakBWGBs)
		}
	}
}

func TestFig12SelectedConfigsFollowIntensity(t *testing.T) {
	r := testRunner(t)
	res, err := r.Fig12Allocator()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Curves {
		sel := map[int][2]int{}
		for _, p := range c.Points {
			if p.Selected {
				sel[p.TotalEUs] = [2]int{p.MEs, p.VEs}
			}
		}
		for total := 2; total <= 16; total++ {
			cfg, ok := sel[total]
			if !ok {
				t.Fatalf("%s: no selection at %d EUs", c.Model, total)
			}
			switch c.Model {
			case "BERT", "RsNt", "SMask": // ME-intensive: nm ≥ nv (Fig. 12a/b/d)
				if cfg[0] < cfg[1] {
					t.Errorf("%s at %d EUs selected (%d,%d); expected ME-leaning", c.Model, total, cfg[0], cfg[1])
				}
			case "ENet": // balanced walk (Fig. 12c)
				if d := cfg[0] - cfg[1]; d < -2 || d > 2 {
					t.Errorf("ENet at %d EUs selected (%d,%d); expected near-balanced", total, cfg[0], cfg[1])
				}
			}
		}
	}
}

func TestFig16OverheadSmallAndShrinks(t *testing.T) {
	r := testRunner(t)
	res, err := r.Fig16NeuISAOverhead()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	var n int
	var small, large float64
	var nSmall, nLarge int
	for _, byBatch := range res.Points {
		for b, v := range byBatch {
			sum += math.Abs(v)
			n++
			if b == 1 {
				small += v
				nSmall++
			}
			if b == 128 {
				large += v
				nLarge++
			}
		}
	}
	if n == 0 {
		t.Fatal("no overhead points")
	}
	if avg := sum / float64(n); avg > 0.10 {
		t.Errorf("mean |NeuISA overhead| %.1f%%; paper reports <1%% average (we allow 10%%)", avg*100)
	}
	if nSmall > 0 && nLarge > 0 && large/float64(nLarge) > small/float64(nSmall)+0.02 {
		t.Errorf("overhead grows with batch (b1 %.3f → b128 %.3f); paper shows the opposite",
			small/float64(nSmall), large/float64(nLarge))
	}
}

func TestPairStudyPaperClaims(t *testing.T) {
	r := testRunner(t)
	ps, err := r.PairStudy()
	if err != nil {
		t.Fatal(err)
	}
	_, by := ps.byPair()

	// Claim 1 (Fig. 19): Neu10 tail latency beats V10 — geometric mean
	// over all pairs and workloads, and by a solid factor.
	logSum, n := 0.0, 0
	for _, polMetrics := range by {
		for w := 0; w < 2; w++ {
			v10, n10 := polMetrics[sched.V10].P95[w], polMetrics[sched.Neu10].P95[w]
			if v10 > 0 && n10 > 0 {
				logSum += math.Log(v10 / n10)
				n++
			}
		}
	}
	geo := math.Exp(logSum / float64(n))
	if geo < 1.3 {
		t.Errorf("geomean V10/Neu10 tail ratio %.2f; paper reports 1.56x average", geo)
	}

	// Claim 2 (Fig. 19): Neu10's tail stays close to NH's (isolation is
	// preserved while harvesting) — within 35% on geomean.
	logSum, n = 0.0, 0
	for _, polMetrics := range by {
		for w := 0; w < 2; w++ {
			nh, n10 := polMetrics[sched.NeuNH].P95[w], polMetrics[sched.Neu10].P95[w]
			if nh > 0 && n10 > 0 {
				logSum += math.Log(n10 / nh)
				n++
			}
		}
	}
	if g := math.Exp(logSum / float64(n)); g > 1.35 {
		t.Errorf("Neu10 tail is %.2fx NH on geomean; harvesting should preserve isolation", g)
	}

	// Claim 3 (Fig. 21): harvesting buys throughput over static
	// partitioning — aggregate normalized throughput Neu10 ≥ NH on most
	// pairs and on geomean.
	logSum, n = 0.0, 0
	wins := 0
	for _, polMetrics := range by {
		aggNH, aggN10 := 0.0, 0.0
		for w := 0; w < 2; w++ {
			base := polMetrics[sched.PMT].Throughput[w]
			aggNH += polMetrics[sched.NeuNH].Throughput[w] / base
			aggN10 += polMetrics[sched.Neu10].Throughput[w] / base
		}
		if aggN10 >= aggNH*0.99 {
			wins++
		}
		logSum += math.Log(aggN10 / aggNH)
		n++
	}
	if wins < 6 {
		t.Errorf("Neu10 beats NH on only %d/9 pairs' aggregate throughput", wins)
	}
	if g := math.Exp(logSum / float64(n)); g < 1.0 {
		t.Errorf("Neu10/NH aggregate throughput geomean %.3f < 1", g)
	}

	// Claim 4 (Fig. 22): Neu10 improves ME utilization over NH and PMT
	// on average (paper: 1.26x over PMT).
	var meNH, meN10, mePMT float64
	for _, polMetrics := range by {
		meNH += polMetrics[sched.NeuNH].MEUtil
		meN10 += polMetrics[sched.Neu10].MEUtil
		mePMT += polMetrics[sched.PMT].MEUtil
	}
	if meN10 <= meNH {
		t.Errorf("Neu10 mean ME util %.3f not above NH %.3f", meN10/9, meNH/9)
	}
	if meN10 <= mePMT {
		t.Errorf("Neu10 mean ME util %.3f not above PMT %.3f", meN10/9, mePMT/9)
	}

	// Claim 5 (Table III): harvesting overhead is bounded (paper max
	// 10.63%); we allow 15%.
	for pair, polMetrics := range by {
		for w := 0; w < 2; w++ {
			if b := polMetrics[sched.Neu10].Blocked[w]; b > 0.15 {
				t.Errorf("%s workload %d blocked %.1f%% of runtime", pair, w, b*100)
			}
		}
	}
}

func TestFig23HarvestingSpeedsUpOperators(t *testing.T) {
	r := testRunner(t)
	res, err := r.Fig23Breakdown()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 9 {
		t.Fatalf("%d curves, want 9", len(res.Curves))
	}
	// For the low-contention pairs, the compute-bound partner must see
	// real per-op speedups from harvesting (paper: most ops ≥ 1.5x).
	for _, c := range res.Curves[:3] {
		if c.MeanGain[1] < 1.1 {
			t.Errorf("%s: W2 mean op speedup %.2f; expected clear harvesting gain", c.Pair.Name(), c.MeanGain[1])
		}
	}
}

func TestFig24HarvestingVisibleInTimeline(t *testing.T) {
	r := testRunner(t)
	res, err := r.Fig24Timeline()
	if err != nil {
		t.Fatal(err)
	}
	sawHarvest := false
	for _, s := range res.Stats {
		if s.Points < 10 {
			t.Errorf("%s/%s: only %d samples", s.Pair, s.Tenant, s.Points)
		}
		if s.MaxMEs > 2 { // allocation is 2; >2 means harvested engines
			sawHarvest = true
		}
	}
	if !sawHarvest {
		t.Error("no tenant ever exceeded its 2-ME allocation; Fig. 24 shows harvesting")
	}
}

func TestFig25GainGrowsWithCoreSize(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in long mode only")
	}
	r := testRunner(t)
	res, err := r.Fig25Scaling()
	if err != nil {
		t.Fatal(err)
	}
	for pair, byCfg := range res.Points {
		// Neu10 must not lose to V10 at any core size.
		for cfg, v := range byCfg {
			if v[0] < v[1]*0.85 {
				t.Errorf("%s at %v: Neu10 %.2f below V10 %.2f", pair, cfg, v[0], v[1])
			}
		}
		// Neu10's normalized throughput must grow with core size (the
		// paper's scaling curves rise from 2ME-2VE to 8ME-8VE).
		small := byCfg[[2]int{2, 2}][0]
		large := byCfg[[2]int{8, 8}][0]
		if large < small {
			t.Errorf("%s: Neu10 throughput fell with core size (%.2f → %.2f)", pair, small, large)
		}
	}
}

func TestFig26MemoryPairsCovered(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in long mode only")
	}
	r := testRunner(t)
	res, err := r.Fig26Bandwidth()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"DLRM+NCF", "NCF+TFMR"} {
		byBW, ok := res.Points[p]
		if !ok {
			t.Fatalf("memory pair %s missing", p)
		}
		for bw, g := range byBW {
			if g < 0.85 {
				t.Errorf("%s @%.0fGB/s: Neu10 gain %.2f; paper says Neu10 still outperforms V10", p, bw/1e9, g)
			}
		}
	}
}

func TestFig27LLMCollocation(t *testing.T) {
	r := testRunner(t)
	res, err := r.Fig27LLM()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("%d LLM collocations, want 3", len(res.Points))
	}
	for _, p := range res.Points {
		// LLaMA must not be hurt by moving from V10 to Neu10 (paper:
		// negligible overhead while using fewer engines).
		if p.Neu10Tput[0] < p.V10Tput[0]*0.9 {
			t.Errorf("%s: LLaMA throughput regressed %.2f → %.2f", p.Pair, p.V10Tput[0], p.Neu10Tput[0])
		}
		// The compute-bound partner must not collapse either.
		if p.Neu10Tput[1] < p.V10Tput[1]*0.85 {
			t.Errorf("%s: partner throughput collapsed %.2f → %.2f", p.Pair, p.V10Tput[1], p.Neu10Tput[1])
		}
	}
}
