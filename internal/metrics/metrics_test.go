package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLatenciesPercentiles(t *testing.T) {
	var l Latencies
	for i := 1; i <= 100; i++ {
		l.Add(float64(i))
	}
	if got := l.Percentile(50); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := l.P95(); got != 95 {
		t.Errorf("p95 = %v, want 95", got)
	}
	if got := l.Max(); got != 100 {
		t.Errorf("max = %v, want 100", got)
	}
	if got := l.Mean(); got != 50.5 {
		t.Errorf("mean = %v, want 50.5", got)
	}
	if l.Count() != 100 {
		t.Errorf("count = %d", l.Count())
	}
}

func TestLatenciesEmpty(t *testing.T) {
	var l Latencies
	if l.Mean() != 0 || l.P95() != 0 || l.Count() != 0 {
		t.Fatal("empty recorder not zero-valued")
	}
	// The documented clamp domain must hold on an empty recorder too:
	// every p, in and out of range, returns 0 rather than indexing.
	for _, p := range []float64{-10, 0, 50, 100, 250} {
		if got := l.Percentile(p); got != 0 {
			t.Errorf("empty Percentile(%v) = %v, want 0", p, got)
		}
	}
}

// TestPercentileDomainClamp pins the documented clamp behavior at the
// domain edges: p <= 0 is the smallest sample, p >= 100 the largest.
func TestPercentileDomainClamp(t *testing.T) {
	var l Latencies
	for _, v := range []float64{30, 10, 20} {
		l.Add(v)
	}
	for _, p := range []float64{-5, 0, 1e-9} {
		if got := l.Percentile(p); got != 10 {
			t.Errorf("Percentile(%v) = %v, want 10 (clamped to rank 1)", p, got)
		}
	}
	if got := l.Percentile(100); got != 30 {
		t.Errorf("Percentile(100) = %v, want 30", got)
	}
	for _, p := range []float64{100.5, 1000} {
		if got := l.Percentile(p); got != 30 {
			t.Errorf("Percentile(%v) = %v, want 30 (clamped to rank n)", p, got)
		}
	}
}

func TestLatenciesUnsortedInput(t *testing.T) {
	var l Latencies
	for _, v := range []float64{9, 1, 5, 3, 7} {
		l.Add(v)
	}
	if got := l.Percentile(100); got != 9 {
		t.Errorf("max of unsorted = %v", got)
	}
	l.Add(11) // after a sorted read, adding must re-sort
	if got := l.Percentile(100); got != 11 {
		t.Errorf("max after re-add = %v", got)
	}
}

func TestPercentileProperties(t *testing.T) {
	f := func(vals []float64) bool {
		var l Latencies
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			l.Add(v)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if l.Count() == 0 {
			return true
		}
		p50, p95 := l.Percentile(50), l.Percentile(95)
		return p50 >= lo && p95 <= hi && p50 <= p95
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeSeriesDownsampling(t *testing.T) {
	ts := NewTimeSeries("x", 64)
	for i := 0; i < 1000; i++ {
		ts.Add(float64(i), float64(i%7))
	}
	if ts.Len() > 64 {
		t.Fatalf("series holds %d points, limit 64", ts.Len())
	}
	if ts.Times[0] != 0 {
		t.Fatal("downsampling dropped the first point")
	}
	// Time coverage preserved (last retained point near the end).
	if ts.Times[ts.Len()-1] < 900 {
		t.Fatalf("downsampling truncated time range: last = %v", ts.Times[ts.Len()-1])
	}
}

// TestTimeSeriesOddLimitKeepsNewest: halving under an odd limit keeps
// the newest point as well as the first, and stays within the limit.
func TestTimeSeriesOddLimitKeepsNewest(t *testing.T) {
	for _, limit := range []int{3, 5} {
		ts := NewTimeSeries("x", limit)
		for i := 0; i <= 40; i++ {
			ts.Add(float64(i), float64(-i))
			n := ts.Len()
			if n > limit || ts.Times[0] != 0 || ts.Times[n-1] != float64(i) || ts.Values[n-1] != float64(-i) {
				t.Fatalf("limit %d after t=%d: times %v values %v", limit, i, ts.Times, ts.Values)
			}
		}
	}
}

func TestTimeSeriesMeanStepWeighted(t *testing.T) {
	ts := NewTimeSeries("x", 0)
	ts.Add(0, 10) // 10 for t in [0, 2)
	ts.Add(2, 0)  // 0 for t in [2, 4)
	ts.Add(4, 0)
	if got := ts.Mean(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("time-weighted mean %v, want 5", got)
	}
	if got := ts.MaxValue(); got != 10 {
		t.Fatalf("max %v", got)
	}
}

func TestTimeSeriesEdgeCases(t *testing.T) {
	ts := NewTimeSeries("x", 0)
	if ts.Mean() != 0 || ts.MaxValue() != 0 {
		t.Fatal("empty series not zero-valued")
	}
	ts.Add(1, 42)
	if ts.Mean() != 42 {
		t.Fatal("single-point mean")
	}
}

// TestLatenciesServingStats covers the percentile helpers the online
// serving subsystem reports through, and Reset.
func TestLatenciesServingStats(t *testing.T) {
	l := &Latencies{}
	for i := 100; i >= 1; i-- { // descending: forces the sort paths
		l.Add(float64(i))
	}
	if got := l.P50(); got != 50 {
		t.Errorf("P50 = %v, want 50", got)
	}
	if got := l.P99(); got != 99 {
		t.Errorf("P99 = %v, want 99", got)
	}
	l.Reset()
	if l.Count() != 0 || l.P99() != 0 {
		t.Error("Reset did not clear samples")
	}
	l.Add(7)
	if got := l.P50(); l.Count() != 1 || got != 7 {
		t.Errorf("post-Reset: %d samples, P50 = %v, want 1 sample at 7", l.Count(), got)
	}
}
