// Package metrics provides the measurement utilities the evaluation
// harness uses: latency recorders with exact percentiles and
// time-series samplers for the paper's timeline figures.
package metrics

import (
	"math"
	"sort"
)

// Latencies records per-request latencies (any unit; the harness uses
// cycles) and reports exact order statistics.
type Latencies struct {
	samples []float64
	sorted  bool
}

// Add records one sample.
func (l *Latencies) Add(v float64) {
	l.samples = append(l.samples, v)
	l.sorted = false
}

// Count returns the number of samples.
func (l *Latencies) Count() int { return len(l.samples) }

// Mean returns the arithmetic mean (0 when empty).
func (l *Latencies) Mean() float64 {
	if len(l.samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range l.samples {
		s += v
	}
	return s / float64(len(l.samples))
}

// Percentile returns the exact p-th percentile (nearest-rank) of the
// recorded samples. p is clamped into (0, 100]: p <= 0 returns the
// smallest sample (nearest-rank would ask for rank 0, which does not
// exist) and p >= 100 returns the largest. An empty recorder returns 0
// for every p.
func (l *Latencies) Percentile(p float64) float64 {
	if len(l.samples) == 0 {
		return 0
	}
	l.sort()
	if p <= 0 {
		return l.samples[0]
	}
	rank := int(math.Ceil(p / 100 * float64(len(l.samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(l.samples) {
		rank = len(l.samples)
	}
	return l.samples[rank-1]
}

// P50 is the median request latency.
func (l *Latencies) P50() float64 { return l.Percentile(50) }

// P95 is the tail-latency statistic the paper reports (Fig. 19).
func (l *Latencies) P95() float64 { return l.Percentile(95) }

// P99 is the tail statistic online-serving SLOs are written against
// (internal/serve): one slow request in a hundred already breaks a
// user-facing latency agreement.
func (l *Latencies) P99() float64 { return l.Percentile(99) }

// sort orders the samples in place, once per run of Adds, into exactly
// the slice sort.Float64s would give, so Mean sums them in the same
// order either way.
func (l *Latencies) sort() {
	if l.sorted {
		return
	}
	l.sorted = true
	if len(l.samples) >= radixMin && radixable(l.samples) {
		radixSort(l.samples, 56)
		return
	}
	sort.Float64s(l.samples)
}

// radixMin is the sample count from which sort uses radixSort; below
// it the per-level counting costs more than sort.Float64s's
// comparisons. radixSmall is the bucket size radixSort finishes by
// insertion sort.
const (
	radixMin   = 512
	radixSmall = 32
)

// radixable reports whether every sample has its sign bit clear and is
// not NaN: its bits are at most +Inf's. For such floats the bit
// patterns, read as unsigned integers, order exactly as the values do,
// and equal values have equal bits, so sorting by bits gives the one
// slice sort.Float64s gives. −0 (sign bit set), negative values and NaN
// fail the test; sort.Float64s orders them.
func radixable(s []float64) bool {
	for _, v := range s {
		if math.Float64bits(v) > math.Float64bits(math.Inf(1)) {
			return false
		}
	}
	return true
}

// radixSort sorts radixable samples in place by their bits, most
// significant byte first, shift being the current byte's offset: an
// American flag sort. It counts each byte value's bucket, swaps every
// sample straight into its bucket, and sorts each bucket by the next
// byte down. A byte all samples share splits nothing and is skipped.
// It allocates nothing and recurses at most eight levels.
func radixSort(s []float64, shift uint) {
	digit := func(v float64) int { return int(byte(math.Float64bits(v) >> shift)) }
	for len(s) > radixSmall {
		var next, end [256]int
		for _, v := range s {
			end[digit(v)]++
		}
		if end[digit(s[0])] == len(s) {
			if shift == 0 {
				return // every sample has the same bits
			}
			shift -= 8
			continue
		}
		at := 0
		for d, n := range end {
			next[d] = at
			at += n
			end[d] = at
		}
		for d := range next {
			for next[d] < end[d] {
				// Carry v along the cycle of displaced samples until one
				// belongs in bucket d's free position.
				v := s[next[d]]
				for b := digit(v); b != d; b = digit(v) {
					v, s[next[b]] = s[next[b]], v
					next[b]++
				}
				s[next[d]] = v
				next[d]++
			}
		}
		if shift == 0 {
			return
		}
		start := 0
		for _, e := range end {
			if e-start > 1 {
				radixSort(s[start:e], shift-8)
			}
			start = e
		}
		return
	}
	for i := 1; i < len(s); i++ {
		v, j := s[i], i
		for ; j > 0 && s[j-1] > v; j-- {
			s[j] = s[j-1]
		}
		s[j] = v
	}
}

// Reset discards all samples but keeps the backing array, so windowed
// recorders (the serving autoscaler's observation windows) do not
// reallocate every interval.
func (l *Latencies) Reset() {
	l.samples = l.samples[:0]
	l.sorted = false
}

// Max returns the largest sample.
func (l *Latencies) Max() float64 { return l.Percentile(100) }

// TimeSeries collects (t, value) samples for the paper's timeline plots
// (Figs. 2, 5, 7, 24) and the observability timelines (internal/obs),
// downsampling to a bounded number of points. The JSON shape matches
// the timeline export documented in docs/OBSERVABILITY.md.
type TimeSeries struct {
	Name   string    `json:"name"`
	Times  []float64 `json:"times_ms"`
	Values []float64 `json:"values"`
	limit  int
}

// NewTimeSeries creates a series bounded to `limit` points (0 = unbounded).
func NewTimeSeries(name string, limit int) *TimeSeries {
	return &TimeSeries{Name: name, limit: limit}
}

// Add appends a sample; when over the limit, every other point is dropped,
// halving resolution rather than truncating time. The first and newest
// points always stay, so a limit of 1 acts as 2.
func (ts *TimeSeries) Add(t, v float64) {
	ts.Times = append(ts.Times, t)
	ts.Values = append(ts.Values, v)
	if n := len(ts.Times); ts.limit > 0 && n > ts.limit {
		nt, nv := ts.Times[:0], ts.Values[:0]
		for i := 0; i < n; i += 2 {
			nt = append(nt, ts.Times[i])
			nv = append(nv, ts.Values[i])
		}
		if n%2 == 0 { // the stride stepped over the newest point
			nt = append(nt, t)
			nv = append(nv, v)
		}
		ts.Times, ts.Values = nt, nv
	}
}

// Len returns the number of retained points.
func (ts *TimeSeries) Len() int { return len(ts.Times) }

// Mean returns the time-weighted mean value of the series (samples are
// treated as left-continuous step values).
func (ts *TimeSeries) Mean() float64 {
	if len(ts.Times) < 2 {
		if len(ts.Values) == 1 {
			return ts.Values[0]
		}
		return 0
	}
	var area, dur float64
	for i := 1; i < len(ts.Times); i++ {
		dt := ts.Times[i] - ts.Times[i-1]
		area += ts.Values[i-1] * dt
		dur += dt
	}
	if dur == 0 {
		return 0
	}
	return area / dur
}

// MaxValue returns the largest sample value.
func (ts *TimeSeries) MaxValue() float64 {
	m := math.Inf(-1)
	for _, v := range ts.Values {
		if v > m {
			m = v
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

// Last returns the most recent sample (0 when empty) — e.g. the final
// cumulative value of an attainment timeline, which by construction
// equals the run's aggregate.
func (ts *TimeSeries) Last() float64 {
	if len(ts.Values) == 0 {
		return 0
	}
	return ts.Values[len(ts.Values)-1]
}
