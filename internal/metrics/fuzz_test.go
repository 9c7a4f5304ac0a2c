package metrics

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// fuzzSamples decodes a fuzz input into a sample set: raw's whole
// 8-byte words as float64 bits, then extra%4096 more samples cycling
// through them, each with its low jitter%64 bits flipped by a hash of
// its index (jitter 0 repeats them exactly). An input shorter than one
// word is the empty set.
func fuzzSamples(raw []byte, extra uint16, jitter uint8) []float64 {
	var base []float64
	for ; len(raw) >= 8; raw = raw[8:] {
		base = append(base, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
	}
	if len(base) == 0 {
		return nil
	}
	s := base
	mask := uint64(1)<<(jitter%64) - 1
	for j := 0; j < int(extra%4096); j++ {
		h := uint64(j+1) * 0x9e3779b97f4a7c15
		h ^= h >> 29
		s = append(s, math.Float64frombits(math.Float64bits(base[j%len(base)])^h&mask))
	}
	return s
}

// words encodes samples as a fuzzSamples input.
func words(vs ...float64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzLatencies checks Latencies' ordering against sort.Float64s, the
// reference it must reproduce bit for bit: the sorted slice, the
// percentiles and the mean, which sums the samples in their sorted order once a percentile
// query has sorted them. The seeds cover both sides of radixMin, NaN,
// −0 beside +0, negative values, ±Inf, subnormals and long runs of one
// value.
func FuzzLatencies(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(words(nan, math.Copysign(0, -1), 0, -1.5, 3), uint16(600), uint8(0))
	f.Add(words(0, math.Copysign(0, -1)), uint16(1000), uint8(0))
	f.Add(words(inf, math.Inf(-1), 1), uint16(0), uint8(0))
	f.Add(words(0, inf, 7), uint16(2000), uint8(10))
	f.Add(words(5e-324, 1e-310, 0), uint16(700), uint8(3))
	f.Add(words(1e6), uint16(4000), uint8(0))
	f.Add(words(1e6), uint16(4000), uint8(52))
	f.Add(words(-2e6, 4e5, 3e8), uint16(900), uint8(40))
	for _, extra := range []uint16{radixMin - 4, radixMin - 3, radixMin - 2} {
		f.Add(words(1e6, 2.5e7, 3e8), extra, uint8(20))
	}
	f.Fuzz(func(t *testing.T, raw []byte, extra uint16, jitter uint8) {
		samples := fuzzSamples(raw, extra, jitter)
		ref := append([]float64(nil), samples...)
		sort.Float64s(ref)
		var sum float64
		for _, v := range ref {
			sum += v
		}
		var l Latencies
		for _, v := range samples {
			l.Add(v)
		}
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		for _, p := range []float64{0, 50, 95, 99, 100} {
			want := 0.0
			if n := len(ref); n > 0 {
				rank := max(1, min(n, int(math.Ceil(p/100*float64(n)))))
				want = ref[rank-1]
			}
			if got := l.Percentile(p); !same(got, want) {
				t.Errorf("p%v of %d samples: %v, sort.Float64s gives %v", p, len(ref), got, want)
			}
		}
		for i, v := range l.samples {
			if !same(v, ref[i]) {
				t.Fatalf("%d samples: sorted[%d] = %v, sort.Float64s gives %v", len(ref), i, v, ref[i])
			}
		}
		if got := l.Mean(); len(ref) > 0 && !same(got, sum/float64(len(ref))) {
			t.Errorf("mean of %d samples: %v, want %v", len(ref), got, sum/float64(len(ref)))
		}
	})
}
