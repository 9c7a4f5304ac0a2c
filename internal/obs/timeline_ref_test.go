package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"
	"testing"

	"neu10/internal/metrics"
)

// refTimelines is the layout TimelineSet replaced, kept unchanged as the
// reference FuzzTimelines checks it against: one metrics.TimeSeries per
// series, each with its own times, exported sample by sample.
type refTimelines struct {
	Label  string
	FreqHz float64

	series []*metrics.TimeSeries
	index  map[string]*metrics.TimeSeries
}

func newRefTimelines(label string, freqHz float64) *refTimelines {
	return &refTimelines{Label: label, FreqHz: freqHz, index: map[string]*metrics.TimeSeries{}}
}

// Track returns the named series, creating it (unbounded) on first use.
func (s *refTimelines) Track(name string) *metrics.TimeSeries {
	if ts, ok := s.index[name]; ok {
		return ts
	}
	ts := metrics.NewTimeSeries(name, 0)
	s.index[name] = ts
	s.series = append(s.series, ts)
	return ts
}

// Add appends one sample to the named series; atCycles converts to ms.
func (s *refTimelines) Add(name string, atCycles, v float64) {
	s.Track(name).Add(atCycles/s.FreqHz*1e3, v)
}

// Attach adopts an externally built series (times already in ms) under
// its own name, replacing any same-named track.
func (s *refTimelines) Attach(ts *metrics.TimeSeries) {
	if old, ok := s.index[ts.Name]; ok {
		for i, cur := range s.series {
			if cur == old {
				s.series[i] = ts
				break
			}
		}
		s.index[ts.Name] = ts
		return
	}
	s.index[ts.Name] = ts
	s.series = append(s.series, ts)
}

// MarshalJSON exports {label, freq_hz, series:[{name,times_ms,values}]}.
func (s *refTimelines) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Label  string                `json:"label,omitempty"`
		FreqHz float64               `json:"freq_hz"`
		Series []*metrics.TimeSeries `json:"series"`
	}{s.Label, s.FreqHz, s.series})
}

// appendCSV appends the set's rows to x, one per sample.
func (s *refTimelines) appendCSV(x *exportBuf) {
	for _, ts := range s.series {
		for i := range ts.Times {
			if x.err != nil {
				return
			}
			b := append(x.b, s.Label...)
			b = append(b, ',')
			b = append(b, ts.Name...)
			b = append(b, ',')
			b = strconv.AppendFloat(b, ts.Times[i], 'g', -1, 64)
			b = append(b, ',')
			b = strconv.AppendFloat(b, ts.Values[i], 'g', -1, 64)
			x.b = append(b, '\n')
			x.spill()
		}
	}
}

// writeCSVAllRef concatenates several reference sets under one header.
func writeCSVAllRef(w io.Writer, sets []*refTimelines) error {
	x := newExportBuf(w)
	x.b = append(x.b, CSVHeader...)
	for _, s := range sets {
		if s != nil {
			s.appendCSV(x)
		}
	}
	return x.flush()
}

// fuzzSeriesNames names the sampled series of a fuzzed set; the
// attached series replaces one of them or is "ev".
var fuzzSeriesNames = [...]string{"gen/queue", "gen/attain", "gen/kv_frac/r0", "link/a/util", "link/b/util", "chat/lat_n", "chat/x", "y"}

// fuzzValues are the values a sample byte can pick: bit-level repeats
// (−0 against 0, NaN, ±Inf) are what change-point storage must keep.
var fuzzValues = [...]float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1}

// fuzzTimelines decodes a fuzz input into a TimelineSet and the
// reference recording the same samples. The input is the clock word,
// the label and a flags byte: its low three bits are the series count
// less one, and bit 3 tracks every series before the first tick. The
// attached series follows: a byte picking the sampled series it
// replaces (or, past the count, "ev"), a point count byte, and its
// points as time and value words. Then come ticks until the input runs
// out. Each is a step byte (with the high bit set, a raw cycle word
// follows; otherwise the tick comes step×1e6 cycles after the previous
// one, so a 0 step repeats its time), a byte whose bits pick the series
// sampled, and a value per sampled series: a byte picking one of
// fuzzValues, or past them, a raw word. The attached series joins last,
// as a run attaches its event-time series at finish.
func fuzzTimelines(data []byte) (*TimelineSet, *refTimelines) {
	in := fuzzInput(data)
	freqHz, label := in.f64(), in.str()
	s, ref := NewTimelineSet(label, freqHz), newRefTimelines(label, freqHz)
	flags := in.word(1)
	names := fuzzSeriesNames[:1+flags%8]
	handles := make([]*Series, len(names))
	if flags&8 != 0 {
		for i, name := range names {
			handles[i] = s.Track(name)
			ref.Track(name)
		}
	}
	attach := metrics.NewTimeSeries("ev", 0)
	if k := int(in.word(1)); k < len(names) {
		attach.Name = names[k]
	}
	for n := in.word(1) % 16; n > 0; n-- {
		attach.Add(in.f64(), in.f64())
	}
	at := 0.0
	for len(in) > 0 {
		if step := in.word(1); step&0x80 != 0 {
			at = in.f64()
		} else {
			at += float64(step) * 1e6
		}
		s.Tick(at)
		mask := in.word(1)
		for i, name := range names {
			if mask&(1<<i) == 0 {
				continue
			}
			var v float64
			if c := int(in.word(1)); c < 4*len(fuzzValues) {
				v = fuzzValues[c%len(fuzzValues)]
			} else {
				v = in.f64()
			}
			if handles[i] == nil {
				handles[i] = s.Track(name)
			}
			handles[i].Set(v)
			ref.Add(name, at, v)
		}
	}
	s.Attach(attach)
	ref.Attach(attach)
	return s, ref
}

// sameSamples reports whether two series hold the same samples, bit for
// bit.
func sameSamples(a, b *metrics.TimeSeries) bool {
	if a.Name != b.Name || len(a.Times) != len(b.Times) || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Times {
		if math.Float64bits(a.Times[i]) != math.Float64bits(b.Times[i]) ||
			math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return false
		}
	}
	return true
}

// FuzzTimelines checks change-point storage against the reference: for
// any decoded tick schedule and samples, the CSV export of the set twice
// with a nil between writes the reference's bytes, MarshalJSON returns
// the reference's bytes or the same error, and Get returns every series
// with the reference's samples.
func FuzzTimelines(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, ref := fuzzTimelines(data)
		var got, want bytes.Buffer
		if err := WriteCSVAll(&got, []*TimelineSet{s, nil, s}); err != nil {
			t.Fatal(err)
		}
		if err := writeCSVAllRef(&want, []*refTimelines{ref, nil, ref}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("CSV differs from the reference\nset:       %q\nreference: %q", got.Bytes(), want.Bytes())
		}
		gj, gerr := s.MarshalJSON()
		wj, werr := ref.MarshalJSON()
		if gerr != nil || werr != nil {
			var uv *json.UnsupportedValueError
			if gerr == nil || werr == nil || gerr.Error() != werr.Error() || !errors.As(gerr, &uv) {
				t.Fatalf("MarshalJSON error %v, reference error %v", gerr, werr)
			}
		} else if !bytes.Equal(gj, wj) {
			t.Fatalf("JSON differs from the reference\nset:       %s\nreference: %s", gj, wj)
		}
		if s.Len() != len(ref.series) {
			t.Fatalf("%d series, reference %d", s.Len(), len(ref.series))
		}
		for _, w := range ref.series {
			if g := s.Get(w.Name); g == nil || !sameSamples(g, w) {
				t.Fatalf("Get(%q) = %+v, reference %+v", w.Name, g, w)
			}
		}
	})
}
