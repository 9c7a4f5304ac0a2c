// Timeline half of the observability subsystem: a sampled registry of
// named time series — gauges sampled on the obs tick, counters diffed
// into rates, rolling-histogram percentiles — exported as CSV or JSON
// so a chaos or disagg run can be plotted over time (attainment dips,
// time-to-recover, link backlog) instead of read as one scalar.
//
// A set costs what changes, not what elapses. It keeps one grid of tick
// times, and each sampled series keeps only the ticks where it starts,
// stops or changes value. The exports expand every series back to one
// row per sampled tick, so their bytes are those of one (time, value)
// pair per sample: the CSV export formats each grid time and each
// change-point value once, and the JSON export marshals each series as
// Get expands it.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"neu10/internal/metrics"
)

// TimelineSet is an ordered registry of time series for one run. Times
// are milliseconds of sim time; series appear in first-Track order, so
// every export is deterministic.
//
// A run samples in ticks: Tick appends the tick's time to the set's
// grid, then Series.Set records each sampled series' value at it.
type TimelineSet struct {
	Label  string  // run label (scenario), carried into merged exports
	FreqHz float64 // cycles per second, for cycle→ms conversion

	grid   []float64 // ms time of each tick, in Tick order
	series []*Series
	index  map[string]*Series
}

// Series is one series of a TimelineSet. Track hands it out once, so a
// sampler records through it without building a name or looking one
// up. A sampled series stores change points against its set's grid; an
// attached one (Attach) keeps its own times.
type Series struct {
	Name string

	set  *TimelineSet
	pts  []point             // change points, in tick order
	last int                 // latest tick sampled; -1 before the first
	ext  *metrics.TimeSeries // the attached series, or nil
}

// point opens a step: v holds from grid tick `tick` up to the next
// point, or through the series' last tick. A point with a negative tick
// ends a run instead: the series was not sampled from tick ^tick up to
// the next point.
type point struct {
	tick int
	v    float64
}

// NewTimelineSet builds an empty registry on a sim clock of freqHz.
func NewTimelineSet(label string, freqHz float64) *TimelineSet {
	return &TimelineSet{Label: label, FreqHz: freqHz, index: map[string]*Series{}}
}

// Tick opens a sampling tick at atCycles, converted to ms: every Set
// until the next Tick records at this time. Two ticks may share a time.
func (s *TimelineSet) Tick(atCycles float64) {
	s.grid = append(s.grid, atCycles/s.FreqHz*1e3)
}

// Track returns the named series, registering it on first use.
func (s *TimelineSet) Track(name string) *Series {
	if ts, ok := s.index[name]; ok {
		return ts
	}
	ts := &Series{Name: name, set: s, last: -1}
	s.index[name] = ts
	s.series = append(s.series, ts)
	return ts
}

// Set records v at the set's latest tick; before the first Tick it does
// nothing. A series holds one value per tick, the first set. A value
// whose bits repeat the previous tick's extends the current step, so -0
// and 0 differ and a NaN repeats; a sample after a tick without one
// starts a new run.
func (ts *Series) Set(v float64) {
	k := len(ts.set.grid) - 1
	if k <= ts.last {
		return
	}
	n := len(ts.pts)
	switch {
	case n > 0 && k == ts.last+1 && math.Float64bits(v) == math.Float64bits(ts.pts[n-1].v):
		// a repeat: the current step grows by this tick
	case n > 0 && k > ts.last+1:
		ts.pts = append(ts.pts, point{tick: ^(ts.last + 1)}, point{tick: k, v: v})
	default:
		ts.pts = append(ts.pts, point{tick: k, v: v})
	}
	ts.last = k
}

// Attach adopts an externally built series (times already in ms) under
// its own name, replacing any same-named series in its place. It keeps
// its own times and takes no Set.
func (s *TimelineSet) Attach(ts *metrics.TimeSeries) {
	*s.Track(ts.Name) = Series{Name: ts.Name, set: s, last: math.MaxInt, ext: ts}
}

// Len returns the number of registered series.
func (s *TimelineSet) Len() int {
	if s == nil {
		return 0
	}
	return len(s.series)
}

// Get returns the named series with one point per sample, or nil. A
// sampled series is expanded into a new copy; an attached one is
// returned as attached.
func (s *TimelineSet) Get(name string) *metrics.TimeSeries {
	if s == nil {
		return nil
	}
	ts := s.index[name]
	if ts == nil {
		return nil
	}
	if ts.ext != nil {
		return ts.ext
	}
	out := metrics.NewTimeSeries(name, 0)
	ts.steps(func(from, to int, v float64) {
		for k := from; k < to; k++ {
			out.Add(s.grid[k], v)
		}
	})
	return out
}

// steps calls fn for each run of rows that share one value, as indices
// [from, to) into the series' times: a step on the set's grid, or one
// point of an attached series.
func (ts *Series) steps(fn func(from, to int, v float64)) {
	if ts.ext != nil {
		for i := range ts.ext.Times {
			fn(i, i+1, ts.ext.Values[i])
		}
		return
	}
	for i, p := range ts.pts {
		if p.tick < 0 {
			continue
		}
		to := ts.last + 1
		if i+1 < len(ts.pts) {
			if to = ts.pts[i+1].tick; to < 0 {
				to = ^to
			}
		}
		fn(p.tick, to, p.v)
	}
}

// ---- Export ----

// maxFloatText bounds the CSV text of one float64.
const maxFloatText = 25

// texts holds the text of each value of a slice, formatted once.
type texts struct {
	b   []byte
	end []int // the text of value k is b[end[k]:end[k+1]]
}

// fillTexts formats vals into t with text, reusing t's buffers, which
// it grows to hold len(vals) texts and size bytes; a fill whose texts
// fit in size bytes costs at most two allocations.
func fillTexts[T any](t *texts, vals []T, size int, text func([]byte, T) []byte) {
	if cap(t.b) < size {
		t.b = make([]byte, 0, size)
	}
	if cap(t.end) <= len(vals) {
		t.end = make([]int, 0, len(vals)+1)
	}
	t.b, t.end = t.b[:0], append(t.end[:0], 0)
	for _, v := range vals {
		t.b = text(t.b, v)
		t.end = append(t.end, len(t.b))
	}
}

func (t *texts) at(k int) []byte { return t.b[t.end[k]:t.end[k+1]] }

func appendCSVFloat(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'g', -1, 64) }

// MarshalJSON exports {label, freq_hz, series:[{name,times_ms,values}]}
// through encoding/json, each series expanded by Get. A NaN or infinite
// frequency, time or value returns encoding/json's
// *UnsupportedValueError.
func (s *TimelineSet) MarshalJSON() ([]byte, error) {
	var series []*metrics.TimeSeries
	for _, ts := range s.series {
		series = append(series, s.Get(ts.Name))
	}
	return json.Marshal(struct {
		Label  string                `json:"label,omitempty"`
		FreqHz float64               `json:"freq_hz"`
		Series []*metrics.TimeSeries `json:"series"`
	}{s.Label, s.FreqHz, series})
}

// appendCSV appends the set's rows to x, writing about every flushBytes.
// It formats the row times into grid once, and an attached series' own
// times into own when the export reaches it.
func (s *TimelineSet) appendCSV(x *exportBuf, grid, own *texts) {
	fillTexts(grid, s.grid, len(s.grid)*maxFloatText, appendCSVFloat)
	for _, ts := range s.series {
		times := grid
		if ts.ext != nil {
			fillTexts(own, ts.ext.Times, len(ts.ext.Times)*maxFloatText, appendCSVFloat)
			times = own
		}
		var pb [64]byte
		pre := append(append(append(append(pb[:0], s.Label...), ','), ts.Name...), ',')
		ts.steps(func(from, to int, v float64) {
			var vb [maxFloatText + 2]byte
			val := append(appendCSVFloat(append(vb[:0], ','), v), '\n')
			for k := from; k < to && x.err == nil; k++ {
				b := append(x.b, pre...)
				b = append(b, times.at(k)...)
				x.b = append(b, val...)
				x.spill()
			}
		})
	}
}

// CSVHeader is the column row WriteCSVAll writes first.
const CSVHeader = "run,series,time_ms,value\n"

// WriteCSVAll emits several runs' timelines under one header in long
// format — run,series,time_ms,value — one row per sample, runs in slice
// order and series in registration order; nil sets are skipped. Floats
// use the shortest round-trip representation, so the bytes are a
// deterministic function of the samples.
func WriteCSVAll(w io.Writer, sets []*TimelineSet) error {
	x := newExportBuf(w)
	x.b = append(x.b, CSVHeader...)
	var grid, own texts
	for _, s := range sets {
		if s != nil {
			s.appendCSV(x, &grid, &own)
		}
	}
	return x.flush()
}

// WindowedRatio derives a sliding-window ratio series from cumulative
// numerator and denominator series sampled on the same tick grid:
// out[i] = (num[i]-num[i-w]) / (den[i]-den[i-w]), the attainment (or
// hit-rate) over the trailing w samples. Intervals with an empty
// denominator carry the previous value forward (1 before any traffic),
// so the series plots cleanly. The input series must be equal-length.
func WindowedRatio(name string, num, den *metrics.TimeSeries, w int) (*metrics.TimeSeries, error) {
	if len(num.Times) != len(den.Times) {
		return nil, fmt.Errorf("obs: windowed ratio %s: series lengths differ (%d vs %d)", name, len(num.Times), len(den.Times))
	}
	if w < 1 {
		w = 1
	}
	out := metrics.NewTimeSeries(name, 0)
	prev := 1.0
	for i := range num.Times {
		j := i - w
		var n0, d0 float64
		if j >= 0 {
			n0, d0 = num.Values[j], den.Values[j]
		}
		if d := den.Values[i] - d0; d > 0 {
			prev = (num.Values[i] - n0) / d
		}
		out.Add(num.Times[i], prev)
	}
	return out, nil
}
