// Timeline half of the observability subsystem: a sampled registry of
// named time series — gauges sampled on the obs tick, counters diffed
// into rates, rolling-histogram percentiles — exported as CSV or JSON
// so a chaos or disagg run can be plotted over time (attainment dips,
// time-to-recover, link backlog) instead of read as one scalar.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"neu10/internal/metrics"
)

// TimelineSet is an ordered registry of time series for one run. Times
// are milliseconds of sim time; series appear in first-Track order, so
// every export is deterministic.
type TimelineSet struct {
	Label  string  // run label (scenario), carried into merged exports
	FreqHz float64 // cycles per second, for cycle→ms conversion

	series []*metrics.TimeSeries
	index  map[string]*metrics.TimeSeries
}

// NewTimelineSet builds an empty registry on a sim clock of freqHz.
func NewTimelineSet(label string, freqHz float64) *TimelineSet {
	return &TimelineSet{Label: label, FreqHz: freqHz, index: map[string]*metrics.TimeSeries{}}
}

// Track returns the named series, creating it (unbounded) on first use.
func (s *TimelineSet) Track(name string) *metrics.TimeSeries {
	if ts, ok := s.index[name]; ok {
		return ts
	}
	ts := metrics.NewTimeSeries(name, 0)
	s.index[name] = ts
	s.series = append(s.series, ts)
	return ts
}

// Add appends one sample to the named series; atCycles converts to ms.
func (s *TimelineSet) Add(name string, atCycles, v float64) {
	s.Track(name).Add(atCycles/s.FreqHz*1e3, v)
}

// Attach adopts an externally built series (times already in ms) under
// its own name, replacing any same-named track.
func (s *TimelineSet) Attach(ts *metrics.TimeSeries) {
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

// Series lists the registered series in registration order.
func (s *TimelineSet) Series() []*metrics.TimeSeries {
	if s == nil {
		return nil
	}
	return s.series
}

// Get returns the named series, or nil.
func (s *TimelineSet) Get(name string) *metrics.TimeSeries {
	if s == nil {
		return nil
	}
	return s.index[name]
}

// MarshalJSON exports {label, freq_hz, series:[{name,times_ms,values}]}.
func (s *TimelineSet) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Label  string                `json:"label,omitempty"`
		FreqHz float64               `json:"freq_hz"`
		Series []*metrics.TimeSeries `json:"series"`
	}{s.Label, s.FreqHz, s.series})
}

// WriteCSV emits the set in long format — run,series,time_ms,value —
// one row per sample, series in registration order. Floats use the
// shortest round-trip representation, so the bytes are a deterministic
// function of the samples.
func (s *TimelineSet) WriteCSV(w io.Writer) error {
	if s == nil {
		return nil
	}
	x := newExportBuf(w)
	s.appendCSV(x)
	return x.flush()
}

// appendCSV appends the set's rows to x, writing about every flushBytes.
func (s *TimelineSet) appendCSV(x *exportBuf) {
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

// CSVHeader is the column row matching WriteCSV.
const CSVHeader = "run,series,time_ms,value\n"

// WriteCSVAll concatenates several runs' timelines under one header.
func WriteCSVAll(w io.Writer, sets []*TimelineSet) error {
	x := newExportBuf(w)
	x.b = append(x.b, CSVHeader...)
	for _, s := range sets {
		if s != nil {
			s.appendCSV(x)
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
