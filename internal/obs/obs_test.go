package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"neu10/internal/metrics"
)

// TestNilTracerIsSafeAndFree locks the disabled-path contract down: every
// method of a nil *Tracer must no-op without touching its arguments, and
// the whole hook surface must allocate nothing.
func TestNilTracerIsSafeAndFree(t *testing.T) {
	var tr *Tracer
	if tr.Len() != 0 || events(tr) != nil {
		t.Fatal("nil tracer has events")
	}
	if tr.Gantt(0) != "" {
		t.Fatal("nil tracer renders a Gantt")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tr.NameTrack("p", 1, "label")
		tr.Span("exec", "exec", "p", 1, 0, 10, -1, "a", 1, "b", 2, "s", "v")
		tr.Async(PhaseBegin, "queue", "req", "p", 0, 7)
		tr.Async(PhaseEnd, "queue", "req", "p", 5, 7)
		tr.Instant("crash", "fault", "p", 0, 5, -1, "a", 1, "s", "v")
	})
	if allocs > 0 {
		t.Fatalf("nil tracer allocates %.1f objects per hook batch, want 0", allocs)
	}
}

// sampleTracer builds a small deterministic trace at 1 GHz (1e6 cycles
// per millisecond).
func sampleTracer() *Tracer {
	tr := NewTracer("run", 1e9)
	tr.NameTrack("ten", 2, "replica 0")
	tr.Async(PhaseBegin, "queue", "req", "ten", 0, 1)
	tr.Async(PhaseEnd, "queue", "req", "ten", 1e6, 1)
	tr.Async(PhaseBegin, "service", "req", "ten", 1e6, 1)
	tr.Span("invoke", "exec", "ten", 2, 1e6, 3e6, -1, "width", 2, "", 0, "tenant", "ten")
	tr.Async(PhaseEnd, "service", "req", "ten", 3e6, 1)
	tr.Instant("complete", "req", "ten", 0, 3e6, 1, "lat_us", 3000, "", "")
	return tr
}

// TestWriteChromeShape checks the export is valid Chrome trace-event
// JSON: a traceEvents envelope, metadata for named processes/tracks,
// microsecond stamps, and non-zero async ids.
func TestWriteChromeShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeAll(&buf, []*Tracer{sampleTracer()}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var metas, asyncs, spans, instants int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "M":
			metas++
		case "b", "e":
			asyncs++
			if id, _ := e["id"].(float64); id == 0 {
				t.Fatalf("async event %v has zero id", e)
			}
		case "X":
			spans++
			if e["dur"].(float64) != 2000 { // 2e6 cycles at 1 GHz = 2000 µs
				t.Fatalf("span dur %v µs, want 2000", e["dur"])
			}
		case "i":
			instants++
			if e["s"] != "t" {
				t.Fatalf("instant scope %v, want t", e["s"])
			}
		}
	}
	if metas < 2 { // process_name + thread_name
		t.Fatalf("%d metadata records, want >= 2", metas)
	}
	if asyncs != 4 || spans != 1 || instants != 1 {
		t.Fatalf("got %d async / %d span / %d instant events, want 4/1/1", asyncs, spans, instants)
	}
}

// TestWriteChromeDeterministic checks byte-identical re-export — the
// property the CI determinism leg diffs across worker counts.
func TestWriteChromeDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChromeAll(&a, []*Tracer{sampleTracer()}); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeAll(&b, []*Tracer{sampleTracer()}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of the same event stream differ")
	}
}

// TestWriteChromeAllNamespaces checks merged traces keep runs apart via
// label-prefixed process names and disjoint pids.
func TestWriteChromeAllNamespaces(t *testing.T) {
	t1, t2 := sampleTracer(), sampleTracer()
	t2.Label = "other"
	var buf bytes.Buffer
	if err := WriteChromeAll(&buf, []*Tracer{t1, nil, t2}); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, `"run: ten"`) || !strings.Contains(s, `"other: ten"`) {
		t.Fatalf("merged export lacks label-prefixed process names:\n%s", s)
	}
}

// TestGantt checks the per-request summary pairs phases and totals them.
func TestGantt(t *testing.T) {
	g := sampleTracer().Gantt(0)
	want := "  ten#1 @0.00ms:  queue 1.00ms  service 2.00ms  | total 3.00ms\n"
	if !strings.Contains(g, want) {
		t.Fatalf("Gantt output:\n%s\nwant line:\n%s", g, want)
	}
	if !strings.HasPrefix(g, "request Gantt (1 of 1 requests") {
		t.Fatalf("Gantt header: %q", g)
	}
	// maxReqs truncation.
	tr := sampleTracer()
	tr.Async(PhaseBegin, "queue", "req", "ten", 0, 2)
	tr.Async(PhaseEnd, "queue", "req", "ten", 5e5, 2)
	if g := tr.Gantt(1); strings.Contains(g, "ten#2") {
		t.Fatalf("Gantt(1) shows a second request:\n%s", g)
	}
}

// TestTimelineSetExports checks cycle→ms conversion, registration-order
// CSV, and the JSON schema.
func TestTimelineSetExports(t *testing.T) {
	s := NewTimelineSet("run", 1e9)
	b, a := s.Track("b"), s.Track("a") // registered second: must export second
	s.Tick(1e6)                        // 1 ms
	b.Set(2)
	a.Set(0.5)
	s.Tick(2e6)
	b.Set(3)
	var buf bytes.Buffer
	if err := WriteCSVAll(&buf, []*TimelineSet{s, nil}); err != nil {
		t.Fatal(err)
	}
	want := CSVHeader + "run,b,1,2\nrun,b,2,3\nrun,a,1,0.5\n"
	if buf.String() != want {
		t.Fatalf("CSV:\n%q\nwant:\n%q", buf.String(), want)
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Label  string  `json:"label"`
		FreqHz float64 `json:"freq_hz"`
		Series []struct {
			Name   string    `json:"name"`
			Times  []float64 `json:"times_ms"`
			Values []float64 `json:"values"`
		} `json:"series"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Label != "run" || len(doc.Series) != 2 || doc.Series[0].Name != "b" {
		t.Fatalf("JSON schema mismatch: %s", data)
	}
}

// TestTimelineAttachReplaces checks Attach keeps registration order when
// replacing a same-named series.
func TestTimelineAttachReplaces(t *testing.T) {
	s := NewTimelineSet("run", 1e9)
	x, y := s.Track("x"), s.Track("y")
	s.Tick(1e6)
	x.Set(1)
	y.Set(2)
	repl := metrics.NewTimeSeries("x", 0)
	repl.Add(5, 9)
	s.Attach(repl)
	if got := s.Get("x"); got != repl {
		t.Fatal("Attach did not replace the indexed series")
	}
	var buf bytes.Buffer
	if err := WriteCSVAll(&buf, []*TimelineSet{s}); err != nil {
		t.Fatal(err)
	}
	if want := CSVHeader + "run,x,5,9\nrun,y,1,2\n"; buf.String() != want || s.Len() != 2 {
		t.Fatalf("Attach broke registration order: %d series\n%s", s.Len(), buf.String())
	}
}

// TestWindowedRatio checks the sliding-window ratio math and the
// carry-forward rule on empty denominators.
func TestWindowedRatio(t *testing.T) {
	num := metrics.NewTimeSeries("ok", 0)
	den := metrics.NewTimeSeries("all", 0)
	// Cumulative: 4 arrivals/4 ok, then 4 more arrivals/2 ok, then idle.
	for i, p := range []struct{ n, d float64 }{{0, 0}, {4, 4}, {6, 8}, {6, 8}} {
		num.Add(float64(i), p.n)
		den.Add(float64(i), p.d)
	}
	win, err := WindowedRatio("w", num, den, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 0.5, 0.5} // idle tail carries 0.5 forward
	for i, w := range want {
		if win.Values[i] != w {
			t.Fatalf("win[%d] = %v, want %v (all %v)", i, win.Values[i], w, win.Values)
		}
	}
	short := metrics.NewTimeSeries("s", 0)
	if _, err := WindowedRatio("w", num, short, 1); err == nil {
		t.Fatal("length mismatch not rejected")
	}
}
