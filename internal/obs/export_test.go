package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"unsafe"
)

// fuzzInput hands out a fuzz input as typed fields. Fixed-width fields
// read as zero once the bytes run out.
type fuzzInput []byte

// take consumes up to n bytes.
func (in *fuzzInput) take(n int) []byte {
	n = min(n, len(*in))
	b := (*in)[:n]
	*in = (*in)[n:]
	return b
}

// word consumes an n-byte little-endian word, zero-padded.
func (in *fuzzInput) word(n int) uint64 {
	var b [8]byte
	copy(b[:], in.take(n))
	return binary.LittleEndian.Uint64(b[:])
}

func (in *fuzzInput) f64() float64 { return math.Float64frombits(in.word(8)) }
func (in *fuzzInput) i64() int64   { return int64(in.word(8)) }
func (in *fuzzInput) i32() int32   { return int32(in.word(4)) }

// str consumes a length byte and up to that many bytes.
func (in *fuzzInput) str() string { return string(in.take(int(in.word(1)))) }

// fuzzTracer decodes a fuzz input into a tracer: the clock word, the
// label, then records until the input runs out, each an op byte and
// the arguments of the Tracer method it selects, in parameter order
// (op 2 begins an async phase, op 3 ends one). It also returns each
// record as decoded, before the tracer interned its strings.
func fuzzTracer(data []byte) (*Tracer, []event) {
	in := fuzzInput(data)
	freqHz := in.f64()
	tr := NewTracer(in.str(), freqHz)
	var evs []event
	for len(in) > 0 {
		op := in.word(1) % 5
		if op == 0 {
			tr.NameTrack(in.str(), in.i32(), in.str())
			continue
		}
		e := event{Name: in.str(), Cat: in.str(), Proc: in.str()}
		switch op {
		case 1:
			var end float64
			e.Ph, e.Track, e.Start, end, e.Req = PhaseSpan, in.i32(), in.f64(), in.f64(), in.i64()
			e.AK, e.AV, e.BK, e.BV, e.SK, e.SV = in.str(), in.i64(), in.str(), in.i64(), in.str(), in.str()
			e.Dur = end - e.Start
			tr.Span(e.Name, e.Cat, e.Proc, e.Track, e.Start, end, e.Req, e.AK, e.AV, e.BK, e.BV, e.SK, e.SV)
		case 2, 3:
			e.Ph, e.Start, e.Req = PhaseBegin, in.f64(), in.i64()
			if op == 3 {
				e.Ph = PhaseEnd
			}
			tr.Async(e.Ph, e.Name, e.Cat, e.Proc, e.Start, e.Req)
		case 4:
			e.Ph, e.Track, e.Start, e.Req = PhaseInstant, in.i32(), in.f64(), in.i64()
			e.AK, e.AV, e.SK, e.SV = in.str(), in.i64(), in.str(), in.str()
			tr.Instant(e.Name, e.Cat, e.Proc, e.Track, e.Start, e.Req, e.AK, e.AV, e.SK, e.SV)
		}
		evs = append(evs, e)
	}
	return tr, evs
}

// FuzzWriteChrome checks recording and the append encoder: for any
// decoded tracer, its records read back as decoded, and against the
// reflection reference, the tracer exported twice with a nil between
// and then on a clock half as fast writes identical bytes, or both fail
// with the same error.
func FuzzWriteChrome(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, decoded := fuzzTracer(data)
		if got := events(tr); fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", decoded) {
			t.Fatalf("records read back as\n%#v\nwant\n%#v", got, decoded)
		}
		slow := *tr // the same records and string table
		slow.freqHz /= 2
		traces := []*Tracer{tr, nil, tr, &slow}
		var got, want bytes.Buffer
		gerr := WriteChromeAll(&got, traces)
		werr := writeChromeRef(&want, traces)
		if gerr != nil || werr != nil {
			var uv *json.UnsupportedValueError
			if gerr == nil || werr == nil || gerr.Error() != werr.Error() || !errors.As(gerr, &uv) {
				t.Fatalf("encoder error %v, reference error %v", gerr, werr)
			}
			return
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("encoder and reference differ\nencoder:   %s\nreference: %s", got.Bytes(), want.Bytes())
		}
	})
}

// mixedTracer records n events on a labeled tracer: spans, async pairs
// and instants over two tenants and the fleet, with their args.
func mixedTracer(n int) *Tracer {
	tr := NewTracer("chaos", 1e9)
	procs := []string{"gen", "chat", "fleet"}
	for i, p := range procs {
		tr.NameTrack(p, 0, "control")
		tr.NameTrack(p, int32(2+i), "replica")
	}
	for i := 0; i < n; i++ {
		p, at, req := procs[i%3], float64(i)*1000, int64(i/4)
		switch i % 4 {
		case 0:
			tr.Async(PhaseBegin, "queue", "req", p, at, req)
		case 1:
			tr.Async(PhaseEnd, "queue", "req", p, at, req)
		case 2:
			tr.Span("llm-decode", "exec", p, 3, at, at+2500, -1, "width", 8, "preempts", 0, "tenant", p)
		case 3:
			tr.Instant("complete", "req", p, 0, at, req, "lat_us", 3, "", "")
		}
	}
	return tr
}

// mixedTimelines samples rows samples over three series on 2·rows/5
// ticks: gen/queue on every tick, stepping every tenth; gen/attain,
// late-starting, over the last three quarters; link/util,
// early-ending, over the first three quarters. The last two change on
// every tick.
func mixedTimelines(rows int) *TimelineSet {
	s := NewTimelineSet("chaos", 1e9)
	queue, attain, util := s.Track("gen/queue"), s.Track("gen/attain"), s.Track("link/util")
	ticks := 2 * rows / 5
	for i := 0; i < ticks; i++ {
		s.Tick(float64(i) * 1e7)
		queue.Set(float64(i / 10))
		if i >= ticks/4 {
			attain.Set(float64(i) / 7)
		}
		if i < ticks-ticks/4 {
			util.Set(float64(i) / 3)
		}
	}
	return s
}

// mixedLedger completes reqs requests, each through queue, prefill and
// decode, on two replicas.
func mixedLedger(reqs int) *Ledger {
	l := NewLedger("chaos", 1e9)
	l.RepSpawn("gen", 0, 0)
	l.RepSpawn("gen", 1, 0)
	for i := 0; i < reqs; i++ {
		id, at := int64(i), float64(i)*1e4
		l.ReqStart("gen", id, at)
		l.ReqSeg("gen", id, SegPrefill, at+1e3)
		l.ReqSeg("gen", id, SegDecode, at+3e3)
		l.ReqDone("gen", id, at+7e3, 4)
		l.RepMark(i%2, BucketDecode, at)
	}
	l.FinishReps(float64(reqs) * 1e4)
	return l
}

// TestObsExportAllocBudget: each exporter allocates a fixed number of
// times however much it writes, and recording allocates about once per
// chunk of events and never more than the chunks' bytes plus a little.
// A stored record holds no pointer, so the collector never scans the
// chunks.
func TestObsExportAllocBudget(t *testing.T) {
	rt := reflect.TypeOf(record{})
	for i := 0; i < rt.NumField(); i++ {
		if f := rt.Field(i); f.Type.Kind() < reflect.Bool || f.Type.Kind() > reflect.Complex128 {
			t.Errorf("record field %s is a %s, want a bool or a number", f.Name, f.Type)
		}
	}
	var chrome, timelines, ledger [2]float64
	for i, n := range []int{10_000, 50_000} {
		// The recording is counted with the collector paused: a cycle
		// that starts inside it can add an allocation of its own, so
		// the count would move between runs.
		var m0, m1 runtime.MemStats
		gc := debug.SetGCPercent(-1)
		runtime.ReadMemStats(&m0)
		tr := mixedTracer(n)
		runtime.ReadMemStats(&m1)
		debug.SetGCPercent(gc)
		allocs, size := m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		chunks := uint64(n+chunkEvents-1) / chunkEvents
		t.Logf("recording %d events: %d allocations, %d bytes", n, allocs, size)
		if limit := chunks + 24; allocs > limit {
			t.Errorf("recording %d events: %d allocations, want <= %d", n, allocs, limit)
		}
		if limit := chunks*chunkEvents*uint64(unsafe.Sizeof(record{})) + 64<<10; size > limit {
			t.Errorf("recording %d events: %d bytes allocated, want <= %d", n, size, limit)
		}
		chrome[i] = testing.AllocsPerRun(3, func() {
			if err := WriteChromeAll(io.Discard, []*Tracer{tr}); err != nil {
				t.Fatal(err)
			}
		})
		sets := []*TimelineSet{mixedTimelines(n)}
		timelines[i] = testing.AllocsPerRun(3, func() {
			if err := WriteCSVAll(io.Discard, sets); err != nil {
				t.Fatal(err)
			}
		})
		ls := []*Ledger{mixedLedger(n)}
		ledger[i] = testing.AllocsPerRun(3, func() {
			if err := WriteLedgerCSVAll(io.Discard, ls); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("allocations at 10k / 50k: chrome %v / %v, timelines %v / %v, ledger %v / %v",
		chrome[0], chrome[1], timelines[0], timelines[1], ledger[0], ledger[1])
	if chrome[0] != chrome[1] || chrome[1] > 16 {
		t.Errorf("WriteChromeAll: %.0f / %.0f allocations for 10k / 50k events, want one count <= 16", chrome[0], chrome[1])
	}
	if timelines[0] != timelines[1] {
		t.Errorf("WriteCSVAll: %.0f / %.0f allocations for 10k / 50k rows, want equal", timelines[0], timelines[1])
	}
	if ledger[0] != ledger[1] {
		t.Errorf("WriteLedgerCSVAll: %.0f / %.0f allocations for 10k / 50k requests, want equal", ledger[0], ledger[1])
	}
}

// TestWriteChromeConcurrent: an export only reads its tracers, so two
// goroutines exporting one trace at once write the same bytes. Under
// -race, a write to the tracer inside the export fails the test.
func TestWriteChromeConcurrent(t *testing.T) {
	tr := mixedTracer(10_000)
	var out [2]bytes.Buffer
	var errs [2]error
	var wg sync.WaitGroup
	start := make(chan struct{}) // released at once, so the exports overlap
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs[i] = WriteChromeAll(&out[i], []*Tracer{tr, nil, tr})
		}()
	}
	close(start)
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("export errors %v, %v", errs[0], errs[1])
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatal("two concurrent exports of one trace differ")
	}
}

var errWriteFailed = errors.New("write failed")

// failWriter accepts its first left bytes, then fails.
type failWriter struct{ left int }

func (f *failWriter) Write(p []byte) (int, error) {
	if len(p) > f.left {
		n := f.left
		f.left = 0
		return n, errWriteFailed
	}
	f.left -= len(p)
	return len(p), nil
}

// TestExportWriteErrors: every exporter returns its writer's error,
// whether the first write fails or a later one.
func TestExportWriteErrors(t *testing.T) {
	tr, sets, ls := mixedTracer(10_000), []*TimelineSet{mixedTimelines(10_000)}, []*Ledger{mixedLedger(10_000)}
	exports := []struct {
		name  string
		write func(io.Writer) error
	}{
		{"WriteChromeAll", func(w io.Writer) error { return WriteChromeAll(w, []*Tracer{tr}) }},
		{"WriteCSVAll", func(w io.Writer) error { return WriteCSVAll(w, sets) }},
		{"WriteLedgerCSVAll", func(w io.Writer) error { return WriteLedgerCSVAll(w, ls) }},
	}
	for _, e := range exports {
		var full bytes.Buffer
		if err := e.write(&full); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		for _, k := range []int{flushBytes / 2, 3 * flushBytes / 2} {
			t.Run(fmt.Sprintf("%s/fail_after_%d", e.name, k), func(t *testing.T) {
				if full.Len() <= k {
					t.Fatalf("export is %d bytes, cannot fail after %d", full.Len(), k)
				}
				if err := e.write(&failWriter{left: k}); !errors.Is(err, errWriteFailed) {
					t.Fatalf("got %v, want %v", err, errWriteFailed)
				}
			})
		}
	}
}
