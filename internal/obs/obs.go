// Package obs is the serving simulator's observability substrate:
// deterministic request-lifecycle tracing and time-resolved telemetry,
// both driven entirely by the sim clock.
//
// The design contract, shared with internal/serve:
//
//   - Zero overhead when disabled. Every Tracer method is safe on a nil
//     receiver and returns immediately without touching its arguments,
//     so instrumentation sites cost one nil check and no allocations
//     when observability is off — fault-free, trace-free runs stay
//     byte-identical and benchmarks stay flat.
//   - Deterministic when enabled. Events carry sim-clock cycle stamps
//     and are folded in creation order by the single-threaded event
//     loop that owns the Tracer; no wall clock, no map iteration, no
//     goroutine interleaving touches the recorded stream. Exports are
//     therefore byte-identical at any worker count.
//
// Two export surfaces:
//
//   - WriteChromeAll emits Chrome trace-event JSON (the
//     "JSON Array Format" with a traceEvents envelope) loadable in
//     Perfetto (https://ui.perfetto.dev) or chrome://tracing. Replica
//     service segments are complete ("X") slices on per-replica
//     tracks; per-request lifecycle phases (queue, prefill, migrate,
//     decode) are async ("b"/"e") pairs keyed by request id; control
//     and fault actions are instant ("i") events.
//   - Gantt renders a compact per-request phase summary as text.
//
// Time-resolved metrics live in TimelineSet (timeline.go).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Event phase markers, a subset of the Chrome trace-event phases.
const (
	PhaseSpan    = byte('X') // complete slice: Start..Start+Dur on a track
	PhaseBegin   = byte('b') // async begin, paired by (Proc, Req, Name)
	PhaseEnd     = byte('e') // async end
	PhaseInstant = byte('i') // point event
)

// Event is one trace record. Fields are fixed and scalar so emitting an
// event copies one struct into the tracer's current chunk — no maps, no
// interfaces, no boxing.
type Event struct {
	Name  string  // what happened ("queue", "llm-decode", "crash", ...)
	Cat   string  // category ("req", "exec", "control", "fault", ...)
	Ph    byte    // PhaseSpan, PhaseBegin, PhaseEnd or PhaseInstant
	Proc  string  // process label (tenant name, or "fleet")
	Track int32   // thread within the process (PhaseSpan/PhaseInstant)
	Start float64 // sim cycles
	Dur   float64 // sim cycles (PhaseSpan only)
	Req   int64   // request id for lifecycle events, -1 otherwise

	// Up to two numeric args and one string arg, keyed; empty keys are
	// omitted from the export.
	AK, BK string
	AV, BV int64
	SK, SV string
}

// trackKey identifies one named track.
type trackKey struct {
	proc  string
	track int32
}

// chunkEvents is the capacity of one chunk of a Tracer's event store.
// Recording fills one chunk after another, so a long trace is never
// copied to grow it.
const chunkEvents = 4096

// Tracer accumulates events for one simulation run. A nil *Tracer is
// the disabled state: every method no-ops. Construct with NewTracer
// only when tracing is on.
type Tracer struct {
	// Label namespaces this run's processes when several runs' traces
	// are merged into one file (WriteChromeAll); empty for a lone run.
	Label string

	freqHz float64
	chunks [][]Event // in fold order; all but the last hold chunkEvents
	names  map[trackKey]string
	order  []trackKey
}

// NewTracer builds an enabled tracer; freqHz converts cycle stamps to
// microseconds at export time.
func NewTracer(label string, freqHz float64) *Tracer {
	return &Tracer{Label: label, freqHz: freqHz, names: map[trackKey]string{}}
}

// add appends e to the last chunk, opening a new chunk when it is full.
func (t *Tracer) add(e Event) {
	n := len(t.chunks)
	if n == 0 || len(t.chunks[n-1]) == chunkEvents {
		t.chunks = append(t.chunks, make([]Event, 0, chunkEvents))
		n++
	}
	t.chunks[n-1] = append(t.chunks[n-1], e)
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil || len(t.chunks) == 0 {
		return 0
	}
	n := len(t.chunks)
	return (n-1)*chunkEvents + len(t.chunks[n-1])
}

// Events returns a copy of the recorded stream in fold order (tests).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, t.Len())
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	return out
}

// NameTrack labels a (proc, track) pair in the export ("replica 3
// (decode, chip 5)"). First writer wins; renaming is a no-op.
func (t *Tracer) NameTrack(proc string, track int32, label string) {
	if t == nil {
		return
	}
	k := trackKey{proc, track}
	if _, ok := t.names[k]; ok {
		return
	}
	t.names[k] = label
	t.order = append(t.order, k)
}

// Span records a complete slice on a track: [start, end) cycles.
func (t *Tracer) Span(name, cat, proc string, track int32, start, end float64, req int64, ak string, av int64, bk string, bv int64, sk, sv string) {
	if t == nil {
		return
	}
	t.add(Event{Name: name, Cat: cat, Ph: PhaseSpan, Proc: proc,
		Track: track, Start: start, Dur: end - start, Req: req,
		AK: ak, AV: av, BK: bk, BV: bv, SK: sk, SV: sv})
}

// Begin opens an async lifecycle phase for request req.
func (t *Tracer) Begin(name, cat, proc string, at float64, req int64) {
	if t == nil {
		return
	}
	t.add(Event{Name: name, Cat: cat, Ph: PhaseBegin, Proc: proc, Start: at, Req: req})
}

// End closes the matching async phase.
func (t *Tracer) End(name, cat, proc string, at float64, req int64) {
	if t == nil {
		return
	}
	t.add(Event{Name: name, Cat: cat, Ph: PhaseEnd, Proc: proc, Start: at, Req: req})
}

// Instant records a point event on a track.
func (t *Tracer) Instant(name, cat, proc string, track int32, at float64, req int64, ak string, av int64, sk, sv string) {
	if t == nil {
		return
	}
	t.add(Event{Name: name, Cat: cat, Ph: PhaseInstant, Proc: proc,
		Track: track, Start: at, Req: req, AK: ak, AV: av, SK: sk, SV: sv})
}

// ---- Export buffer, shared by the Chrome and CSV exporters ----

// flushBytes is about how many bytes an exporter gathers before each
// write to its destination.
const flushBytes = 32 << 10

// exportBuf gathers an export's bytes in one reused buffer and hands
// them to w about every flushBytes, so an export of any length costs
// one buffer. err keeps the first failure; once it is set, nothing more
// is written.
type exportBuf struct {
	w   io.Writer
	b   []byte
	err error
}

func newExportBuf(w io.Writer) *exportBuf {
	return &exportBuf{w: w, b: make([]byte, 0, 2*flushBytes)}
}

// spill writes the buffer once it holds flushBytes or more.
func (x *exportBuf) spill() {
	if len(x.b) >= flushBytes {
		x.flush()
	}
}

// flush writes whatever the buffer holds and returns the first error.
func (x *exportBuf) flush() error {
	if x.err == nil && len(x.b) > 0 {
		_, x.err = x.w.Write(x.b)
	}
	x.b = x.b[:0]
	return x.err
}

// ---- Chrome trace-event export ----

// chromeEnc appends Chrome trace records to an exportBuf.
type chromeEnc struct {
	*exportBuf
	n int // records written
}

// open starts a record: the envelope before the first, a comma after.
func (c *chromeEnc) open() {
	if c.n == 0 {
		c.b = append(c.b, `{"traceEvents":[`...)
	} else {
		c.b = append(c.b, ',')
	}
	c.n++
}

// meta appends a metadata record (process_name / thread_name).
func (c *chromeEnc) meta(kind string, pid, tid int, name string) {
	if c.err != nil {
		return
	}
	c.open()
	b := append(c.b, `{"name":"`...)
	b = append(b, kind...)
	b = append(b, `","ph":"M","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"args":{"name":`...)
	b = appendJSONString(b, name)
	c.b = append(b, "}}"...)
	c.spill()
}

// event appends e as one record; toUs converts cycles to microseconds.
// Fields come in encoding/json's struct order under its omitempty
// rules: dur, tid and id are left out when zero, s and args when empty.
func (c *chromeEnc) event(e *Event, pid int, toUs float64) {
	if c.err != nil {
		return
	}
	c.open()
	b := append(c.b, `{"name":`...)
	b = appendJSONString(b, e.Name)
	b = append(b, `,"cat":`...)
	b = appendJSONString(b, e.Cat)
	b = append(b, `,"ph":"`...)
	b = append(b, e.Ph, '"')
	b = append(b, `,"ts":`...)
	if b, c.err = appendJSONFloat(b, e.Start*toUs); c.err != nil {
		return
	}
	var tid, id int64
	switch e.Ph {
	case PhaseSpan:
		tid = int64(e.Track)
		if dur := e.Dur * toUs; dur != 0 {
			b = append(b, `,"dur":`...)
			if b, c.err = appendJSONFloat(b, dur); c.err != nil {
				return
			}
		}
	case PhaseBegin, PhaseEnd:
		id = e.Req + 1 // ids must be non-zero
	case PhaseInstant:
		tid = int64(e.Track)
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	if tid != 0 {
		b = append(b, `,"tid":`...)
		b = strconv.AppendInt(b, tid, 10)
	}
	if id != 0 {
		b = append(b, `,"id":`...)
		b = strconv.AppendInt(b, id, 10)
	}
	if e.Ph == PhaseInstant {
		b = append(b, `,"s":"t"`...)
	}
	b = appendArgs(b, e)
	c.b = append(b, '}')
	c.spill()
}

// chromeArg is one entry of a record's args object.
type chromeArg struct {
	key, str string
	num      int64
	isStr    bool
}

// appendArgs appends e's args object, or nothing when it has no
// entries. Keys are set in the order req, AK, BK, SK; a later equal key
// replaces the earlier value, and keys are written in bytewise order,
// as encoding/json writes a map.
func appendArgs(b []byte, e *Event) []byte {
	var args [4]chromeArg
	n := 0
	set := func(a chromeArg) {
		for i := range args[:n] {
			if args[i].key == a.key {
				args[i] = a
				return
			}
		}
		args[n] = a
		n++
	}
	if e.Req >= 0 {
		set(chromeArg{key: "req", num: e.Req})
	}
	if e.AK != "" {
		set(chromeArg{key: e.AK, num: e.AV})
	}
	if e.BK != "" {
		set(chromeArg{key: e.BK, num: e.BV})
	}
	if e.SK != "" {
		set(chromeArg{key: e.SK, str: e.SV, isStr: true})
	}
	if n == 0 {
		return b
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && args[j].key < args[j-1].key; j-- {
			args[j], args[j-1] = args[j-1], args[j]
		}
	}
	b = append(b, `,"args":{`...)
	for i, a := range args[:n] {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, a.key)
		b = append(b, ':')
		if a.isStr {
			b = appendJSONString(b, a.str)
		} else {
			b = strconv.AppendInt(b, a.num, 10)
		}
	}
	return append(b, '}')
}

// appendJSONString appends s quoted as encoding/json quotes it. A
// string of HTML-safe printable ASCII is written as is; any other is
// left to json.Marshal, which escapes it.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends f as encoding/json writes a float64: 'f'
// format, or 'e' when |f| < 1e-6 or |f| >= 1e21 with e-07 trimmed to
// e-7. NaN and ±Inf have no JSON form; they return the error
// encoding/json returns.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// WriteChromeAll merges several runs' traces into one Chrome JSON file:
// each tracer's processes are namespaced by its Label and assigned
// disjoint pids, in slice order. Nil tracers are skipped. A
// process_name record comes just before the first record that names
// its process.
//
// Records are appended to one reused buffer that is written to w about
// every flushBytes, so peak memory is one buffer, not a second copy of
// the trace. The bytes are those encoding/json writes for the full
// record slice in one Encoder.Encode: compact JSON inside a
// traceEvents envelope, trailing newline, and the legacy
// `{"traceEvents":null}` form when nothing at all is emitted. A NaN or
// infinite stamp returns encoding/json's *UnsupportedValueError.
func WriteChromeAll(w io.Writer, traces []*Tracer) error {
	c := chromeEnc{exportBuf: newExportBuf(w)}
	pids := map[string]int{}  // prefixed proc -> pid, first-seen order
	local := map[string]int{} // one tracer's proc -> pid
	for _, t := range traces {
		if t == nil {
			continue
		}
		prefix := ""
		if t.Label != "" {
			prefix = t.Label + ": "
		}
		clear(local)
		pid := func(proc string) int {
			p, ok := local[proc]
			if !ok {
				name := prefix + proc
				if p, ok = pids[name]; !ok {
					p = len(pids) + 1
					pids[name] = p
					c.meta("process_name", p, 0, name)
				}
				local[proc] = p
			}
			return p
		}
		toUs := 1e6 / t.freqHz
		for _, k := range t.order { // declared track names, declaration order
			c.meta("thread_name", pid(k.proc), int(k.track), t.names[k])
		}
		for _, chunk := range t.chunks {
			for i := range chunk {
				c.event(&chunk[i], pid(chunk[i].Proc), toUs)
			}
		}
	}
	if c.err != nil {
		return c.err
	}
	if c.n == 0 {
		// An empty merge encoded a nil slice before; keep those bytes.
		c.b = append(c.b, `{"traceEvents":null}`...)
	} else {
		c.b = append(c.b, "]}"...)
	}
	c.b = append(c.b, '\n')
	return c.flush()
}

// ---- Gantt summary ----

// ganttPhase is one closed lifecycle phase of a request.
type ganttPhase struct {
	name       string
	start, end float64
}

// Gantt renders a compact per-request phase summary of the trace: one
// line per request (first maxReqs by first-event order; 0 = all),
// listing each closed async phase with its duration in milliseconds.
// Only requests with at least one closed phase appear.
func (t *Tracer) Gantt(maxReqs int) string {
	if t == nil {
		return ""
	}
	type key struct {
		proc string
		req  int64
	}
	type phaseKey struct {
		key
		name string
	}
	open := map[phaseKey]float64{}
	byReq := map[key][]ganttPhase{}
	var order []key
	for _, c := range t.chunks {
		for i := range c {
			e := &c[i]
			if e.Req < 0 || (e.Ph != PhaseBegin && e.Ph != PhaseEnd) {
				continue
			}
			k := key{e.Proc, e.Req}
			pk := phaseKey{k, e.Name}
			if e.Ph == PhaseBegin {
				open[pk] = e.Start
				continue
			}
			st, ok := open[pk]
			if !ok {
				continue
			}
			delete(open, pk)
			if byReq[k] == nil {
				order = append(order, k)
			}
			byReq[k] = append(byReq[k], ganttPhase{e.Name, st, e.Start})
		}
	}
	if maxReqs > 0 && len(order) > maxReqs {
		order = order[:maxReqs]
	}
	msPer := t.freqHz / 1e3
	var b strings.Builder
	fmt.Fprintf(&b, "request Gantt (%d of %d requests with closed phases)\n", len(order), len(byReq))
	for _, k := range order {
		ps := byReq[k]
		sort.SliceStable(ps, func(i, j int) bool { return ps[i].start < ps[j].start })
		t0 := ps[0].start
		tEnd := t0
		for _, p := range ps {
			if p.end > tEnd {
				tEnd = p.end
			}
		}
		fmt.Fprintf(&b, "  %s#%d @%.2fms:", k.proc, k.req, t0/msPer)
		for _, p := range ps {
			fmt.Fprintf(&b, "  %s %.2fms", p.name, (p.end-p.start)/msPer)
		}
		fmt.Fprintf(&b, "  | total %.2fms\n", (tEnd-t0)/msPer)
	}
	if hidden := len(byReq) - len(order); hidden > 0 {
		fmt.Fprintf(&b, "  (+%d more requests)\n", hidden)
	}
	return b.String()
}
