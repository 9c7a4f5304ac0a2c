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

// record is one stored trace event. It holds no pointer, so the
// garbage collector never scans the store: its strings are indices
// into the tracer's string table, where 0 is "".
type record struct {
	start, dur float64 // sim cycles; dur for PhaseSpan only
	req        int64   // request id for lifecycle events, -1 otherwise
	av, bv     int64   // the numeric args, keyed by ak and bk

	// Name ("queue", "crash", ...), category ("req", "fault", ...),
	// process (tenant, or "fleet"), then the arg keys and the string
	// arg's value; an empty key leaves its arg out of the export.
	name, cat, proc, ak, bk, sk, sv uint32

	track int32 // thread within the process (PhaseSpan/PhaseInstant)
	ph    byte  // PhaseSpan, PhaseBegin, PhaseEnd or PhaseInstant
}

// trackKey identifies one named track.
type trackKey struct {
	proc  uint32 // string table index
	track int32
}

const reqArg = 1 // the table index of "req", the args key of a record's request id

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
	chunks [][]record        // in fold order; all but the last hold chunkEvents
	strs   []string          // the string table: "", "req", then first uses
	ids    map[string]uint32 // each table string's index
	recent [128]uint32       // recent strings' indices, by length and 3 bytes (s[len/3] parts chip0→chip2 from chip1→chip2)
	names  map[trackKey]string
	order  []trackKey
}

// NewTracer builds an enabled tracer; freqHz converts cycle stamps to
// microseconds at export time.
func NewTracer(label string, freqHz float64) *Tracer {
	return &Tracer{Label: label, freqHz: freqHz, strs: append(make([]string, 0, 64), "", "req"),
		ids: map[string]uint32{"req": reqArg}, names: map[trackKey]string{}}
}

// id returns s's index in the string table, adding s on first use. The
// recent slots answer a repeated string without hashing it.
func (t *Tracer) id(s string) uint32 {
	if s == "" {
		return 0
	}
	h := uint(len(s)*7+int(s[0])*3+int(s[len(s)/3])*5+int(s[len(s)-1])) % uint(len(t.recent))
	if i := t.recent[h]; t.strs[i] == s {
		return i
	}
	i, ok := t.ids[s]
	if !ok {
		i = uint32(len(t.strs))
		t.strs = append(t.strs, s)
		t.ids[s] = i
	}
	t.recent[h] = i
	return i
}

// add appends r to the last chunk, opening a new chunk when it is full.
func (t *Tracer) add(r record) {
	n := len(t.chunks)
	if n == 0 || len(t.chunks[n-1]) == chunkEvents {
		t.chunks = append(t.chunks, make([]record, 0, chunkEvents))
		n++
	}
	t.chunks[n-1] = append(t.chunks[n-1], r)
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil || len(t.chunks) == 0 {
		return 0
	}
	n := len(t.chunks)
	return (n-1)*chunkEvents + len(t.chunks[n-1])
}

// NameTrack labels a (proc, track) pair in the export ("replica 3
// (decode, chip 5)"). First writer wins; renaming is a no-op.
func (t *Tracer) NameTrack(proc string, track int32, label string) {
	if t == nil {
		return
	}
	k := trackKey{t.id(proc), track}
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
	t.add(record{name: t.id(name), cat: t.id(cat), ph: PhaseSpan, proc: t.id(proc),
		track: track, start: start, dur: end - start, req: req,
		ak: t.id(ak), av: av, bk: t.id(bk), bv: bv, sk: t.id(sk), sv: t.id(sv)})
}

// Async opens (ph PhaseBegin) or closes (ph PhaseEnd) an async
// lifecycle phase of request req.
func (t *Tracer) Async(ph byte, name, cat, proc string, at float64, req int64) {
	if t == nil {
		return
	}
	t.add(record{name: t.id(name), cat: t.id(cat), ph: ph, proc: t.id(proc), start: at, req: req})
}

// Instant records a point event on a track.
func (t *Tracer) Instant(name, cat, proc string, track int32, at float64, req int64, ak string, av int64, sk, sv string) {
	if t == nil {
		return
	}
	t.add(record{name: t.id(name), cat: t.id(cat), ph: PhaseInstant, proc: t.id(proc),
		track: track, start: at, req: req, ak: t.id(ak), av: av, sk: t.id(sk), sv: t.id(sv)})
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

// chromeEnc appends Chrome trace records to an exportBuf. It only reads
// the tracers it exports, so one trace may be exported by several
// goroutines at once.
type chromeEnc struct {
	*exportBuf
	n int // records written

	toUs float64  // the tracer being written: its cycle-to-µs factor,
	strs []string // its string table
	q    texts    // and each table string, quoted

	// The previous ts value's bits and text; tsLen is 0 before the first.
	tsBits uint64
	tsLen  int
	ts     [32]byte
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

// str appends table string i, quoted.
func (c *chromeEnc) str(b []byte, i uint32) []byte { return append(b, c.q.at(int(i))...) }

// stamp appends ts, reusing the previous stamp's text when ts has the
// same bits. Bits, not ==: -0 equals 0 but prints as "-0".
func (c *chromeEnc) stamp(b []byte, ts float64) []byte {
	bits := math.Float64bits(ts)
	if c.tsLen > 0 && bits == c.tsBits {
		return append(b, c.ts[:c.tsLen]...)
	}
	n := len(b)
	b, c.err = appendJSONFloat(b, ts)
	c.tsBits, c.tsLen = bits, copy(c.ts[:], b[n:])
	return b
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

// event appends r as one record. Fields come in encoding/json's struct
// order under its omitempty rules: dur, tid and id are left out when
// zero, s and args when empty.
func (c *chromeEnc) event(r *record, pid int) {
	if c.err != nil {
		return
	}
	c.open()
	b := append(c.b, `{"name":`...)
	b = c.str(b, r.name)
	b = append(b, `,"cat":`...)
	b = c.str(b, r.cat)
	b = append(b, `,"ph":"`...)
	b = append(b, r.ph, '"')
	b = append(b, `,"ts":`...)
	if b = c.stamp(b, r.start*c.toUs); c.err != nil {
		return
	}
	var tid, id int64
	switch r.ph {
	case PhaseSpan:
		tid = int64(r.track)
		if dur := r.dur * c.toUs; dur != 0 {
			b = append(b, `,"dur":`...)
			if b, c.err = appendJSONFloat(b, dur); c.err != nil {
				return
			}
		}
	case PhaseBegin, PhaseEnd:
		id = r.req + 1 // ids must be non-zero
	case PhaseInstant:
		tid = int64(r.track)
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
	if r.ph == PhaseInstant {
		b = append(b, `,"s":"t"`...)
	}
	b = c.appendArgs(b, r)
	c.b = append(b, '}')
	c.spill()
}

// chromeArg is one entry of a record's args object; a string value is a table index.
type chromeArg struct {
	key   uint32
	val   int64
	isStr bool
}

// appendArgs appends r's args object, or nothing when it has no
// entries. Keys are set in the order req, AK, BK, SK; a later equal key
// replaces the earlier value, and keys are written in bytewise order,
// as encoding/json writes a map.
func (c *chromeEnc) appendArgs(b []byte, r *record) []byte {
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
	if r.req >= 0 {
		set(chromeArg{key: reqArg, val: r.req})
	}
	if r.ak != 0 {
		set(chromeArg{key: r.ak, val: r.av})
	}
	if r.bk != 0 {
		set(chromeArg{key: r.bk, val: r.bv})
	}
	if r.sk != 0 {
		set(chromeArg{key: r.sk, val: int64(r.sv), isStr: true})
	}
	if n == 0 {
		return b
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && c.strs[args[j].key] < c.strs[args[j-1].key]; j-- {
			args[j], args[j-1] = args[j-1], args[j]
		}
	}
	b = append(b, `,"args":{`...)
	for i, a := range args[:n] {
		if i > 0 {
			b = append(b, ',')
		}
		b = c.str(b, a.key)
		b = append(b, ':')
		if a.isStr {
			b = c.str(b, uint32(a.val))
		} else {
			b = strconv.AppendInt(b, a.val, 10)
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
	pids := map[string]int{} // prefixed proc -> pid, first-seen order
	var local []int          // one tracer's proc string index -> pid, 0 until seen
	for _, t := range traces {
		if t == nil {
			continue
		}
		c.toUs, c.strs = 1e6/t.freqHz, t.strs
		fillTexts(&c.q, t.strs, 0, appendJSONString) // each table string, quoted once
		local = append(local[:0], make([]int, len(c.strs))...)
		pid := func(proc uint32) int {
			if local[proc] == 0 {
				name := c.strs[proc]
				if t.Label != "" {
					name = t.Label + ": " + name
				}
				p, ok := pids[name]
				if !ok {
					p = len(pids) + 1
					pids[name] = p
					c.meta("process_name", p, 0, name)
				}
				local[proc] = p
			}
			return local[proc]
		}
		for _, k := range t.order { // declared track names, declaration order
			c.meta("thread_name", pid(k.proc), int(k.track), t.names[k])
		}
		for _, chunk := range t.chunks {
			for i := range chunk {
				c.event(&chunk[i], pid(chunk[i].proc))
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
	name       uint32
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
	// A request's key has name 0; an open phase's, the phase name.
	type key struct {
		proc, name uint32
		req        int64
	}
	open := map[key]float64{}
	byReq := map[key][]ganttPhase{}
	var order []key
	for _, c := range t.chunks {
		for i := range c {
			r := &c[i]
			if r.req < 0 || (r.ph != PhaseBegin && r.ph != PhaseEnd) {
				continue
			}
			pk := key{r.proc, r.name, r.req}
			if r.ph == PhaseBegin {
				open[pk] = r.start
				continue
			}
			st, ok := open[pk]
			if !ok {
				continue
			}
			delete(open, pk)
			k := key{r.proc, 0, r.req}
			if byReq[k] == nil {
				order = append(order, k)
			}
			byReq[k] = append(byReq[k], ganttPhase{r.name, st, r.start})
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
		fmt.Fprintf(&b, "  %s#%d @%.2fms:", t.strs[k.proc], k.req, t0/msPer)
		for _, p := range ps {
			fmt.Fprintf(&b, "  %s %.2fms", t.strs[p.name], (p.end-p.start)/msPer)
		}
		fmt.Fprintf(&b, "  | total %.2fms\n", (tEnd-t0)/msPer)
	}
	if hidden := len(byReq) - len(order); hidden > 0 {
		fmt.Fprintf(&b, "  (+%d more requests)\n", hidden)
	}
	return b.String()
}
