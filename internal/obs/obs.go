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
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Event phase markers, a subset of the Chrome trace-event phases.
const (
	PhaseSpan    = byte('X') // complete slice: Start..Start+Dur on a track
	PhaseBegin   = byte('b') // async begin, paired by (Proc, Req, Name)
	PhaseEnd     = byte('e') // async end
	PhaseInstant = byte('i') // point event
)

// Event is one trace record. Fields are fixed and scalar so emitting an
// event is a single slice append — no maps, no interfaces, no boxing.
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

// Tracer accumulates events for one simulation run. A nil *Tracer is
// the disabled state: every method no-ops. Construct with NewTracer
// only when tracing is on.
type Tracer struct {
	// Label namespaces this run's processes when several runs' traces
	// are merged into one file (WriteChromeAll); empty for a lone run.
	Label string

	freqHz float64
	events []Event
	names  map[trackKey]string
	order  []trackKey
}

// NewTracer builds an enabled tracer; freqHz converts cycle stamps to
// microseconds at export time.
func NewTracer(label string, freqHz float64) *Tracer {
	return &Tracer{Label: label, freqHz: freqHz, names: map[trackKey]string{}}
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Events exposes the recorded stream in fold order (tests, Gantt).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
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
	t.events = append(t.events, Event{Name: name, Cat: cat, Ph: PhaseSpan, Proc: proc,
		Track: track, Start: start, Dur: end - start, Req: req,
		AK: ak, AV: av, BK: bk, BV: bv, SK: sk, SV: sv})
}

// Begin opens an async lifecycle phase for request req.
func (t *Tracer) Begin(name, cat, proc string, at float64, req int64) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Name: name, Cat: cat, Ph: PhaseBegin, Proc: proc, Start: at, Req: req})
}

// End closes the matching async phase.
func (t *Tracer) End(name, cat, proc string, at float64, req int64) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Name: name, Cat: cat, Ph: PhaseEnd, Proc: proc, Start: at, Req: req})
}

// Instant records a point event on a track.
func (t *Tracer) Instant(name, cat, proc string, track int32, at float64, req int64, ak string, av int64, sk, sv string) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Name: name, Cat: cat, Ph: PhaseInstant, Proc: proc,
		Track: track, Start: at, Req: req, AK: ak, AV: av, SK: sk, SV: sv})
}

// ---- Chrome trace-event export ----

// chromeMeta is a metadata record (process_name / thread_name).
type chromeMeta struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// chromeEvent is one exported record. encoding/json preserves struct
// field order and sorts map keys, so the byte stream is a pure function
// of the event sequence.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid,omitempty"`
	ID   int64          `json:"id,omitempty"` // async pairing
	S    string         `json:"s,omitempty"`  // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeAll merges several runs' traces into one Chrome JSON file:
// each tracer's processes are namespaced by its Label and assigned
// disjoint pids, in slice order. Nil tracers are skipped.
//
// Records stream to w one at a time — peak memory is one marshaled
// record, not a second copy of the whole trace. The bytes are the same
// as encoding the full slice in one Encoder.Encode: compact JSON
// inside a traceEvents envelope, trailing newline, and the legacy
// `{"traceEvents":null}` form when nothing at all is emitted.
func WriteChromeAll(w io.Writer, traces []*Tracer) error {
	bw := bufio.NewWriter(w)
	var werr error
	n := 0
	emit := func(v any) {
		if werr != nil {
			return
		}
		var data []byte
		if data, werr = json.Marshal(v); werr != nil {
			return
		}
		if n == 0 {
			_, werr = bw.WriteString(`{"traceEvents":[`)
		} else {
			werr = bw.WriteByte(',')
		}
		if werr == nil {
			n++
			_, werr = bw.Write(data)
		}
	}
	pids := map[string]int{} // prefixed proc -> pid, first-seen order
	pid := func(proc string) int {
		p, ok := pids[proc]
		if !ok {
			p = len(pids) + 1
			pids[proc] = p
			emit(chromeMeta{Name: "process_name", Ph: "M", Pid: p,
				Args: map[string]any{"name": proc}})
		}
		return p
	}
	for _, t := range traces {
		if t == nil {
			continue
		}
		prefix := ""
		if t.Label != "" {
			prefix = t.Label + ": "
		}
		toUs := 1e6 / t.freqHz
		for _, k := range t.order { // declared track names, declaration order
			emit(chromeMeta{Name: "thread_name", Ph: "M",
				Pid: pid(prefix + k.proc), Tid: int(k.track),
				Args: map[string]any{"name": t.names[k]}})
		}
		for i := range t.events {
			e := &t.events[i]
			ce := chromeEvent{Name: e.Name, Cat: e.Cat, Ph: string(e.Ph),
				Ts: e.Start * toUs, Pid: pid(prefix + e.Proc)}
			switch e.Ph {
			case PhaseSpan:
				ce.Tid = int(e.Track)
				ce.Dur = e.Dur * toUs
			case PhaseBegin, PhaseEnd:
				ce.ID = e.Req + 1 // ids must be non-zero
			case PhaseInstant:
				ce.Tid = int(e.Track)
				ce.S = "t"
			}
			if e.Req >= 0 || e.AK != "" || e.BK != "" || e.SK != "" {
				args := make(map[string]any, 4)
				if e.Req >= 0 {
					args["req"] = e.Req
				}
				if e.AK != "" {
					args[e.AK] = e.AV
				}
				if e.BK != "" {
					args[e.BK] = e.BV
				}
				if e.SK != "" {
					args[e.SK] = e.SV
				}
				ce.Args = args
			}
			emit(ce)
		}
	}
	if werr != nil {
		return werr
	}
	if n == 0 {
		// An empty merge encoded a nil slice before; keep those bytes.
		if _, err := bw.WriteString(`{"traceEvents":null}`); err != nil {
			return err
		}
	} else if _, err := bw.WriteString(`]}`); err != nil {
		return err
	}
	if err := bw.WriteByte('\n'); err != nil {
		return err
	}
	return bw.Flush()
}

// ---- Gantt summary ----

// ganttPhase is one closed lifecycle phase of a request.
type ganttPhase struct {
	name       string
	start, end float64
}

// ganttReq collects one request's phases, keyed by (proc, req).
type ganttReq struct {
	proc   string
	req    int64
	phases []ganttPhase
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
	open := map[key]map[string]float64{}
	byReq := map[key]*ganttReq{}
	var order []key
	for i := range t.events {
		e := &t.events[i]
		if e.Req < 0 || (e.Ph != PhaseBegin && e.Ph != PhaseEnd) {
			continue
		}
		k := key{e.Proc, e.Req}
		if e.Ph == PhaseBegin {
			if open[k] == nil {
				open[k] = map[string]float64{}
			}
			open[k][e.Name] = e.Start
			continue
		}
		st, ok := open[k][e.Name]
		if !ok {
			continue
		}
		delete(open[k], e.Name)
		r := byReq[k]
		if r == nil {
			r = &ganttReq{proc: k.proc, req: k.req}
			byReq[k] = r
			order = append(order, k)
		}
		r.phases = append(r.phases, ganttPhase{e.Name, st, e.Start})
	}
	if maxReqs > 0 && len(order) > maxReqs {
		order = order[:maxReqs]
	}
	msPer := t.freqHz / 1e3
	var b strings.Builder
	fmt.Fprintf(&b, "request Gantt (%d of %d requests with closed phases)\n", len(order), len(byReq))
	for _, k := range order {
		r := byReq[k]
		sort.SliceStable(r.phases, func(i, j int) bool { return r.phases[i].start < r.phases[j].start })
		t0 := r.phases[0].start
		tEnd := t0
		for _, p := range r.phases {
			if p.end > tEnd {
				tEnd = p.end
			}
		}
		fmt.Fprintf(&b, "  %s#%d @%.2fms:", r.proc, r.req, t0/msPer)
		for _, p := range r.phases {
			fmt.Fprintf(&b, "  %s %.2fms", p.name, (p.end-p.start)/msPer)
		}
		fmt.Fprintf(&b, "  | total %.2fms\n", (tEnd-t0)/msPer)
	}
	if hidden := len(byReq) - len(order); hidden > 0 {
		fmt.Fprintf(&b, "  (+%d more requests)\n", hidden)
	}
	return b.String()
}
