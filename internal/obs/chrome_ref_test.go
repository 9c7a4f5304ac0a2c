package obs

import (
	"bufio"
	"encoding/json"
	"io"
)

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

// event is one trace record with its strings looked up in the table.
type event struct {
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

// events decodes t's records in fold order; a nil tracer has none.
func events(t *Tracer) []event {
	if t == nil {
		return nil
	}
	var out []event
	s := t.strs
	for _, c := range t.chunks {
		for _, r := range c {
			out = append(out, event{Name: s[r.name], Cat: s[r.cat], Ph: r.ph, Proc: s[r.proc],
				Track: r.track, Start: r.start, Dur: r.dur, Req: r.req,
				AK: s[r.ak], AV: r.av, BK: s[r.bk], BV: r.bv, SK: s[r.sk], SV: s[r.sv]})
		}
	}
	return out
}

// writeChromeRef is the reflection exporter WriteChromeAll replaced,
// kept as the reference FuzzWriteChrome checks it against: one
// chromeMeta or chromeEvent per record, each through json.Marshal. It
// reads the records back through events.
func writeChromeRef(w io.Writer, traces []*Tracer) error {
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
				Pid: pid(prefix + t.strs[k.proc]), Tid: int(k.track),
				Args: map[string]any{"name": t.names[k]}})
		}
		evs := events(t)
		for i := range evs {
			e := &evs[i]
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
