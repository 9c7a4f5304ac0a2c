package main

import (
	"bytes"
	"encoding/json"
	"io"
	"runtime"
	"time"

	"neu10/internal/experiments"
	"neu10/internal/sched"
	"neu10/internal/serve"
	"neu10/internal/workload"
)

// Spans are recorded by the harness only, around each call it makes into
// a layer's public API; the program itself carries no instrumentation.
// They stay in memory and are written once, when the run ends.

type span struct {
	cat, name  string
	parent     int // index of the enclosing span, -1 at top level
	start, end time.Duration
}

// spanLog records spans; a nil log records nothing but still times.
type spanLog struct {
	t0    time.Time
	spans []span
	open  []int
}

type spanTok struct {
	i     int
	start time.Time
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(cat, name string) spanTok {
	now := time.Now()
	if l == nil {
		return spanTok{i: -1, start: now}
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{cat: cat, name: name, parent: parent, start: now.Sub(l.t0)})
	i := len(l.spans) - 1
	l.open = append(l.open, i)
	return spanTok{i: i, start: now}
}

// end closes the span and returns its duration in seconds.
func (l *spanLog) end(t spanTok) float64 {
	now := time.Now()
	if l != nil {
		l.spans[t.i].end = now.Sub(l.t0)
		l.open = l.open[:len(l.open)-1]
	}
	return now.Sub(t.start).Seconds()
}

// writeChrome writes the spans as Chrome trace-event JSON (Perfetto,
// chrome://tracing): complete events on one track, each carrying its
// span id and its parent's.
func (l *spanLog) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(l.spans))
	for i, s := range l.spans {
		evs[i] = event{
			Name: s.name, Cat: s.cat, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]int{"id": i, "parent": s.parent},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}

// obsRun is one chaos-obs serve.Run's host time and allocation count.
type obsRun struct{ sec, mallocs float64 }

// namedExperiments get a per-layer metric each; the rest of the paper
// ids share experiments.other_s. These are the ids that cost more than a
// few percent of a paper pass.
var namedExperiments = map[string]bool{
	"fig19": true, "fig23": true, "fig25": true, "fig26": true, "fig27": true,
	"ablation-harvest": true, "ablation-preempt": true, "slo": true,
}

func (b *bench) addExperiment(id string, sec float64) {
	if !namedExperiments[id] {
		id = "other"
	}
	b.layer["experiments."+id+"_s"] += sec
}

// probeLayers measures every layer the main workload's traced pass did
// not: each workload's pass on its own layer, plus the cold/warm and
// on/off comparisons that isolate a layer's share.
func (b *bench) probeLayers(main string) {
	if main != "paper" {
		paperPass(b)
	}
	b.serveWarmCheck()
	b.compilerProbe()
	b.schedProbe()
	b.costDBProbe()
	if b.warmFor(llmLongConfig(b.seed, 1, serve.KVPaged)) {
		if main != "llm-long" {
			llmLongPass(b)
		}
		if b.warmFor(llmLongConfig(b.seed, 1, serve.KVReserve)) {
			b.kvReserveProbe()
		}
	}
	if b.warmFor(chaosConfig(b.seed, 1, nil)) {
		if main != "chaos-obs" {
			chaosPass(b)
		}
		b.obsProbe()
	}
}

// warmFor warms the shared CostDB for cfg, counting the warm-up as an op.
func (b *bench) warmFor(cfg serve.Config) bool {
	b.ops++
	if err := b.warm(cfg); err != nil {
		b.fail("%v", err)
		return false
	}
	return true
}

// serveWarmCheck runs every serving scenario cold on a fresh runner and
// then again on the same, now warm, runner. The two outputs must match
// (the CostDB is a pure cache); the time the warm rerun saves is the
// CostDB warm-up the cold run paid.
func (b *bench) serveWarmCheck() {
	for _, id := range b.sz.serveIDs {
		r, err := b.serveRunner(id)
		if err != nil {
			b.ops++
			b.fail("runner: %v", err)
			return
		}
		b.ops += 2
		s := b.sp.begin("experiments", "Runner.Run "+id+" (cold)")
		cold, err := b.serveScenario(r, id)
		c := b.sp.end(s)
		if err != nil {
			b.fail("%s cold: %v", id, err)
			continue
		}
		s = b.sp.begin("experiments", "Runner.Run "+id+" (warm)")
		warm, err := b.serveScenario(r, id)
		w := b.sp.end(s)
		if err != nil {
			b.fail("%s warm: %v", id, err)
			continue
		}
		if !bytes.Equal(cold, warm) {
			b.fail("%s: warm rerun differs from the cold run", id)
		}
		b.layer["experiments."+id+".cold_s"] = c
		b.layer["serve.costdb.warmup_s"] += c - w
	}
}

// compilerProbe compiles the pair-study graph set on fresh caches; the
// median over repetitions is steadier than one ~1 ms sample.
func (b *bench) compilerProbe() {
	const reps = 10
	var perGraph []float64
	for rep := 0; rep < reps; rep++ {
		comp, err := workload.NewCompiled(b.core)
		if err != nil {
			b.ops++
			b.fail("compiler: %v", err)
			return
		}
		seen := map[string]bool{}
		var sec float64
		for _, p := range workload.Pairs() {
			for _, name := range []string{p.W1, p.W2} {
				for _, pol := range experiments.Policies() {
					kind := pol.ISAFor()
					key := name + "/" + kind.String()
					if seen[key] {
						continue
					}
					seen[key] = true
					b.ops++
					s := b.sp.begin("compiler", "Compiled.Graph "+key)
					_, err := comp.Graph(name, workload.BatchFor(name), kind)
					sec += b.sp.end(s)
					if err != nil {
						b.fail("compile %s: %v", key, err)
					}
				}
			}
		}
		b.layer["compiler.graphs"] = float64(len(seen))
		perGraph = append(perGraph, sec*1e3/float64(len(seen)))
	}
	b.layer["compiler.ms_per_graph"] = median(perGraph)
}

// schedProbe replays fig19's 36 (pair, policy) simulations straight
// through sched.Run on pre-compiled tenants, so only the fluid
// simulator is timed.
func (b *bench) schedProbe() {
	comp, err := workload.NewCompiled(b.core)
	if err != nil {
		b.ops++
		b.fail("compiler: %v", err)
		return
	}
	requests := experiments.DefaultOptions().Requests
	var sec, cycles float64
	runs := 0
	for _, p := range workload.Pairs() {
		for _, pol := range experiments.Policies() {
			b.ops++
			specs, err := comp.Tenants(p, pol, b.core.MEs/2, b.core.VEs/2)
			if err != nil {
				b.fail("compile %s: %v", p.Name(), err)
				continue
			}
			s := b.sp.begin("sched", "sched.Run "+p.Name()+"/"+pol.String())
			res, err := sched.Run(sched.Config{Core: b.core, Policy: pol, Requests: requests}, specs)
			sec += b.sp.end(s)
			if err != nil {
				b.fail("sched %s/%s: %v", p.Name(), pol, err)
				continue
			}
			runs++
			cycles += res.DurationCycles
		}
	}
	if runs == 0 {
		return
	}
	b.layer["sched.runs"] = float64(runs)
	b.layer["sched.ms_per_run"] = sec * 1e3 / float64(runs)
	b.layer["sched.gcycles_per_s"] = cycles / sec / 1e9
}

// costDBProbe serves one simulated second of llm-long on a fresh CostDB
// and again on the now-warm one: the difference is measurement time.
func (b *bench) costDBProbe() {
	db := serve.NewCostDB(b.core)
	cfg := llmLongConfig(b.seed, 1, serve.KVPaged)
	var secs [2]float64
	for i, label := range []string{"cold", "warm"} {
		b.ops++
		s := b.sp.begin("serve.costdb", "serve.Run llm-long 1s ("+label+")")
		_, err := serve.Run(cfg, db)
		secs[i] = b.sp.end(s)
		if err != nil {
			b.fail("costdb %s: %v", label, err)
			return
		}
	}
	n := float64(db.Entries())
	b.layer["serve.costdb.entries"] = n
	b.layer["serve.costdb.ms_per_entry"] = (secs[0] - secs[1]) * 1e3 / n
}

// kvReserveProbe serves llm-long's trace on the full-reservation KV
// backend: the A/B against the paged pass prices the paged backend.
func (b *bench) kvReserveProbe() {
	b.ops++
	s := b.sp.begin("serve.kv", "serve.Run llm-long/reserve")
	rep, err := serve.Run(llmLongConfig(b.seed, b.sz.llmLongSec, serve.KVReserve), b.db)
	d := b.sp.end(s)
	if err != nil {
		b.fail("llm-long/reserve: %v", err)
		return
	}
	b.layer["serve.kv.reserve_ns_per_req"] = d * 1e9 / float64(rep.Tenants[0].Arrivals)
}

// obsProbe serves the chaos trace with observability off and with each
// collector alone; set against the all-collectors pass, the ratios price
// each collector. The timelines are priced at the pass's period and at
// the 10 ms default users get.
func (b *bench) obsProbe() {
	variants := []struct {
		name   string
		cfg    *serve.ObsConfig
		metric string
	}{
		{"off", nil, ""},
		{"trace", &serve.ObsConfig{Trace: true}, "obs.trace_x"},
		{"timelines", &serve.ObsConfig{Timelines: true, SampleEveryMs: timelineMs}, "obs.timelines_x"},
		{"timelines-10ms", &serve.ObsConfig{Timelines: true}, "obs.timelines_10ms_x"},
		{"attrib", &serve.ObsConfig{Attrib: true}, "obs.attrib_x"},
	}
	var off obsRun
	for _, v := range variants {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b.ops++
		s := b.sp.begin("obs", "serve.Run chaos-obs/"+v.name)
		_, err := serve.Run(chaosConfig(b.seed, b.sz.chaosSec, v.cfg), b.db)
		d := b.sp.end(s)
		runtime.ReadMemStats(&m1)
		if err != nil {
			b.fail("chaos-obs/%s: %v", v.name, err)
			return
		}
		if v.cfg == nil {
			off = obsRun{sec: d, mallocs: float64(m1.Mallocs - m0.Mallocs)}
			continue
		}
		b.layer[v.metric] = d / off.sec
	}
	b.layer["obs.all_x"] = b.obsAll.sec / off.sec
	b.layer["obs.all_allocs_x"] = b.obsAll.mallocs / off.mallocs
}
