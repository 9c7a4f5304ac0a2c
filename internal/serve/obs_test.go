package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"neu10/internal/arch"
	"neu10/internal/obs"
	"neu10/internal/sim"
)

// obsOn is the full-observability config for tests.
func obsOn() *ObsConfig { return &ObsConfig{Trace: true, Timelines: true} }

// TestObsZeroOverhead is the zero-overhead contract at the fleet level:
// the same seed must produce a byte-identical report table with
// observability fully on and fully off — observation never perturbs the
// simulation. (The allocation half of the contract — a nil tracer's
// hooks allocate nothing — is locked down in internal/obs.)
func TestObsZeroOverhead(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	plain, err := Run(fastConfig(7), db)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(7)
	cfg.Obs = obsOn()
	traced, err := Run(cfg, db)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Table() != traced.Table() {
		t.Errorf("tracing changed the report:\n--- off ---\n%s\n--- on ---\n%s", plain.Table(), traced.Table())
	}
	if plain.Trace != nil || plain.Timelines != nil {
		t.Error("disabled run carries observability artifacts")
	}
	if traced.Trace.Len() == 0 {
		t.Error("traced run recorded no events")
	}
	if traced.Timelines.Len() == 0 {
		t.Error("traced run sampled no timelines")
	}
}

// TestObsSharedConfigNotMutated guards the parallel-leg contract: Run
// defaults a private copy of a shared ObsConfig, never the caller's.
func TestObsSharedConfigNotMutated(t *testing.T) {
	shared := &ObsConfig{Timelines: true}
	cfg := fastConfig(3)
	cfg.Obs = shared
	if _, err := Run(cfg, NewCostDB(arch.TPUv4Like())); err != nil {
		t.Fatal(err)
	}
	if shared.SampleEveryMs != 0 {
		t.Errorf("Run mutated the caller's ObsConfig: %+v", *shared)
	}
}

// TestTimelineSampleAllocBudget: once each series has its handle, a
// timeline tick builds no name and allocates almost nothing. A fixed
// disaggregated fleet (two prefill and two decode replicas, four links)
// serves 45 s with timelines on and with obs off; the run with
// timelines makes at most timelineTickAllocs more allocations per 10 ms
// tick between 20 and 40 simulated seconds. The sampler measured 0.011
// (slice growth alone); building each series' name on every tick, three
// per link, cost 32.
func TestTimelineSampleAllocBudget(t *testing.T) {
	const timelineTickAllocs = 0.05
	db := NewCostDB(arch.TPUv4Like())
	window := func(o *ObsConfig) uint64 {
		cfg := disaggConfig(1, 64, 0)
		cfg.DurationSec = 45
		cfg.Obs = o
		f, err := newFleet(cfg, db)
		if err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		hz := cfg.Core.FrequencyHz
		f.eng.At(sim.Time(20*hz), func(sim.Time) { runtime.ReadMemStats(&m0) })
		f.eng.At(sim.Time(40*hz), func(sim.Time) { runtime.ReadMemStats(&m1) })
		for _, ten := range f.tenants {
			f.scheduleArrival(ten)
		}
		f.scheduleObs()
		f.eng.Run()
		if f.costErr != nil {
			t.Fatal(f.costErr)
		}
		return m1.Mallocs - m0.Mallocs
	}
	window(nil) // measure every cost entry the window launches
	off, on := window(nil), window(&ObsConfig{Timelines: true})
	perTick := (float64(on) - float64(off)) / 2000
	t.Logf("20-40 s: %d allocations with timelines, %d without: %.3f per tick", on, off, perTick)
	if perTick > timelineTickAllocs {
		t.Errorf("timelines add %.3f allocations per tick, want <= %v", perTick, timelineTickAllocs)
	}
}

// TestObsChaosTraceDeterministic re-runs the chaos scenario (crashes,
// pod outage, link degradation, recovery machinery) with tracing on and
// requires byte-identical Chrome exports and timeline CSVs — the
// property the CI traced-determinism leg diffs across worker counts.
func TestObsChaosTraceDeterministic(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	export := func() (string, string) {
		cfg := chaosConfig(1, chaosFaults(),
			&RecoveryConfig{WarmSpares: 1, EmergencySpawn: true, Evacuate: true})
		cfg.Obs = obsOn()
		rep, err := Run(cfg, db)
		if err != nil {
			t.Fatal(err)
		}
		var tr, tl bytes.Buffer
		if err := obs.WriteChromeAll(&tr, []*obs.Tracer{rep.Trace}); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteCSVAll(&tl, []*obs.TimelineSet{rep.Timelines}); err != nil {
			t.Fatal(err)
		}
		return tr.String(), tl.String()
	}
	tr1, tl1 := export()
	tr2, tl2 := export()
	if tr1 != tr2 {
		t.Error("chaos trace export is not deterministic")
	}
	if tl1 != tl2 {
		t.Error("chaos timeline export is not deterministic")
	}
	if len(tr1) == 0 || len(tl1) <= len(obs.CSVHeader) {
		t.Fatal("empty exports")
	}
}

// TestObsTimelinesReproduceReport cross-checks the sampled series
// against the run's aggregates: the final point of the cumulative
// fault-window attainment series must equal the report's
// FaultAttainment exactly (same counters, same division), the overall
// attainment series must end at SLOAttainment, and the replica-count
// series must have at least two points and end at the report's Replicas.
func TestObsTimelinesReproduceReport(t *testing.T) {
	cfg := chaosConfig(1, chaosFaults(), nil)
	cfg.Obs = obsOn()
	rep, err := Run(cfg, NewCostDB(arch.TPUv4Like()))
	if err != nil {
		t.Fatal(err)
	}
	ten := rep.Tenants[0]
	fw := rep.Timelines.Get(ten.Name + "/fw_attain")
	if fw == nil {
		t.Fatal("no fault-window attainment series")
	}
	if got := fw.Last(); got != ten.FaultAttainment {
		t.Errorf("fw_attain ends at %v, report FaultAttainment %v", got, ten.FaultAttainment)
	}
	attain := rep.Timelines.Get(ten.Name + "/attain")
	if attain == nil || attain.Last() != ten.SLOAttainment {
		t.Errorf("attain series ends at %v, report SLOAttainment %v", attain.Last(), ten.SLOAttainment)
	}
	repl := rep.Timelines.Get(ten.Name + "/replicas")
	if repl == nil {
		t.Fatal("replica timeline not exported")
	}
	if len(repl.Times) < 2 || repl.Last() != float64(ten.Replicas) {
		t.Errorf("replica timeline has %d points ending at %v, report Replicas %d",
			len(repl.Times), repl.Last(), ten.Replicas)
	}
	if win := rep.Timelines.Get(ten.Name + "/attain_win"); win == nil {
		t.Error("windowed attainment series not derived")
	}
	// The trace must carry the fault instants the scenario injected.
	var buf bytes.Buffer
	if err := obs.WriteChromeAll(&buf, []*obs.Tracer{rep.Trace}); err != nil {
		t.Fatal(err)
	}
	var doc struct{ TraceEvents []struct{ Name string } }
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var faults, crashes int
	for _, e := range doc.TraceEvents {
		switch e.Name {
		case "fault":
			faults++
		case "crash":
			crashes++
		}
	}
	if faults == 0 || crashes == 0 {
		t.Errorf("trace has %d fault / %d crash instants, want both > 0", faults, crashes)
	}
}

// TestObsConfigSamplePeriod: a sampling period that is not finite or
// shorter than one core cycle would re-arm the timeline sampler at the
// same sim instant forever, so Run must reject it up front.
func TestObsConfigSamplePeriod(t *testing.T) {
	freq := fastConfig(1).Core.FrequencyHz
	for _, c := range []struct {
		name string
		ms   float64
		ok   bool
	}{
		{"default", 0, true},
		{"10ms", 10, true},
		{"two-cycles", 2e3 / freq, true},
		{"half-cycle", 0.5e3 / freq, false},
		{"1e-12ms", 1e-12, false},
		{"negative", -1, false},
		{"NaN", math.NaN(), false},
		{"+Inf", math.Inf(1), false},
		{"-Inf", math.Inf(-1), false},
	} {
		cfg := fastConfig(1)
		cfg.Obs = &ObsConfig{Timelines: true, SampleEveryMs: c.ms}
		if c.ok {
			cfg.defaults()
			if err := cfg.validate(); err != nil {
				t.Errorf("%s: valid period rejected: %v", c.name, err)
			}
			continue
		}
		if _, err := Run(cfg, nil); err == nil {
			t.Errorf("%s: period %v ms accepted", c.name, c.ms)
		}
	}
}
