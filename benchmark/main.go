// Command benchmark is the repository benchmark. It runs one workload of
// the neu10 simulator in its own process, times whole passes, checks
// that every pass reproduces the committed output, and prints every
// metric by name and unit. README.md describes the workloads and
// metrics. From the repository root:
//
//	bash benchmark/run.sh --workload paper --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --workload chaos-obs --seed 1 --trace 1 --cpuprofile cpu.out
//	bash benchmark/run.sh --workload llm-long --seed 3 --update
//	bash benchmark/run.sh --compare parent.json change.json
//
// --seconds is the budget of a plain run, set-up included: no pass starts
// that would end past it, once the minimum number of passes has run.
//
// The last line of standard output is the result: whether every check
// passed, the ops attempted and failed, and the end-to-end metrics (with
// --trace 1, the per-layer metrics). The line before it is the detailed
// report: every metric with its unit, bound, per-pass samples and
// quartiles, the output digest, and GOMAXPROCS, nproc and the Go version.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"neu10/internal/arch"
	"neu10/internal/experiments"
	"neu10/internal/serve"
)

// expectedJSON maps "<workload>/<seed>" to the digest of one pass's
// output at full size; -update rewrites the file.
//
//go:embed expected.json
var expectedJSON []byte

func main() {
	var (
		name       = flag.String("workload", "", "workload to run: paper, serve-cold, llm-long or chaos-obs")
		seed       = flag.Uint64("seed", 1, "input seed (the paper workload's inputs are fixed by the paper and ignore it)")
		seconds    = flag.Float64("seconds", 15, "host seconds a plain run may take, set-up included (at least 3 passes run)")
		trace      = flag.Int("trace", 0, "1 runs the traced variant: per-layer metrics and harness spans")
		traceOut   = flag.String("trace-out", "", "Chrome trace-event file for a traced run's spans (default .bench_build/trace-<workload>-<seed>.json)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		update     = flag.Bool("update", false, "record this run's output digest in expected.json instead of checking it")
		compareRes = flag.Bool("compare", false, "compare two files of benchmark output: -compare parent.json change.json")
	)
	flag.Parse()

	if *compareRes {
		if flag.NArg() != 2 {
			usage("-compare takes two files: parent.json change.json")
		}
		parent, err := readReports(flag.Arg(0))
		check(err)
		change, err := readReports(flag.Arg(1))
		check(err)
		compare(os.Stdout, parent, change)
		return
	}
	var def *workloadDef
	for _, d := range workloadDefs() {
		if d.name == *name {
			def = &d
		}
	}
	if def == nil {
		usage(fmt.Sprintf("unknown workload %q", *name))
	}
	if *trace != 0 && *trace != 1 {
		usage("-trace takes 0 or 1")
	}

	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, sz: fullSizes()}
	key := fmt.Sprintf("%s/%d", def.name, *seed)
	if !*update {
		digests := map[string]string{}
		check(json.Unmarshal(expectedJSON, &digests))
		cfg.want = digests[key]
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			check(f.Close())
		}()
	}

	rep, spans := run(*def, cfg)
	if spans != nil {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", def.name, *seed))
		}
		check(writeSpans(path, spans))
		fmt.Fprintf(os.Stderr, "benchmark: spans written to %s\n", path)
	}
	if *update {
		if !rep.Correct {
			fmt.Fprintln(os.Stderr, "benchmark: not updating expected.json: the run failed its checks")
		} else {
			check(updateDigest(key, rep.Digest))
		}
	}
	check(printReport(os.Stdout, rep))
}

type runConfig struct {
	seed    uint64
	seconds float64
	traced  bool
	sz      sizes
	want    string // committed digest; empty checks passes against each other only
}

// bench is one run's state, shared by the workload passes and probes.
type bench struct {
	sz     sizes
	seed   uint64
	core   arch.CoreConfig
	db     *serve.CostDB   // the warm CostDB of the serve workloads
	warmed map[string]bool // scenarios whose warm-up db holds
	sp     *spanLog        // nil outside the traced stage
	host   *hostProbe      // nil outside the timed stage

	layer   map[string]float64 // per-layer metrics
	modeled map[string]float64 // the simulated system's outputs
	obsAll  obsRun             // the last all-collectors chaos run

	ops, failed int
	errs        []string
}

const maxErrs = 20

func (b *bench) fail(format string, args ...any) { b.failOps(1, format, args...) }

func (b *bench) failOps(n int, format string, args ...any) {
	b.failed += n
	if len(b.errs) < maxErrs {
		b.errs = append(b.errs, fmt.Sprintf(format, args...))
	}
}

// report is the detailed record of one run.
type report struct {
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Traced      bool              `json:"traced"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Digest      string            `json:"digest"`
	DigestCheck string            `json:"digest_check"`
	Errors      []string          `json:"errors,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	NumCPU      int               `json:"nproc"`
	GoVersion   string            `json:"go_version"`
}

// run sets up the workload and runs timed passes until cfg.seconds would
// be exceeded. A traced run times a single pass, then runs one traced
// pass plus the layer probes.
func run(def workloadDef, cfg runConfig) (*report, *spanLog) {
	start := time.Now()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	b := &bench{
		sz: cfg.sz, seed: cfg.seed, core: experiments.DefaultOptions().Core,
		layer: map[string]float64{}, modeled: map[string]float64{},
	}
	b.host = newHostProbe()
	var setups []float64
	b.ops++ // the set-up, however many repetitions it takes
	for len(setups) < cfg.sz.setupReps || time.Since(start).Seconds() < cfg.sz.setupSec {
		// Each repetition and each pass starts from a collected heap
		// returned to the OS, as a fresh process would.
		debug.FreeOSMemory()
		b.host.tick()
		t := time.Now()
		err := def.setup(b)
		setups = append(setups, time.Since(t).Seconds())
		if err != nil {
			b.fail("set-up: %v", err)
			break
		}
	}
	if def.name == "serve-cold" && !cfg.traced {
		b.serveWarmCheck() // the traced stage runs it as a probe
	}

	passes := cfg.sz.minPasses
	if cfg.traced {
		passes = 1 // the baseline of trace_overhead_frac
	}
	var wall, allocMB, allocsM, rssMB []float64
	var digest string
	var longest time.Duration // the longest pass so far, with its tick
	for len(wall) < passes || !cfg.traced && time.Since(start)+longest <= budget {
		t0 := time.Now()
		debug.FreeOSMemory() // so the pass's resident-set high-water mark is its own
		b.host.tick()
		rssErr := resetPeakRSS()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ops, failed, kernel := b.ops, b.failed, b.host.spent
		t := time.Now()
		d := def.pass(b)
		wall = append(wall, time.Since(t).Seconds()-(b.host.spent-kernel))
		runtime.ReadMemStats(&m1)
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		allocsM = append(allocsM, float64(m1.Mallocs-m0.Mallocs)/1e6)
		rss, err := peakRSSMB()
		if err == nil && rssErr == nil {
			rssMB = append(rssMB, rss)
		}
		b.checkDigest(&digest, d, cfg.want, ops, failed)
		longest = max(longest, time.Since(t0))
	}
	scale := b.host.scale()
	b.host = nil

	rep := &report{
		Workload: def.name, Seed: cfg.seed, Traced: cfg.traced,
		Digest: digest, DigestCheck: "committed",
		Metrics:    map[string]metric{},
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
	}
	if cfg.want == "" {
		rep.DigestCheck = "self-consistency"
	}
	rep.Metrics["wall_s"] = newMetric(endToEnd["wall_s"], scaled(wall, scale))
	rep.Metrics["setup_s"] = newMetric(endToEnd["setup_s"], scaled(setups, scale))
	rep.Metrics["wall_host_s"] = newMetric(endToEnd["wall_host_s"], wall)
	rep.Metrics["setup_host_s"] = newMetric(endToEnd["setup_host_s"], setups)
	rep.Metrics["host_speed"] = newMetric(endToEnd["host_speed"], []float64{scale})
	rep.Metrics["alloc_mb"] = newMetric(endToEnd["alloc_mb"], allocMB)
	rep.Metrics["allocs_m"] = newMetric(endToEnd["allocs_m"], allocsM)
	if len(rssMB) == 0 {
		b.fail("peak RSS: /proc/self/clear_refs or VmHWM unavailable")
		rssMB = []float64{0}
	}
	rep.Metrics["peak_rss_mb"] = newMetric(endToEnd["peak_rss_mb"], rssMB)
	for name, v := range b.modeled {
		rep.Metrics[name] = newMetric(endToEnd[name], []float64{v})
	}

	var spans *spanLog
	if cfg.traced {
		b.layer = map[string]float64{}
		spans = newSpanLog()
		b.sp = spans
		debug.FreeOSMemory()
		ops, failed := b.ops, b.failed
		s := spans.begin("benchmark", "pass "+def.name)
		d := def.pass(b)
		traced := spans.end(s)
		b.checkDigest(&digest, d, cfg.want, ops, failed)
		b.layer["trace_overhead_frac"] = traced/median(wall) - 1
		s = spans.begin("benchmark", "layer probes")
		b.probeLayers(def.name)
		spans.end(s)
		for name, sp := range perLayer {
			rep.Metrics[name] = newMetric(sp, []float64{b.layer[name]})
		}
	}

	rep.Attempted, rep.Failed, rep.Errors = b.ops, b.failed, b.errs
	rep.Correct = b.failed == 0
	rep.Metrics["fail_frac"] = newMetric(endToEnd["fail_frac"], []float64{float64(b.failed) / float64(b.ops)})
	return rep, spans
}

// checkDigest fails every op of a pass whose digest differs from the
// committed one or, without one, from the run's first pass.
func (b *bench) checkDigest(first *string, got, want string, ops, failed int) {
	if *first == "" {
		*first = got
	}
	if want == "" {
		want = *first
	}
	if got != want {
		stillOK := (b.ops - ops) - (b.failed - failed)
		b.failOps(stillOK, "pass digest %.16s…, want %.16s…", got, want)
	}
}

func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// printReport prints the detailed report, then the result line.
func printReport(w io.Writer, rep *report) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(rep); err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	names := measuredE2E
	if rep.Traced {
		names = nil
		for _, n := range sortedNames(perLayer) {
			if n != "obs.ledger_violations" {
				names = append(names, n)
			}
		}
	}
	metrics := map[string]value{}
	for _, n := range names {
		m := rep.Metrics[n]
		metrics[n] = value{m.Value, m.Unit}
	}
	return enc.Encode(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
}

func writeSpans(path string, spans *spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := spans.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// updateDigest records digest under key in expected.json: the file in
// this package's source directory, which the next build embeds.
func updateDigest(key, digest string) error {
	_, src, _, ok := runtime.Caller(0)
	if !ok {
		return fmt.Errorf("locating the benchmark's source directory")
	}
	path := filepath.Join(filepath.Dir(src), "expected.json")
	digests := map[string]string{}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	if err := json.Unmarshal(data, &digests); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	digests[key] = digest
	out, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "benchmark:", msg)
	flag.Usage()
	os.Exit(2)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
