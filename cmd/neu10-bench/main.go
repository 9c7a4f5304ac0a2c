// Command neu10-bench regenerates the paper's evaluation tables and
// figures (-list prints the experiment index):
//
//	neu10-bench -exp all
//	neu10-bench -exp fig19 -requests 16
//	neu10-bench -list
//	neu10-bench -exp all -json        # also write a BENCH_<n>.json perf snapshot
//	neu10-bench -exp all -compare BENCH_3.json   # CI regression gate
//
// Experiments fan their scenario simulations across a worker pool
// (-workers, default GOMAXPROCS); tables are byte-identical to a
// sequential run for the same seed.
//
// With -compare, the fresh per-figure timings are checked against a
// committed baseline snapshot: the run fails (exit 1) when any figure
// both snapshots name slowed down by more than -tolerance× (default
// 2.5×, deliberately generous — CI runners are noisy; the gate exists
// to catch order-of-magnitude regressions, not jitter). Figures absent
// from the baseline pass unchecked, and sub-5 ms baselines are floored
// before comparing, so microsecond figures cannot trip the gate on
// scheduler noise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"neu10/internal/experiments"
)

// figureBench is one figure's perf measurement in the JSON snapshot:
// whole-regeneration totals (one "op" = regenerating the figure once),
// not Go-benchmark per-iteration numbers.
type figureBench struct {
	ID          string `json:"id"`
	TotalNs     int64  `json:"total_ns"`
	TotalAllocs uint64 `json:"total_allocs"`
	TotalBytes  uint64 `json:"total_bytes"`
}

// benchSnapshot is the schema of BENCH_<n>.json.
type benchSnapshot struct {
	Timestamp  string        `json:"timestamp"`
	GoOS       string        `json:"goos"`
	GoArch     string        `json:"goarch"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Workers    int           `json:"workers"`
	Requests   int           `json:"requests"`
	TotalNs    int64         `json:"total_ns"`
	Figures    []figureBench `json:"figures"`
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (fig2|fig4|...|fig27|table3) or 'all'")
		requests = flag.Int("requests", 8, "requests per tenant for steady-state runs")
		workers  = flag.Int("workers", 0, "worker pool size for parallel sweeps (0 = GOMAXPROCS, 1 = sequential)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		jsonOut  = flag.Bool("json", false, "write a BENCH_<n>.json perf snapshot (total ns/allocs/bytes per figure regeneration)")
		jsonDir  = flag.String("json-dir", ".", "directory for the BENCH_<n>.json snapshot")
		compare  = flag.String("compare", "", "baseline BENCH_*.json to compare against; exit 1 on any >tolerance slowdown")
		tol      = flag.Float64("tolerance", 2.5, "slowdown factor tolerated by -compare before failing")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	opts := experiments.DefaultOptions()
	opts.Requests = *requests
	opts.Workers = *workers
	runner, err := experiments.NewRunner(opts)
	if err != nil {
		fatal(err)
	}

	ids := experiments.IDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}

	effectiveWorkers := *workers
	if effectiveWorkers <= 0 {
		effectiveWorkers = runtime.GOMAXPROCS(0)
	}
	snap := benchSnapshot{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    effectiveWorkers,
		Requests:   *requests,
	}
	totalStart := time.Now()
	for _, id := range ids {
		id = strings.TrimSpace(id)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		res, err := runner.Run(id)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		fmt.Printf("%s\n(elapsed %s)\n\n", res.Table(), elapsed.Round(time.Millisecond))
		snap.Figures = append(snap.Figures, figureBench{
			ID:          id,
			TotalNs:     elapsed.Nanoseconds(),
			TotalAllocs: m1.Mallocs - m0.Mallocs,
			TotalBytes:  m1.TotalAlloc - m0.TotalAlloc,
		})
	}
	snap.TotalNs = time.Since(totalStart).Nanoseconds()

	if *jsonOut {
		path, err := writeSnapshot(*jsonDir, snap)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("perf snapshot written to %s\n", path)
	}

	if *compare != "" {
		if err := compareSnapshots(*compare, snap, *tol); err != nil {
			fatal(err)
		}
	}
}

// compareSnapshots is the bench-regression gate: every figure present
// in both the baseline file and the fresh run must not have slowed by
// more than tol×. Baselines under 5 ms are floored to 5 ms first —
// microsecond figures measure scheduler noise, not the simulator.
func compareSnapshots(baselinePath string, fresh benchSnapshot, tol float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base benchSnapshot
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}
	baseNs := make(map[string]int64, len(base.Figures))
	for _, f := range base.Figures {
		baseNs[f.ID] = f.TotalNs
	}
	const floorNs = int64(5e6)
	var regressions []string
	fmt.Printf("bench-regression gate vs %s (tolerance %.1fx):\n", baselinePath, tol)
	// A figure that exists in the baseline but not in this run is a
	// gate bypass (deleting the slow benchmark must not pass), so it
	// fails too. Compare subsets without -compare.
	freshIDs := make(map[string]bool, len(fresh.Figures))
	for _, f := range fresh.Figures {
		freshIDs[f.ID] = true
	}
	for _, f := range base.Figures {
		if !freshIDs[f.ID] {
			regressions = append(regressions, fmt.Sprintf("%s: in baseline but missing from this run", f.ID))
			fmt.Printf("  %-18s MISSING (present in baseline)\n", f.ID)
		}
	}
	for _, f := range fresh.Figures {
		bn, ok := baseNs[f.ID]
		if !ok {
			fmt.Printf("  %-18s %8.1f ms  (new figure, unchecked)\n", f.ID, float64(f.TotalNs)/1e6)
			continue
		}
		if bn < floorNs {
			bn = floorNs
		}
		ratio := float64(f.TotalNs) / float64(bn)
		verdict := "ok"
		if ratio > tol {
			verdict = "REGRESSED"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.1f ms vs baseline %.1f ms (%.2fx)", f.ID, float64(f.TotalNs)/1e6, float64(bn)/1e6, ratio))
		}
		fmt.Printf("  %-18s %8.1f ms  vs %8.1f ms  %.2fx  %s\n",
			f.ID, float64(f.TotalNs)/1e6, float64(bn)/1e6, ratio, verdict)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("bench-regression gate failed (%d finding(s), tolerance %.1fx):\n  %s",
			len(regressions), tol, strings.Join(regressions, "\n  "))
	}
	fmt.Println("bench-regression gate: all figures within tolerance")
	return nil
}

// writeSnapshot writes the snapshot to the first free BENCH_<n>.json in
// dir, so successive runs accumulate a bench trajectory.
func writeSnapshot(dir string, snap benchSnapshot) (string, error) {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return "", err
	}
	for n := 1; ; n++ {
		path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n))
		if _, err := os.Stat(path); err == nil {
			continue
		}
		return path, os.WriteFile(path, append(data, '\n'), 0o644)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "neu10-bench:", err)
	os.Exit(1)
}
