// Command neu10-serve runs the online serving subsystem: open-loop
// request traffic pushed through an autoscaled fleet of tenant vNPUs
// under latency SLOs (internal/serve), reported as p50/p95/p99 latency,
// SLO attainment, goodput and fleet utilization.
//
//	neu10-serve -scenario steady -seed 1
//	neu10-serve -scenario flash-crowd          # autoscale vs fixed fleet
//	neu10-serve -scenario priority             # preemptive sharing vs FIFO
//	neu10-serve -scenario llm                  # continuous vs static batching
//	neu10-serve -scenario disagg               # disaggregated prefill/decode vs colocated
//	neu10-serve -scenario chaos                # chip crashes, pod outage, link degradation
//	neu10-serve -scenario paged                # paged KV + prefix cache vs full reservation
//	neu10-serve -scenario attrib               # exact latency attribution, three backends
//	neu10-serve -scenario mix-shift -json
//	neu10-serve -scenario chaos -trace trace.json -timelines tl.csv
//	neu10-serve -scenario chaos -gantt 8       # per-request lifecycle summary
//	neu10-serve -scenario llm -attrib -attrib-csv ledger.csv
//	neu10-serve -list
//
// Scenarios are the canned serve.Config setups in internal/experiments;
// output is deterministic for a given -seed at any -workers count.
//
// Observability (docs/OBSERVABILITY.md): -trace writes every scenario
// leg's request-lifecycle trace as one Chrome trace-event JSON file —
// open it at https://ui.perfetto.dev. -timelines writes the sampled
// time series (queue depth, KV occupancy, pool sizes, link utilization,
// attainment) as CSV, or as JSON when the path ends in .json. -gantt N
// prints a per-request phase summary for the first N requests per
// tenant. -attrib records the exact latency-attribution ledger — every
// request's lifetime split into exclusive segments summing cycle-exactly
// to its end-to-end latency, every replica-cycle attributed to a fleet
// bucket — adding blame tables to the output; -attrib-csv exports the
// raw ledger. Any of these switches observability on; the simulation
// itself — every pre-existing table and JSON field — is byte-identical
// with it on or off.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"neu10/internal/experiments"
	"neu10/internal/obs"
	"neu10/internal/serve"
)

// scenarios maps CLI names to experiment ids.
var scenarios = map[string]string{
	"steady":      "serve-steady",
	"flash-crowd": "serve-flash",
	"mix-shift":   "serve-mix",
	"priority":    "serve-priority",
	"llm":         "serve-llm",
	"disagg":      "serve-disagg",
	"chaos":       "serve-chaos",
	"consolidate": "serve-consolidate",
	"paged":       "serve-paged",
	"attrib":      "serve-attrib",
}

// scenarioNames lists the CLI scenario names in sorted order.
func scenarioNames() string {
	names := make([]string, 0, len(scenarios))
	for name := range scenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "neu10-serve:", err)
		os.Exit(1)
	}
}

// run is the whole command. Returning its errors, rather than exiting
// where they occur, lets the deferred profile writers finish first, so
// a failed run still leaves complete -cpuprofile and -memprofile files.
func run(args []string) (err error) {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		scenario   = fs.String("scenario", "steady", "scenario: "+scenarioNames())
		seed       = fs.Uint64("seed", 1, "seed for arrivals, routing and therefore the whole report")
		workers    = fs.Int("workers", 0, "worker pool for scenario-internal comparisons (0 = GOMAXPROCS)")
		jsonOut    = fs.Bool("json", false, "emit the structured report(s) as JSON instead of a table")
		list       = fs.Bool("list", false, "list scenarios and exit")
		traceOut   = fs.String("trace", "", "write request-lifecycle traces as Chrome trace-event JSON (Perfetto) to this file")
		ganttN     = fs.Int("gantt", 0, "print a per-request lifecycle summary for the first N requests per tenant")
		tlOut      = fs.String("timelines", "", "write sampled time series to this file (CSV, or JSON when the path ends in .json)")
		sampleMs   = fs.Float64("sample-ms", 0, "timeline sampling period in sim milliseconds (0 = default 10)")
		attrib     = fs.Bool("attrib", false, "record exact latency attribution and the fleet cycle ledger (per-tenant blame tables in the output)")
		attribCSV  = fs.String("attrib-csv", "", "write per-request segment and per-replica bucket attribution as CSV to this file (implies -attrib)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Println("steady        three mixed tenants at moderate Poisson load, autoscaler on")
		fmt.Println("flash-crowd   one tenant hit by a 5x burst; autoscaled vs fixed fleet, same trace")
		fmt.Println("mix-shift     two diurnal tenants in antiphase; capacity migrates between them")
		fmt.Println("priority      interactive+batch tenants on shared slots; preemptive vs FIFO, same trace")
		fmt.Println("llm           KV-cache-aware LLM serving; continuous vs static batching, same trace")
		fmt.Println("disagg        disaggregated prefill/decode over a modeled interconnect vs colocated,")
		fmt.Println("              same trace, swept over link bandwidth")
		fmt.Println("chaos         mid-trace chip crashes, a pod outage and link degradation on a")
		fmt.Println("              disaggregated fleet; no-fault vs fault vs fault+recovery, same trace")
		fmt.Println("consolidate   LLM + vision + recsys tenants on one shared cluster vs per-tenant")
		fmt.Println("              silos; min-chips search at equal SLO attainment")
		fmt.Println("paged         multi-turn session traffic on a tight KV partition; full-reservation")
		fmt.Println("              vs paged KV with prefix caching, evict-recompute vs evict-swap, same trace")
		fmt.Println("attrib        exact latency attribution on one session trace served three ways")
		fmt.Println("              (reserve vs paged vs disagg); blame tables and the fleet cycle ledger")
		return nil
	}

	id, ok := scenarios[strings.TrimSpace(*scenario)]
	if !ok {
		id = strings.TrimSpace(*scenario) // allow raw experiment ids too
		if !strings.HasPrefix(id, "serve-") {
			return fmt.Errorf("unknown scenario %q (want one of %s)", *scenario, scenarioNames())
		}
	}

	if *cpuprofile != "" {
		// ferr, not err: the deferred close must see run's own result.
		f, ferr := os.Create(*cpuprofile)
		if ferr != nil {
			return ferr
		}
		if ferr := pprof.StartCPUProfile(f); ferr != nil {
			f.Close()
			return ferr
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	if *memprofile != "" {
		defer func() {
			if werr := writeHeapProfile(*memprofile); err == nil {
				err = werr
			}
		}()
	}

	opts := experiments.DefaultOptions()
	opts.Workers = *workers
	opts.ServeSeed = *seed
	if *traceOut != "" || *ganttN > 0 || *tlOut != "" || *attrib || *attribCSV != "" {
		opts.ServeObs = &serve.ObsConfig{
			Trace:         *traceOut != "" || *ganttN > 0,
			Timelines:     *tlOut != "",
			SampleEveryMs: *sampleMs,
			Attrib:        *attrib || *attribCSV != "",
		}
	}
	runner, err := experiments.NewRunner(opts)
	if err != nil {
		return err
	}
	res, err := runner.Run(id)
	if err != nil {
		return err
	}

	sr, isServe := res.(*experiments.ServeResult)
	if (*jsonOut || *traceOut != "" || *ganttN > 0 || *tlOut != "" || *attribCSV != "") && !isServe {
		return fmt.Errorf("%s is not a serving scenario", id)
	}

	if *jsonOut {
		data, err := json.MarshalIndent(sr.Reports, "", "  ")
		if err != nil {
			return err
		}
		os.Stdout.Write(append(data, '\n'))
	} else {
		fmt.Print(res.Table())
	}

	if *traceOut != "" {
		err := writeLegs(*traceOut, sr.Reports, func(r *serve.Report) *obs.Tracer { return r.Trace },
			obs.WriteChromeAll, "no traces collected (scenario ran with tracing off)")
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "neu10-serve: trace written to %s (open at https://ui.perfetto.dev)\n", *traceOut)
	}
	if *ganttN > 0 {
		for _, rep := range sr.Reports {
			if rep.Trace != nil {
				fmt.Print(rep.Trace.Gantt(*ganttN))
			}
		}
	}
	if *tlOut != "" {
		write := obs.WriteCSVAll
		if strings.HasSuffix(*tlOut, ".json") {
			write = writeTimelinesJSON
		}
		err := writeLegs(*tlOut, sr.Reports, func(r *serve.Report) *obs.TimelineSet { return r.Timelines },
			write, "no timelines collected (scenario ran with sampling off)")
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "neu10-serve: timelines written to %s\n", *tlOut)
	}
	if *attribCSV != "" {
		err := writeLegs(*attribCSV, sr.Reports, func(r *serve.Report) *obs.Ledger { return r.Ledger },
			obs.WriteLedgerCSVAll, "no attribution collected (scenario ran with the ledger off)")
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "neu10-serve: attribution ledger written to %s\n", *attribCSV)
	}
	return nil
}

// writeHeapProfile writes a heap profile, taken after a GC, to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeLegs writes what get returns for every scenario leg, skipping
// legs without it, to a new file at path through write: the leg
// collectors merge into one file (Chrome traces become distinct
// Perfetto process groups via their scenario labels; CSVs share one
// header). No leg with a collector at all is the error none.
func writeLegs[T any](path string, reports []*serve.Report, get func(*serve.Report) *T,
	write func(io.Writer, []*T) error, none string) error {
	var legs []*T
	for _, rep := range reports {
		if x := get(rep); x != nil {
			legs = append(legs, x)
		}
	}
	if len(legs) == 0 {
		return errors.New(none)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, legs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTimelinesJSON writes the legs' timeline sets as one indented
// JSON array.
func writeTimelinesJSON(w io.Writer, sets []*obs.TimelineSet) error {
	data, err := json.MarshalIndent(sets, "", "  ")
	if err == nil {
		_, err = w.Write(append(data, '\n'))
	}
	return err
}
