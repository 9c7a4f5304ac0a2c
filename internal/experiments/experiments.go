// Package experiments regenerates every table and figure of the paper's
// evaluation (§II characterization and §V results) from the simulator.
// Each experiment is a pure function returning a typed result with a
// Table() renderer; cmd/neu10-bench and the repository benchmarks are
// thin wrappers around this package. The index table below lists every
// experiment id with its runner (neu10-bench -list prints the ids).
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"neu10/internal/arch"
	"neu10/internal/obs"
	"neu10/internal/sched"
	"neu10/internal/serve"
	"neu10/internal/workload"
)

// Options configures a run of the experiment suite.
type Options struct {
	Core arch.CoreConfig
	// Requests per tenant for steady-state runs (paper methodology).
	Requests int
	// Workers sizes the worker pool the sweeps fan out over:
	// 0 = GOMAXPROCS, 1 = fully sequential. Results are byte-identical
	// either way (see parallel.go).
	Workers int
	// ServeSeed drives the online-serving scenarios (serve-*): arrivals,
	// routing coin flips and therefore every number in their reports.
	ServeSeed uint64
	// ServeObs switches observability (lifecycle tracing, sampled
	// timelines — internal/obs) on for every serve-* scenario; nil runs
	// them with zero overhead and unchanged output. Reports are
	// byte-identical for any worker count either way.
	ServeObs *serve.ObsConfig
}

// DefaultOptions mirrors the paper's Table II setup.
func DefaultOptions() Options {
	return Options{Core: arch.TPUv4Like(), Requests: 8, ServeSeed: 1}
}

// sampleEvery is the timeline resolution, in cycles, of the runs that
// plot timelines.
const sampleEvery = 100_000

// Policies lists the four evaluated designs in paper order.
func Policies() []sched.Mode {
	return []sched.Mode{sched.PMT, sched.V10, sched.NeuNH, sched.Neu10}
}

// Result is the interface every experiment result implements.
type Result interface {
	// Table renders the result as the paper's rows/series in plain text.
	Table() string
}

// Runner executes experiments by id. It is safe for concurrent use
// (RunMany regenerates several figures at once): the memo caches below
// are mutex-guarded and everything else is per-run state.
type Runner struct {
	opts Options
	comp *workload.Compiled

	// pairRuns holds the shared pair runs (see runPair); pairMu guards
	// the map's shape only. compCache holds per-core-config compilation
	// caches for the sweeps.
	pairMu    sync.Mutex
	pairRuns  map[pairKey]*pairRun
	compMu    sync.Mutex
	compCache map[string]*workload.Compiled

	// serveDB memoizes measured invocation costs for the online-serving
	// scenarios (serve.go); lazily built, shared across the worker pool.
	serveMu sync.Mutex
	serveDB *serve.CostDB
}

// workers returns the configured worker-pool size for parMap.
func (r *Runner) workers() int { return r.opts.Workers }

// NewRunner builds a runner.
func NewRunner(opts Options) (*Runner, error) {
	if opts.Requests < 1 {
		return nil, fmt.Errorf("experiments: requests %d", opts.Requests)
	}
	comp, err := workload.NewCompiled(opts.Core)
	if err != nil {
		return nil, err
	}
	return &Runner{opts: opts, comp: comp, pairRuns: map[pairKey]*pairRun{}}, nil
}

// experiment is one entry of the index: an id and the runner behind it.
type experiment struct {
	id  string
	run func(*Runner) (Result, error)
}

// entry adapts a typed experiment method to the index.
func entry[R Result](id string, run func(*Runner) (R, error)) experiment {
	return experiment{id, func(r *Runner) (Result, error) { return run(r) }}
}

// pairEntry is the index entry of one of the five ids PairStudy renders.
func pairEntry(id string) experiment {
	return experiment{id, func(r *Runner) (Result, error) {
		pr, err := r.PairStudy()
		if err != nil {
			return nil, err
		}
		pr.id = id
		return pr, nil
	}}
}

// index lists every experiment: the paper's figures and tables in paper
// order, then the extension studies (ablations, SLO, cluster) and the
// online-serving scenarios.
var index = []experiment{
	entry("fig2", (*Runner).Fig2Demand),
	entry("fig4", (*Runner).Fig4Intensity),
	entry("fig5", (*Runner).Fig5Utilization),
	entry("fig7", (*Runner).Fig7HBM),
	entry("fig12", (*Runner).Fig12Allocator),
	entry("fig16", (*Runner).Fig16NeuISAOverhead),
	pairEntry("fig19"),
	pairEntry("fig20"),
	pairEntry("fig21"),
	pairEntry("fig22"),
	entry("fig23", (*Runner).Fig23Breakdown),
	pairEntry("table3"),
	entry("fig24", (*Runner).Fig24Timeline),
	entry("fig25", (*Runner).Fig25Scaling),
	entry("fig26", (*Runner).Fig26Bandwidth),
	entry("fig27", (*Runner).Fig27LLM),
	entry("ablation-harvest", (*Runner).AblationHarvest),
	entry("ablation-preempt", (*Runner).AblationPreempt),
	entry("slo", (*Runner).SLOStudy),
	entry("cluster", (*Runner).ClusterStudy),
	entry("serve-steady", (*Runner).ServeSteady),
	entry("serve-flash", (*Runner).ServeFlashCrowd),
	entry("serve-mix", (*Runner).ServeMixShift),
	entry("serve-priority", (*Runner).ServePriority),
	entry("serve-llm", (*Runner).ServeLLM),
	entry("serve-disagg", (*Runner).ServeDisagg),
	entry("serve-chaos", (*Runner).ServeChaos),
	entry("serve-consolidate", (*Runner).ServeConsolidate),
	entry("serve-paged", (*Runner).ServePaged),
	entry("serve-attrib", (*Runner).ServeAttrib),
}

// IDs returns all experiment identifiers in index order.
func IDs() []string {
	ids := make([]string, len(index))
	for i, e := range index {
		ids[i] = e.id
	}
	return ids
}

// Run executes one experiment by id.
func (r *Runner) Run(id string) (Result, error) {
	for _, e := range index {
		if e.id == id {
			return e.run(r)
		}
	}
	return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
}

// RunMany executes several experiments, fanning them across the worker
// pool on top of each experiment's own internal parallelism. Results
// are returned in the order of ids; the figures share pair runs exactly
// as they do sequentially (runPair single-flights them).
func (r *Runner) RunMany(ids []string) ([]Result, error) {
	return parMap(r.workers(), ids, func(id string) (Result, error) {
		res, err := r.Run(strings.TrimSpace(id))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", strings.TrimSpace(id), err)
		}
		return res, nil
	})
}

// pairKey names one shared pair run.
type pairKey struct {
	pair   workload.Pair
	policy sched.Mode
}

// pairRun is one single-flight slot of Runner.pairRuns.
type pairRun struct {
	once sync.Once
	res  *sched.Result
	err  error
}

// runPair runs one pair under one policy with evenly split vNPUs. An
// unsampled run on the runner's own core is simulated once per runner
// and every caller gets that *sched.Result, so none may modify it:
// PairStudy, Fig. 23, Figs. 25-27 and both ablations all ask for such
// runs. Runs on other cores are not kept; each is asked for once, and
// keeping them would raise the memory a figure pass peaks at.
func (r *Runner) runPair(p workload.Pair, policy sched.Mode, core arch.CoreConfig, sample bool) (*sched.Result, error) {
	if core != r.opts.Core || sample {
		return r.simulatePair(p, policy, core, sample)
	}
	key := pairKey{p, policy}
	r.pairMu.Lock()
	e, ok := r.pairRuns[key]
	if !ok {
		e = &pairRun{}
		r.pairRuns[key] = e
	}
	r.pairMu.Unlock()
	e.once.Do(func() { e.res, e.err = r.simulatePair(p, policy, core, false) })
	return e.res, e.err
}

// simulatePair is runPair's simulation. Workloads are compiled for the
// exact core configuration: the number of µTOps per operator and the
// V10 complex width both depend on it.
func (r *Runner) simulatePair(p workload.Pair, policy sched.Mode, core arch.CoreConfig, sample bool) (*sched.Result, error) {
	comp, err := r.compiledFor(core)
	if err != nil {
		return nil, err
	}
	mes, ves := core.MEs/2, core.VEs/2
	if mes < 1 {
		mes = 1
	}
	if ves < 1 {
		ves = 1
	}
	specs, err := comp.Tenants(p, policy, mes, ves)
	if err != nil {
		return nil, err
	}
	cfg := sched.Config{Core: core, Policy: policy, Requests: r.opts.Requests}
	if sample {
		cfg.SampleEvery = sampleEvery
	}
	return sched.Run(cfg, specs)
}

// compiledFor returns a compilation cache for an arbitrary core config,
// reusing the default one when it matches.
func (r *Runner) compiledFor(core arch.CoreConfig) (*workload.Compiled, error) {
	if core == r.opts.Core {
		return r.comp, nil
	}
	key := fmt.Sprintf("%d/%d/%.0f", core.MEs, core.VEs, core.HBMBwBytes)
	r.compMu.Lock()
	defer r.compMu.Unlock()
	if r.compCache == nil {
		r.compCache = map[string]*workload.Compiled{}
	}
	if c, ok := r.compCache[key]; ok {
		return c, nil
	}
	c, err := workload.NewCompiled(core)
	if err != nil {
		return nil, err
	}
	r.compCache[key] = c
	return c, nil
}

// ---- small text-table helper ----

type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	var sb strings.Builder
	obs.WriteTable(&sb, t.header, t.rows)
	return sb.String()
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
