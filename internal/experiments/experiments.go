// Package experiments regenerates every table and figure of the paper's
// evaluation (§II characterization and §V results) from the simulator.
// Each experiment is a pure function returning a typed result with a
// Table() renderer; cmd/neu10-bench and the repository benchmarks are
// thin wrappers around this package. Runner.Run's switch is the
// experiment index (neu10-bench -list prints it).
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
	// Name is the experiment id, e.g. "fig19".
	Name() string
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

// IDs returns all experiment identifiers: the paper's figures/tables in
// paper order, then the extension studies (ablations, SLO).
func IDs() []string {
	return []string{
		"fig2", "fig4", "fig5", "fig7", "fig12", "fig16",
		"fig19", "fig20", "fig21", "fig22", "fig23", "table3",
		"fig24", "fig25", "fig26", "fig27",
		"ablation-harvest", "ablation-preempt", "slo", "cluster",
		"serve-steady", "serve-flash", "serve-mix", "serve-priority", "serve-llm",
		"serve-disagg", "serve-chaos", "serve-consolidate",
		"serve-paged", "serve-attrib",
	}
}

// Run executes one experiment by id.
func (r *Runner) Run(id string) (Result, error) {
	switch id {
	case "fig2":
		return r.Fig2Demand()
	case "fig4":
		return r.Fig4Intensity()
	case "fig5":
		return r.Fig5Utilization()
	case "fig7":
		return r.Fig7HBM()
	case "fig12":
		return r.Fig12Allocator()
	case "fig16":
		return r.Fig16NeuISAOverhead()
	case "fig19", "fig20", "fig21", "fig22", "table3":
		pr, err := r.PairStudy()
		if err != nil {
			return nil, err
		}
		pr.id = id
		return pr, nil
	case "fig23":
		return r.Fig23Breakdown()
	case "fig24":
		return r.Fig24Timeline()
	case "fig25":
		return r.Fig25Scaling()
	case "fig26":
		return r.Fig26Bandwidth()
	case "fig27":
		return r.Fig27LLM()
	case "ablation-harvest":
		return r.AblationHarvest()
	case "ablation-preempt":
		return r.AblationPreempt()
	case "slo":
		return r.SLOStudy()
	case "cluster":
		return r.ClusterStudy()
	case "serve-steady":
		return r.ServeSteady()
	case "serve-flash":
		return r.ServeFlashCrowd()
	case "serve-mix":
		return r.ServeMixShift()
	case "serve-priority":
		return r.ServePriority()
	case "serve-llm":
		return r.ServeLLM()
	case "serve-disagg":
		return r.ServeDisagg()
	case "serve-chaos":
		return r.ServeChaos()
	case "serve-consolidate":
		return r.ServeConsolidate()
	case "serve-paged":
		return r.ServePaged()
	case "serve-attrib":
		return r.ServeAttrib()
	default:
		return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
	}
}

// RunMany executes several experiments, fanning them across the worker
// pool on top of each experiment's own internal parallelism. Results
// are returned in the order of ids; the figures share pair runs exactly
// as they do sequentially (runPair single-flights them).
func (r *Runner) RunMany(ids []string) ([]Result, error) {
	return parMapPairs(r.workers(), ids, func(_ int, id string) (Result, error) {
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
