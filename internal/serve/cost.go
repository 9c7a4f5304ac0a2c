package serve

import (
	"fmt"
	"math/bits"
	"sync"

	"neu10/internal/arch"
	"neu10/internal/compiler"
	"neu10/internal/model"
	"neu10/internal/sched"
)

// CostDB resolves (model, batch, vNPU shape) → service cycles for one
// batched inference invocation. Costs are not a closed-form guess: each
// entry is measured by compiling the model at the padded batch size and
// replaying it solo through the §III-G fluid simulator on a core carved
// down to the vNPU's engine counts and its fair HBM-bandwidth share
// (§III-B: bandwidth is shared in proportion to EUs by default). The
// fluid model therefore prices in ME/VE pipelining, reduction-split
// overheads and memory-boundedness exactly as the figure experiments do.
//
// Batch sizes are padded up to the next power of two before costing —
// real serving kernels are compiled for bucketed shapes, and bucketing
// bounds the cache to O(log MaxBatch) entries per (model, shape).
//
// Entries are measured on first use: nothing is measured ahead of time,
// and the first launch that asks for a key pays for its measurement.
// Entries are single-flighted per key (the workload.Compiled pattern):
// the map lock is held only to claim a slot, measurement runs under the
// entry's sync.Once, so distinct keys measure concurrently and the
// parallel experiment runner shares one CostDB across its worker pool.
// Every entry is a pure function of its key, so population order — which
// run, worker or launch measured it first — cannot leak into results.
// A failed measurement is cached like a value; a serving run that hits
// one stops with that error. A serving run's launches read the database
// through the run's cost tables (costTable), once per launch shape.
type CostDB struct {
	core    arch.CoreConfig
	mu      sync.Mutex
	entries map[costKey]*costEntry

	// maxEntries bounds the cache (DefaultMaxCostEntries; tests lower
	// it). Long parameter sweeps — many models × shapes × vNPU splits —
	// would otherwise grow the map without limit. Growth is contained
	// twice over, and neither mechanism can change a result:
	//
	//   - Coarse-bucket fallback: shapes beyond the fine catalog
	//     (batch > 64, seq/ctx > 4096 after padding) bucket to powers
	//     of FOUR instead of two — a pure function of the QUERY, never
	//     of cache state, so which bucket a shape lands in is identical
	//     in every run and at every worker count.
	//   - Entry cap: once the map is full, new keys measure WITHOUT
	//     caching. The measurement is a pure function of the key — the
	//     exact value the cache would have held — so hitting the cap
	//     makes overflow queries slower, never different.
	maxEntries int

	// onMeasure, when non-nil, is invoked immediately before any
	// measurement — inside the entry's sync.Once for cached keys, per
	// call for capped uncached ones — a test hook that observes the
	// single-flight property and the cap's fallback behavior.
	onMeasure func(costKey)
}

// DefaultMaxCostEntries is the default cache bound: comfortably above
// any shipped scenario's working set (hundreds of entries), small
// enough that a runaway sweep cannot hold gigabytes of map.
const DefaultMaxCostEntries = 8192

// Phase distinguishes the invocation kinds a key can price. The zero
// value is a whole-model inference (the pre-LLM behavior); the LLM
// phases price one prefill or one decode iteration of the serving LLM
// (model.LLMPrefill / model.LLMDecode).
type Phase int

const (
	// PhaseFull is a whole-model batched inference invocation.
	PhaseFull Phase = iota
	// PhasePrefill is the prompt-processing phase of an LLM request:
	// seq = prompt tokens per sequence.
	PhasePrefill
	// PhaseDecode is one autoregressive decode iteration: seq = cached
	// context tokens attended over.
	PhaseDecode
)

func (p Phase) String() string {
	switch p {
	case PhaseFull:
		return "full"
	case PhasePrefill:
		return "prefill"
	case PhaseDecode:
		return "decode"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

type costKey struct {
	model  string
	phase  Phase
	batch  int // padded
	seq    int // padded prompt (prefill) / context (decode); 0 for full
	ctx    int // padded cached context BEHIND a prefill chunk; 0 otherwise
	nm, nv int
}

type costEntry struct {
	once   sync.Once
	cycles float64
	err    error
}

// NewCostDB builds a cost database for a physical core family.
func NewCostDB(core arch.CoreConfig) *CostDB {
	return &CostDB{core: core, entries: map[costKey]*costEntry{}, maxEntries: DefaultMaxCostEntries}
}

// Entries returns the current cached-entry count.
func (db *CostDB) Entries() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.entries)
}

// Core returns the physical core family the database prices against.
func (db *CostDB) Core() arch.CoreConfig { return db.core }

// PadBatch returns the power-of-two bucket a batch size is costed at.
func PadBatch(b int) int {
	p := 1
	for p < b {
		p <<= 1
	}
	return p
}

// The fine bucket catalogs. Shapes padding inside these bounds keep
// power-of-two buckets (the kernel catalog real serving compiles);
// anything beyond coarsens to powers of FOUR, halving the bucket count
// per dimension for outsized sweeps. Both rules are pure functions of
// the query, so bucketing never depends on cache state or timing.
const (
	fineBatchMax = 64
	fineSeqMax   = 4096
)

// padShape buckets one shape dimension against its fine catalog bound.
func padShape(n, fineMax int) int {
	if p := PadBatch(n); p <= fineMax {
		return p
	}
	return padPow4(n)
}

// ServiceCycles returns the cycles one invocation of `name` at the given
// batch size takes on a vNPU with nm MEs and nv VEs.
func (db *CostDB) ServiceCycles(name string, batch, nm, nv int) (float64, error) {
	if batch < 1 || nm < 1 || nv < 1 {
		return 0, fmt.Errorf("serve: bad cost query %s/%d on %dME+%dVE", name, batch, nm, nv)
	}
	key := costKey{model: name, batch: padShape(batch, fineBatchMax), nm: nm, nv: nv}
	return db.cycles(key)
}

// llmModel names the serving LLM in phase-cost keys. The phase graphs
// share the registry LLaMA's dimensions (see model/llm.go), so one
// name covers the figure sweeps, the serving costs and KV accounting.
const llmModel = "LLaMA"

// LLMCycles returns the cycles of one LLM phase invocation on a vNPU
// with nm MEs and nv VEs: a prefill of `seq` prompt tokens per
// sequence, or one decode iteration over `seq` cached context tokens.
// Batch and sequence both pad to power-of-two buckets (serving kernels
// compile for bucketed shapes), bounding the cache at
// O(log MaxBatch · log MaxTokens) entries per phase and shape.
func (db *CostDB) LLMCycles(phase Phase, batch, seq, nm, nv int) (float64, error) {
	if phase != PhasePrefill && phase != PhaseDecode {
		return 0, fmt.Errorf("serve: LLM cost query with phase %v", phase)
	}
	if batch < 1 || seq < 1 || nm < 1 || nv < 1 {
		return 0, fmt.Errorf("serve: bad LLM cost query %v/%d/%d on %dME+%dVE", phase, batch, seq, nm, nv)
	}
	key := costKey{model: llmModel, phase: phase,
		batch: padShape(batch, fineBatchMax), seq: padShape(seq, fineSeqMax), nm: nm, nv: nv}
	return db.cycles(key)
}

// LLMChunkCycles prices one chunked-prefill invocation: `chunk` new
// tokens per sequence attending over `ctxBefore` already-cached tokens
// (plus the chunk itself). ctxBefore = 0 degenerates to LLMCycles'
// whole-prompt prefill and shares its cache entries. All three shape
// dimensions pad to power-of-two buckets.
func (db *CostDB) LLMChunkCycles(batch, chunk, ctxBefore, nm, nv int) (float64, error) {
	if batch < 1 || chunk < 1 || ctxBefore < 0 || nm < 1 || nv < 1 {
		return 0, fmt.Errorf("serve: bad chunk cost query %d/%d+%d on %dME+%dVE", batch, chunk, ctxBefore, nm, nv)
	}
	if ctxBefore == 0 {
		return db.LLMCycles(PhasePrefill, batch, chunk, nm, nv)
	}
	key := costKey{model: llmModel, phase: PhasePrefill, batch: padShape(batch, fineBatchMax),
		seq: padShape(chunk, fineSeqMax), ctx: padShape(ctxBefore, fineSeqMax), nm: nm, nv: nv}
	return db.cycles(key)
}

// padPow4 returns the power-of-four bucket covering n (0 stays 0) —
// the coarse grid capped lookups fall back to: half the buckets per
// dimension, idempotent, and a pure function of n.
func padPow4(n int) int {
	if n <= 0 {
		return 0
	}
	p := 1
	for p < n {
		p <<= 2
	}
	return p
}

// cycles resolves one key through the single-flight cache, degrading
// gracefully at the entry cap: an overflow key measures without
// caching — the identical value the cache would have held, since
// measurement is a pure function of the key — so the cap bounds
// memory, never results.
func (db *CostDB) cycles(key costKey) (float64, error) {
	db.mu.Lock()
	e, ok := db.entries[key]
	if !ok {
		if len(db.entries) < db.maxEntries {
			e = &costEntry{}
			db.entries[key] = e
		} else {
			db.mu.Unlock()
			if db.onMeasure != nil {
				db.onMeasure(key)
			}
			return db.measure(key)
		}
	}
	db.mu.Unlock()
	e.once.Do(func() {
		if db.onMeasure != nil {
			db.onMeasure(key)
		}
		e.cycles, e.err = db.measure(key)
	})
	return e.cycles, e.err
}

// measure runs the solo fluid simulation behind one cache entry.
func (db *CostDB) measure(key costKey) (float64, error) {
	var g *compiler.Graph
	var err error
	switch key.phase {
	case PhasePrefill:
		if key.ctx > 0 {
			g = model.LLMPrefillChunk(key.batch, key.seq, key.ctx)
		} else {
			g = model.LLMPrefill(key.batch, key.seq)
		}
	case PhaseDecode:
		g = model.LLMDecode(key.batch, key.seq)
	default:
		g, err = model.Build(key.model, key.batch)
	}
	if err != nil {
		return 0, err
	}
	// The vNPU sees its own engines and its proportional bandwidth slice.
	frac := float64(key.nm+key.nv) / float64(db.core.MEs+db.core.VEs)
	if frac > 1 {
		frac = 1
	}
	sub := db.core.WithEUs(key.nm, key.nv).WithHBMBandwidth(db.core.HBMBwBytes * frac)
	comp, err := compiler.New(sub)
	if err != nil {
		return 0, err
	}
	cg, err := comp.Compile(g, compiler.ISANeu)
	if err != nil {
		return 0, err
	}
	res, err := sched.Run(
		sched.Config{Core: sub, Policy: sched.NeuNH, Requests: 1},
		[]sched.TenantSpec{{Name: key.model, Graph: cg, MEs: key.nm, VEs: key.nv}})
	if err != nil {
		return 0, fmt.Errorf("serve: costing %s/%d on %dME+%dVE: %w", key.model, key.batch, key.nm, key.nv, err)
	}
	return res.Tenants[0].MeanLatency, nil
}

// costTable is one run's record of the launch costs one vNPU split
// pays, so a launch finds its cycles by a slice index instead of the
// CostDB's string-keyed map, its mutex and its sync.Once. A cell is
// filled from the CostDB on its first use: the database still measures,
// single-flights, caps and shares every entry across runs, and a failed
// lookup is returned, never stored, so it still reaches costFailed. A
// table belongs to one run and is used by its goroutine alone.
type costTable struct {
	db     *CostDB
	nm, nv int
	// grids holds one grid per invocation kind: decodeCost, prefillCost,
	// and fullCost plus a tenant's index for a whole-model invocation of
	// that tenant's model.
	grids []costGrid
}

// Invocation kinds of a costTable grid.
const (
	decodeCost = iota
	prefillCost
	fullCost // + tenant index
)

// costTable returns the run's table for replicas of nm MEs and nv VEs,
// making it on first use.
func (f *fleet) costTable(nm, nv int) *costTable {
	for _, c := range f.tables {
		if c.nm == nm && c.nv == nv {
			return c
		}
	}
	c := &costTable{db: f.costs, nm: nm, nv: nv, grids: make([]costGrid, fullCost+len(f.tenants))}
	f.tables = append(f.tables, c)
	return c
}

// decode prices one decode iteration (CostDB.LLMCycles, PhaseDecode).
func (c *costTable) decode(batch, ctx int) (float64, error) {
	return c.cycles(decodeCost, batch, ctx, 0, "")
}

// prefill prices one prefill chunk (CostDB.LLMChunkCycles).
func (c *costTable) prefill(batch, chunk, ctxBefore int) (float64, error) {
	return c.cycles(prefillCost, batch, chunk, ctxBefore, "")
}

// service prices one whole-model invocation of t's model
// (CostDB.ServiceCycles).
func (c *costTable) service(t *tenantState, batch int) (float64, error) {
	return c.cycles(fullCost+t.idx, batch, 0, 0, t.cfg.Model)
}

// cycles returns the cell of one launch shape: its batch, its sequence
// (decode context or prefill chunk) and the cached context behind a
// chunk, filling it from the database on first use. A negative
// dimension, which no launch asks for, would share ordinal 0 with zero,
// so it goes to the database, which rejects it.
func (c *costTable) cycles(kind, batch, seq, ctx int, model string) (float64, error) {
	if seq < 0 || ctx < 0 {
		return c.query(kind, batch, seq, ctx, model)
	}
	v := c.grids[kind].at(ordinal(batch), ordinal(seq), ordinal(ctx))
	if *v == 0 {
		x, err := c.query(kind, batch, seq, ctx, model)
		if err != nil {
			return 0, err
		}
		*v = x
	}
	return *v, nil
}

// query asks the database for one launch shape's cycles.
func (c *costTable) query(kind, batch, seq, ctx int, model string) (float64, error) {
	switch kind {
	case decodeCost:
		return c.db.LLMCycles(PhaseDecode, batch, seq, c.nm, c.nv)
	case prefillCost:
		return c.db.LLMChunkCycles(batch, seq, ctx, c.nm, c.nv)
	}
	return c.db.ServiceCycles(model, batch, c.nm, c.nv)
}

// ordinal numbers a shape dimension's power-of-two bucket: 0 for 0, and
// 1 + log2(PadBatch(n)) otherwise. The bucket fixes the dimension's
// padded CostDB value, fine or coarse (padShape), so one ordinal never
// stands for two different costs.
func ordinal(n int) int {
	if n <= 0 {
		return 0
	}
	return 1 + bits.Len(uint(n-1))
}

// costGrid holds one invocation kind's cells, row-major over the
// [batch][seq][ctx] ordinals, and grows to the largest ordinals seen.
type costGrid struct {
	nb, ns, nc int
	cells      []float64 // 0 until looked up (a zero cost is just looked up again)
}

// at returns the cell of ordinals (b, s, x), growing the grid to hold it.
func (g *costGrid) at(b, s, x int) *float64 {
	if b >= g.nb || s >= g.ns || x >= g.nc {
		old := *g
		g.nb, g.ns, g.nc = max(g.nb, b+1), max(g.ns, s+1), max(g.nc, x+1)
		g.cells = make([]float64, g.nb*g.ns*g.nc)
		for i := 0; i < old.nb; i++ {
			for j := 0; j < old.ns; j++ {
				copy(g.cells[(i*g.ns+j)*g.nc:], old.cells[(i*old.ns+j)*old.nc:][:old.nc])
			}
		}
	}
	return &g.cells[(b*g.ns+s)*g.nc+x]
}
