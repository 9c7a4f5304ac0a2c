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

// CostDB resolves (invocation, batch, vNPU shape) → service cycles for
// one batched launch. Costs are not a closed-form guess: each entry is
// measured by compiling the invocation's graph at its padded shape and
// replaying it solo through the §III-G fluid simulator on a core carved
// down to the vNPU's engine counts and its fair HBM-bandwidth share
// (§III-B: bandwidth is shared in proportion to EUs by default), so it
// prices ME/VE pipelining, reduction-split overheads and
// memory-boundedness exactly as the figure experiments do. The replay
// is sched.SoloLatency, which simulates each distinct operator once and
// equals a one-request sched.Run bit for bit. An LLM phase entry builds
// and compiles one transformer layer and its lm-head (10 ops) and
// replays them along model.LLMOrder, which is the 40-layer graph's
// latency bit for bit. A replay that completes no request, cut off at
// the simulator's cycle or event cap or deadlocked, is a costing error,
// never a 0-cycle entry.
//
// Batch sizes, sequence lengths and cached contexts are padded up to the
// next power of two before costing — real serving kernels are compiled
// for bucketed shapes, and bucketing bounds the cache to a logarithmic
// number of entries per dimension, invocation and vNPU shape.
//
// Entries are measured on first use: the first launch that asks for a
// key pays for its measurement. Entries are single-flighted per key
// (the workload.Compiled pattern): the map lock is held only to claim a
// slot, measurement runs under the entry's sync.Once, so distinct keys
// measure concurrently and the parallel experiment runner shares one
// CostDB across its worker pool. Every entry is a pure function of its
// key, so population order — which run, worker or launch measured it
// first — cannot leak into results. A failed measurement is cached like
// a value; a serving run that hits one stops with that error. A serving
// run reads the database only through its cost tables (costTable), once
// per launch shape.
//
// The database also memoizes each (model, padded batch)'s §III-B
// allocator profile and HBM footprint (profile), from which newFleet
// sizes a tenant's vNPUs, so runs sharing a database profile each
// tenant's model once; the serving LLM's profile is summed from an
// 80-op one-layer build of the registry LLaMA. The memo is
// single-flighted, caches errors, and stays outside Entries() and the
// cap: a run adds at most one per tenant. It lives on the database, not
// in a package variable, so a fresh database starts cold, as each
// neu10-serve invocation does.
type CostDB struct {
	core     arch.CoreConfig
	mu       sync.Mutex
	entries  map[costKey]*costEntry
	profiles map[costKey]*profileEntry // keyed by model and padded batch

	// maxEntries bounds the cache (DefaultMaxCostEntries; tests lower
	// it), so a long parameter sweep — many models × shapes × vNPU
	// splits — cannot grow the map without limit. Once the map is full,
	// new keys measure WITHOUT caching. The measurement is a pure
	// function of the key — the exact value the cache would have held —
	// so hitting the cap makes overflow queries slower, never different.
	maxEntries int

	// onMeasure, when non-nil, is invoked immediately before any
	// measurement — inside the entry's sync.Once for cached keys, per
	// call for capped uncached ones — and before each profile build, whose
	// key has nm = nv = 0: a test hook that observes the single-flight
	// property and the cap's fallback behavior.
	onMeasure func(costKey)
}

// DefaultMaxCostEntries is the default cache bound: comfortably above
// any shipped scenario's working set (hundreds of entries), small
// enough that a runaway sweep cannot hold gigabytes of map.
const DefaultMaxCostEntries = 8192

// Invocation kinds, of a costKey and of a costTable grid: one decode
// iteration of the serving LLM (model.LLMDecode), one prefill chunk
// (model.LLMPrefillChunk, behind cached context or none), or a
// whole-model batched inference.
const (
	decodeCost = iota
	prefillCost
	fullCost // + a tenant's index in a costTable
)

type costKey struct {
	model  string
	kind   int // decodeCost, prefillCost or fullCost
	batch  int // padded
	seq    int // padded context (decode) / chunk (prefill); 0 for full
	ctx    int // padded cached context BEHIND a prefill chunk; 0 otherwise
	nm, nv int
}

type costEntry struct {
	once   sync.Once
	cycles float64
	err    error
}

type profileEntry struct {
	once      sync.Once
	prof      compiler.Profile
	footprint int64
	err       error
}

// NewCostDB builds a cost database for a physical core family.
func NewCostDB(core arch.CoreConfig) *CostDB {
	return &CostDB{core: core, entries: map[costKey]*costEntry{},
		profiles: map[costKey]*profileEntry{}, maxEntries: DefaultMaxCostEntries}
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

// llmModel names the serving LLM in phase-cost keys. The phase graphs
// share the registry LLaMA's dimensions (see model/llm.go), so one
// name covers the figure sweeps, the serving costs and KV accounting.
const llmModel = "LLaMA"

// cost returns the cycles of one launch on a vNPU with nm MEs and nv
// VEs. kind decodeCost is one decode iteration over seq cached tokens;
// prefillCost is a chunk of seq new tokens per sequence attending over
// ctx already-cached ones (ctx 0 is a whole-prompt prefill); fullCost
// and above is a whole-model inference of the model called name. Batch,
// seq and ctx each pad to their power-of-two bucket; 0 stays 0.
func (db *CostDB) cost(kind int, name string, batch, seq, ctx, nm, nv int) (float64, error) {
	if kind < fullCost {
		name = llmModel
	}
	kind = min(kind, fullCost)
	if batch < 1 || seq < 0 || ctx < 0 || (kind < fullCost && seq < 1) || nm < 1 || nv < 1 {
		return 0, fmt.Errorf("serve: bad cost query %s/%d/%d+%d on %dME+%dVE", name, batch, seq, ctx, nm, nv)
	}
	pad := func(n int) int { return 1 << ordinal(n) >> 1 }
	return db.cycles(costKey{model: name, kind: kind, batch: pad(batch), seq: pad(seq), ctx: pad(ctx), nm: nm, nv: nv})
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

// profile returns the allocator profile and HBM footprint of the named
// registry model at batch (a padded one), building its graph on the
// database's first query for it.
func (db *CostDB) profile(name string, batch int) (compiler.Profile, int64, error) {
	key := costKey{model: name, kind: fullCost, batch: batch}
	db.mu.Lock()
	e := db.profiles[key]
	if e == nil {
		e = &profileEntry{}
		db.profiles[key] = e
	}
	db.mu.Unlock()
	e.once.Do(func() {
		if db.onMeasure != nil {
			db.onMeasure(key)
		}
		cm := compiler.NewCostModel(db.core)
		if name == llmModel {
			g := model.LLaMA(batch, 1)
			e.prof, e.footprint = cm.ProfileRepeats(g, model.LLMRepeats), g.HBMFootprint
		} else if g, err := model.Build(name, batch); err != nil {
			e.err = err
		} else {
			e.prof, e.footprint = cm.ProfileGraph(g), g.HBMFootprint
		}
	})
	return e.prof, e.footprint, e.err
}

// measure prices one cache entry: the latency of its graph, compiled
// for its vNPU and run solo on it, as sched.SoloLatency gives it.
func (db *CostDB) measure(key costKey) (float64, error) {
	var g *compiler.Graph
	var order []int32
	switch key.kind {
	case prefillCost:
		g, order = model.LLMPrefillChunk(key.batch, key.seq, key.ctx, 1), model.LLMOrder()
	case decodeCost:
		g, order = model.LLMDecode(key.batch, key.seq, 1), model.LLMOrder()
	default:
		var err error
		if g, err = model.Build(key.model, key.batch); err != nil {
			return 0, err
		}
	}
	sub, cg, err := db.compile(g, key.nm, key.nv)
	if err != nil {
		return 0, err
	}
	c, err := sched.SoloLatency(sub, cg, order, key.nm, key.nv)
	if err != nil {
		return 0, fmt.Errorf("serve: costing %s/%d on %dME+%dVE: %w", key.model, key.batch, key.nm, key.nv, err)
	}
	return c, nil
}

// compile compiles g for a vNPU of nm MEs and nv VEs, which sees its own
// engines and its proportional bandwidth slice, and returns the vNPU's
// core with it.
func (db *CostDB) compile(g *compiler.Graph, nm, nv int) (arch.CoreConfig, *compiler.CompiledGraph, error) {
	frac := min(float64(nm+nv)/float64(db.core.MEs+db.core.VEs), 1)
	sub := db.core.WithEUs(nm, nv).WithHBMBandwidth(db.core.HBMBwBytes * frac)
	comp, err := compiler.New(sub)
	if err != nil {
		return sub, nil, err
	}
	cg, err := comp.Compile(g, compiler.ISANeu)
	return sub, cg, err
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

// decode prices one decode iteration over ctx cached tokens.
func (c *costTable) decode(batch, ctx int) (float64, error) {
	return c.cycles(decodeCost, batch, ctx, 0, "")
}

// prefill prices one prefill chunk behind ctxBefore cached tokens.
func (c *costTable) prefill(batch, chunk, ctxBefore int) (float64, error) {
	return c.cycles(prefillCost, batch, chunk, ctxBefore, "")
}

// service prices one whole-model invocation of t's model.
func (c *costTable) service(t *tenantState, batch int) (float64, error) {
	return c.cycles(fullCost+t.idx, batch, 0, 0, t.cfg.Model)
}

// cycles returns the cell of one launch shape: its batch, its sequence
// (decode context or prefill chunk) and the cached context behind a
// chunk, filling it from the database (CostDB.cost) on first use. A
// negative dimension, which no launch asks for, would share ordinal 0
// with zero, so it always goes to the database, which rejects it.
func (c *costTable) cycles(kind, batch, seq, ctx int, name string) (float64, error) {
	v := c.grids[kind].at(ordinal(batch), ordinal(seq), ordinal(ctx))
	if *v == 0 || seq < 0 || ctx < 0 {
		x, err := c.db.cost(kind, name, batch, seq, ctx, c.nm, c.nv)
		if err != nil {
			return 0, err
		}
		*v = x
	}
	return *v, nil
}

// ordinal numbers a shape dimension's power-of-two bucket: 0 for 0, and
// 1 + log2(PadBatch(n)) otherwise. The bucket of ordinal o is 1<<o>>1,
// which is how CostDB.cost pads, so one ordinal never stands for two
// different costs.
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
