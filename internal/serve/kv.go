package serve

import (
	"fmt"

	"neu10/internal/model"
)

// KV-cache accounting for one replica slot's vNPU HBM partition (§III
// memory partitioning): the capacity left in MemSizePerCore after the
// LLM's resident weights, handed out in fixed-size blocks of
// kvBlockTokens tokens — paged-attention-style block granularity, which
// bounds fragmentation to under one block per sequence.
//
// Every LLM slot carries one kvAccountant, its block ledger. The
// admission policy follows LLMConfig.KVPolicy:
//
//   - "reserve" (the default): a sequence reserves its FULL
//     prompt+output footprint at admission, so a running generation can
//     never overcommit mid-flight; its blocks free when it completes.
//     Every legacy scenario runs on it byte-identically.
//   - "paged": the ledger's paged field holds the paged machinery
//     (kv_paged.go). Blocks allocate as decode actually produces
//     tokens, cold sequences evict under pressure (recompute or swap,
//     priced), and a radix-trie prefix cache lets session traffic reuse
//     resident blocks across requests.
//
// canAdmit, admit, release and addStats dispatch on paged. The raw
// ledger (blocksFor/fits/alloc/free/accrue) serves both policies; the
// disaggregated handoff and evacuation paths charge explicit
// reservations through it.

// KVStats is the stable KV accounting block every consumer — report
// tables, JSON, and internal/obs timelines — reads uniformly. The
// first four fields are the legacy KV section of LLMTenantReport and
// are always populated for LLM tenants; the extended fields are
// populated only when the tenant sets LLMConfig.KVPolicy explicitly,
// so legacy reports marshal byte-identically.
type KVStats struct {
	// KVBlockTokens is the block granularity in tokens.
	KVBlockTokens int `json:"kv_block_tokens"`
	// KVOccMean / KVOccPeak are the time-averaged and worst
	// instantaneous occupancy fractions across the tenant's replicas.
	KVOccMean float64 `json:"kv_occupancy_mean"`
	KVOccPeak float64 `json:"kv_occupancy_peak"`
	// KVStalls counts batch-growth attempts blocked by KV exhaustion.
	KVStalls int `json:"kv_stalls"`

	// KVPolicy is the backend name ("reserve" or "paged"); empty means
	// the tenant ran on the implicit reserve default and none of the
	// fields below are populated.
	KVPolicy string `json:"kv_policy,omitempty"`
	// PeakSeqs is the peak number of concurrently resident sequences
	// across the tenant's fleet — the admitted-concurrency headline the
	// paged backend exists to raise.
	PeakSeqs int `json:"kv_peak_seqs,omitempty"`

	// Eviction traffic (paged backend only): total evictions split by
	// policy, the tokens whose KV must be re-prefilled after a
	// recompute eviction, and the swap payloads moved to/from host
	// memory over the modeled link.
	Evictions       int     `json:"kv_evictions,omitempty"`
	EvictRecompute  int     `json:"kv_evict_recompute,omitempty"`
	EvictSwap       int     `json:"kv_evict_swap,omitempty"`
	RecomputeTokens int64   `json:"kv_recompute_tokens,omitempty"`
	SwapOutMB       float64 `json:"kv_swap_out_mb,omitempty"`
	SwapInMB        float64 `json:"kv_swap_in_mb,omitempty"`

	// Radix prefix cache: lookup/hit counts over admissions, the KV
	// tokens served from cache instead of prefilled, the cache blocks
	// reclaimed under pressure, and hits/lookups.
	PrefixLookups   int     `json:"kv_prefix_lookups,omitempty"`
	PrefixHits      int     `json:"kv_prefix_hits,omitempty"`
	PrefixHitTokens int64   `json:"kv_prefix_hit_tokens,omitempty"`
	CacheEvictions  int     `json:"kv_cache_evict_blocks,omitempty"`
	PrefixHitRate   float64 `json:"kv_prefix_hit_rate,omitempty"`
}

// kvBlockTokens is the KV-cache block granularity in tokens.
const kvBlockTokens = 16

// newKV builds the KV ledger a fresh replica slot runs on, per the
// serving group's KVPolicy (newFleet validates that LLM peers in one
// share group agree, so the first explicit policy found is the group's
// policy; empty means the implicit reserve default).
func (f *fleet) newKV(t *tenantState, capBytes int64) *kvAccountant {
	a := newKVAccountant(capBytes, model.LLMKVBytesPerToken(), float64(f.eng.Now()))
	for _, p := range t.peers {
		if p.llm != nil && p.cfg.LLM.KVPolicy == KVPaged {
			a.paged = newPagedKV(f, p, a)
			break
		}
	}
	return a
}

// kvAccountant is a slot's block ledger. It also integrates occupancy
// over time for the report's KV-utilization numbers.
type kvAccountant struct {
	totalBlocks int
	usedBlocks  int
	peakBlocks  int

	born     float64 // creation time, cycles (origin of the block·time area)
	lastAt   float64
	usedArea float64 // ∫ usedBlocks dt since born

	// Resident-sequence count (the admitted concurrency the two policies
	// are compared on); crash-discarded sequences skip release, but the
	// peak is already correct when the replica folds.
	curSeqs, peakSeqs int

	// paged is the paged policy's machinery; nil under full reservation.
	paged *pagedKV
}

// newKVAccountant carves capBytes into blocks of kvBlockTokens tokens
// at bytesPerToken each.
func newKVAccountant(capBytes, bytesPerToken int64, now float64) *kvAccountant {
	total := 0
	if blockBytes := bytesPerToken * kvBlockTokens; capBytes > 0 && blockBytes > 0 {
		total = int(capBytes / blockBytes)
	}
	return &kvAccountant{totalBlocks: total, born: now, lastAt: now}
}

// blocksFor returns the block footprint of `tokens` tokens (0 for
// tokens ≤ 0).
func (a *kvAccountant) blocksFor(tokens int) int {
	if tokens <= 0 {
		return 0
	}
	return (tokens + kvBlockTokens - 1) / kvBlockTokens
}

// fits reports whether `blocks` more blocks can be allocated now.
func (a *kvAccountant) fits(blocks int) bool { return a.usedBlocks+blocks <= a.totalBlocks }

// alloc charges blocks; the caller must have checked fits (admission is
// the only gate, so overcommit here is a scheduler bug, not load).
func (a *kvAccountant) alloc(blocks int, now float64) {
	a.accrue(now)
	a.usedBlocks += blocks
	if a.usedBlocks > a.peakBlocks {
		a.peakBlocks = a.usedBlocks
	}
	if a.usedBlocks > a.totalBlocks {
		panic(fmt.Sprintf("serve: KV accountant overcommitted (%d/%d blocks)", a.usedBlocks, a.totalBlocks))
	}
}

// free returns blocks to the pool.
func (a *kvAccountant) free(blocks int, now float64) {
	a.accrue(now)
	a.usedBlocks -= blocks
	if a.usedBlocks < 0 {
		panic("serve: KV accountant freed more blocks than allocated")
	}
}

// accrue advances the occupancy integral to now.
func (a *kvAccountant) accrue(now float64) {
	if now > a.lastAt {
		a.usedArea += float64(a.usedBlocks) * (now - a.lastAt)
		a.lastAt = now
	}
}

// canAdmit reports, side-effect-free, whether the ledger would admit
// this request now — the scheduling predicate next() and the stall
// accounting read. Under reservation the full prompt+output footprint
// must fit.
func (a *kvAccountant) canAdmit(req request) bool {
	if a.paged != nil {
		return a.paged.canAdmit(req)
	}
	return a.fits(a.blocksFor(req.prompt + req.output))
}

// admit charges a fresh sequence's admission footprint and fills in its
// bookkeeping (s.blocks, and under paging its prefix-cache pin). The
// caller constructs s with req and ctx set; false admits nothing and
// charges nothing.
func (a *kvAccountant) admit(s *llmSeq, now float64) bool {
	if a.paged != nil {
		if !a.paged.admit(s, now) {
			return false
		}
	} else {
		blocks := a.blocksFor(s.req.prompt + s.req.output)
		if !a.fits(blocks) {
			return false
		}
		a.alloc(blocks, now)
		s.blocks = blocks
	}
	a.seqIn()
	return true
}

// seqIn counts one more resident sequence.
func (a *kvAccountant) seqIn() {
	a.curSeqs++
	if a.curSeqs > a.peakSeqs {
		a.peakSeqs = a.curSeqs
	}
}

// release retires a completed sequence, returning its blocks (under
// paging, reusable prefix blocks first seal into the cache).
func (a *kvAccountant) release(s *llmSeq, now float64) {
	if a.paged != nil {
		a.paged.release(s, now)
	} else {
		a.free(s.blocks, now)
	}
	a.curSeqs--
}

// addStats folds the ledger's policy counters into a tenant aggregate.
// Called exactly once per replica lifetime (at retire, crash teardown,
// or the final report), so additive fields accumulate exactly.
func (a *kvAccountant) addStats(st *KVStats) {
	if a.peakSeqs > st.PeakSeqs {
		st.PeakSeqs = a.peakSeqs
	}
	p := a.paged
	if p == nil {
		return
	}
	st.Evictions += p.evictions
	st.EvictRecompute += p.evictRecompute
	st.EvictSwap += p.evictSwap
	st.RecomputeTokens += p.recomputeTokens
	st.SwapOutMB += float64(p.swapOutBytes) / 1e6
	st.SwapInMB += float64(p.swapInBytes) / 1e6
	st.PrefixLookups += p.prefixLookups
	st.PrefixHits += p.prefixHits
	st.PrefixHitTokens += p.prefixHitTokens
	st.CacheEvictions += p.cacheEvictBlocks
}
