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
// Every LLM slot carries one kvAccountant, its block ledger, and the
// ledger alone decides a sequence's footprint and residency. The
// footprint follows LLMConfig.KVPolicy and the slot's role:
//
//   - "reserve" (the default): a sequence reserves its FULL
//     prompt+output footprint at admission — only its prompt on a
//     prefill-pool slot, whose generated tokens live on the decode side
//     — so a running generation never needs another block; its blocks
//     free when it leaves. Every legacy scenario runs on it
//     byte-identically.
//   - "paged": the ledger's paged field holds the paged machinery
//     (kv_paged.go). Admission charges the prompt past any prefix-cache
//     hit plus the first token, decode grants one block per token
//     (grow), cold sequences evict under pressure (recompute or swap,
//     priced), and a radix-trie prefix cache lets session traffic reuse
//     resident blocks across requests.
//
// A sequence is counted in at admission and when a KV transfer or a
// swap-in lands on the slot, and counted out by one drop on completion
// (release), eviction, swap-out and a transfer's hand-off.

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

// newKV builds the KV ledger a fresh replica slot of the given role
// runs on, per the serving group's KVPolicy (newFleet validates that
// LLM peers in one share group agree, so the first explicit policy
// found is the group's policy; empty means the implicit reserve
// default).
func (f *fleet) newKV(t *tenantState, capBytes int64, role Role) *kvAccountant {
	a := newKVAccountant(capBytes, model.LLMKVBytesPerToken(), float64(f.eng.Now()))
	a.prefill = role == RolePrefill
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
	// are compared on); crash-discarded sequences skip drop, but the
	// peak is already correct when the replica folds.
	curSeqs, peakSeqs int

	// prefill marks a prefill-pool slot: its sequences hold prompt KV only.
	prefill bool
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

// avail is what a decode launch can still grant: the free blocks plus,
// under paging, the cold cache blocks reclaimable on demand.
func (a *kvAccountant) avail() int {
	n := a.totalBlocks - a.usedBlocks
	if a.paged != nil {
		n += a.paged.cold
	}
	return n
}

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

// footprint is the blocks admitting req charges on this slot, given hit
// prefix-cache tokens: under paging the prompt suffix the prefill
// processes plus the first token it emits (decode grows the rest block
// by block), on a prefill-pool slot the prompt, elsewhere the whole
// prompt+output.
func (a *kvAccountant) footprint(req request, hit int) int {
	switch {
	case a.paged != nil:
		return a.blocksFor(req.prompt + 1 - hit)
	case a.prefill:
		return a.blocksFor(req.prompt)
	}
	return a.blocksFor(req.prompt + req.output)
}

// canAdmit reports, side-effect-free, whether the ledger would admit
// this request now — the scheduling predicate next() and the stall
// accounting read, and the test a KV transfer's target must pass.
func (a *kvAccountant) canAdmit(req request) bool {
	if a.paged != nil {
		return a.paged.canAdmit(req)
	}
	return a.fits(a.footprint(req, 0))
}

// admit charges a fresh sequence's footprint and counts it in, filling
// in its bookkeeping (s.blocks, and under paging its prefix-cache pin).
// The caller constructs s with req and ctx set; false admits nothing
// and charges nothing.
func (a *kvAccountant) admit(s *llmSeq, now float64) bool {
	if a.paged != nil {
		if !a.paged.admit(s, now) {
			return false
		}
	} else {
		blocks := a.footprint(s.req, 0)
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

// needsBlock reports whether s's next decoded token, at ctx+1, needs a
// block beyond its private blocks plus its cache-served hit. Under full
// reservation it never does.
func (a *kvAccountant) needsBlock(s *llmSeq) bool {
	return s.blocks*kvBlockTokens+s.hit < s.ctx+1
}

// grow grants s one more block, reclaiming a cold cache block if the
// ledger is out of free ones; the caller checked avail. Only paging
// grows a sequence.
func (a *kvAccountant) grow(s *llmSeq, now float64) {
	a.paged.ensureFree(1, now)
	a.alloc(1, now)
	s.blocks++
}

// release retires a completed sequence: under paging its reusable
// blocks first seal into the prefix cache, then it drops.
func (a *kvAccountant) release(s *llmSeq, now float64) {
	if a.paged != nil && s.req.sealKey != 0 {
		a.paged.seal(s)
	}
	a.drop(s, now)
}

// drop counts a sequence out of this slot, returning its prefix-cache
// pin and its private blocks.
func (a *kvAccountant) drop(s *llmSeq, now float64) {
	if a.paged != nil {
		a.paged.unpin(s)
	}
	if s.blocks > 0 {
		a.free(s.blocks, now)
		s.blocks = 0
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
