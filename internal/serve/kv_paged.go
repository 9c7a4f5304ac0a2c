package serve

import (
	"fmt"

	"neu10/internal/xfer"
)

// Paged KV policy: block-on-demand allocation with a radix-trie prefix
// cache (vLLM's PagedAttention allocation discipline plus SGLang-style
// RadixAttention reuse, on the simulator's block ledger).
//
// Where reservation charges a sequence's whole prompt+output
// footprint at admission, paging charges only the prompt
// (plus the prefill's first token) and grants one block at a time as
// decode actually produces tokens. That admits far more concurrent
// sequences on the same HBM — and makes mid-flight exhaustion possible,
// which the scheduling layer (paged.go) resolves by evicting the
// youngest sequences: dropping their blocks and replaying the lost
// tokens through a chunked re-prefill ("recompute"), or shipping them
// to host memory and back over a modeled PCIe-class link ("swap").
//
// Completed sequences do not just free their blocks: a session-traced
// request seals its tokens into the radix cache, a refcounted trie
// keyed by opaque segment keys (workload.PrefixSeg). Cache nodes with
// no live pins are "cold" — still resident, counted reclaimable, and
// evicted LRU-leaf-first only under allocation pressure. A later
// request whose prefix chain matches resident nodes pins them and
// skips re-prefilling the matched whole blocks.
//
// Invariants (asserted in tests):
//   - acct.used == Σ live private blocks + Σ cache-node blocks;
//   - cold == Σ blocks of cache nodes with refs == 0;
//   - node refs ≥ 0 everywhere, and a node's refs ≥ any child's
//     (chains pin whole paths, so cold subtrees are evictable
//     leaf-first);
//   - after drain, no live sequences: used == cold (only cache).

// radixNode is one sealed segment in the prefix-cache trie. Block
// ownership is an exact partition of the chain: a node owns the whole
// blocks that COMPLETE within its token span, so a chain of C tokens
// owns floor(C/kvBlockTokens) blocks with no double counting across
// parent and child.
type radixNode struct {
	key      uint64
	tokens   int // tokens this segment adds to its chain
	startTok int // chain tokens before this segment
	blocks   int // whole blocks completing within this segment's span

	parent   *radixNode
	children map[uint64]*radixNode

	refs    int   // live sequences pinning this node (via descendants too)
	lastUse int64 // LRU clock at last pin/seal touch
	ord     int64 // creation ordinal: deterministic LRU tie-break
}

// swapFlight is one sequence's KV payload on the host link, outbound
// (evict) or inbound (restore). Held so a crash teardown can cancel the
// copy mid-flight.
type swapFlight struct {
	seq *llmSeq
	xfr *xfer.Transfer
	out bool
}

// pagedKV is the paged policy's machinery behind a kvAccountant's paged
// field: block-on-demand allocation, cold-block eviction and prefix
// caching on top of the raw ledger, which keeps owning the occupancy
// integral, the peaks and the resident-sequence count.
type pagedKV struct {
	f     *fleet
	t     *tenantState  // owning LLM tenant (paged excludes share groups)
	r     *replica      // bound after spawn (bind); nil only during spawn
	a     *kvAccountant // raw block ledger
	evict string        // KVEvictRecompute | KVEvictSwap

	root    *radixNode
	nodes   []*radixNode // every cache node (eviction scan set)
	cold    int          // Σ blocks of refs==0 nodes: reclaimable without touching live seqs
	lruTick int64
	nodeOrd int64

	// hostLink models the NPU↔host swap path (swapGBps); lazily created
	// at bind. swapQ holds swapped-out sequences FIFO: the head returns
	// as soon as its outbound copy landed and blocks free up, and
	// admission backpressures while any sequence waits here.
	hostLink *xfer.Link
	swapQ    []*llmSeq
	flights  []*swapFlight

	// Policy counters the ledger folds into KVStats at addStats.
	evictions        int
	evictRecompute   int
	evictSwap        int
	recomputeTokens  int64
	swapOutBytes     int64
	swapInBytes      int64
	prefixLookups    int
	prefixHits       int
	prefixHitTokens  int64
	cacheEvictBlocks int
}

// swapGBps is the modeled NPU↔host swap bandwidth in GB/s —
// PCIe-class, deliberately slower than the chip-to-chip fabric.
const swapGBps = 32

// newPagedKV builds the paged machinery over a fresh replica's ledger.
func newPagedKV(f *fleet, t *tenantState, acct *kvAccountant) *pagedKV {
	return &pagedKV{
		f: f, t: t, a: acct,
		evict: t.cfg.LLM.KVEvict,
		root:  &radixNode{children: map[uint64]*radixNode{}},
	}
}

// bind attaches the policy to its spawned replica and opens the host
// swap link (per replica: swap bandwidth is a per-chip resource).
func (p *pagedKV) bind(r *replica) {
	p.r = r
	bw := swapGBps * 1e9 / p.f.cfg.Core.FrequencyHz
	lat := linkLatencyUs * 1e-6 * p.f.cfg.Core.FrequencyHz
	l, err := xfer.NewLink(p.f.eng, fmt.Sprintf("host/%s/r%d", p.t.cfg.Name, r.uid), bw, lat)
	if err != nil {
		panic(fmt.Sprintf("serve: paged KV host link: %v", err))
	}
	p.hostLink = l
}

// ---- allocation arithmetic ----

// freeBlocks is the ledger's unallocated remainder; avail adds the cold
// cache blocks reclaimable on demand.
func (p *pagedKV) freeBlocks() int { return p.a.totalBlocks - p.a.usedBlocks }
func (p *pagedKV) avail() int      { return p.freeBlocks() + p.cold }

func (p *pagedKV) canAlloc(blocks int) bool { return p.avail() >= blocks }

// ensureFree evicts cold cache blocks LRU-leaf-first until `blocks` can
// allocate from the ledger. Callers must have checked canAlloc.
func (p *pagedKV) ensureFree(blocks int, now float64) {
	for p.freeBlocks() < blocks {
		v := p.coldestLeaf()
		if v == nil {
			panic("serve: paged KV ensureFree with no reclaimable blocks")
		}
		p.dropNode(v, now)
	}
}

// coldestLeaf picks the eviction victim: among unpinned childless
// nodes, the least recently used (creation ordinal breaks ties, so the
// scan order over the node set cannot matter).
func (p *pagedKV) coldestLeaf() *radixNode {
	var best *radixNode
	for _, n := range p.nodes {
		if n.refs != 0 || len(n.children) != 0 {
			continue
		}
		if best == nil || n.lastUse < best.lastUse ||
			(n.lastUse == best.lastUse && n.ord < best.ord) {
			best = n
		}
	}
	return best
}

// dropNode evicts one cold leaf: its blocks return to the ledger and
// its parent may become a leaf for the next round.
func (p *pagedKV) dropNode(n *radixNode, now float64) {
	delete(n.parent.children, n.key)
	for i, x := range p.nodes {
		if x == n {
			p.nodes = append(p.nodes[:i], p.nodes[i+1:]...)
			break
		}
	}
	p.cold -= n.blocks
	p.cacheEvictBlocks += n.blocks
	if n.blocks > 0 {
		p.a.free(n.blocks, now)
	}
}

func (p *pagedKV) tick() int64 {
	p.lruTick++
	return p.lruTick
}

// ---- prefix matching ----

// matchPrefix walks the request's chain against the trie: segments
// match on key AND span. Returns the deepest matched node (nil on a
// cold miss), the matched tokens, and the blocks of matched nodes that
// are currently cold — which pinning would remove from the reclaimable
// pool, so admission must discount them.
func (p *pagedKV) matchPrefix(req request) (*radixNode, int, int) {
	node, tok, coldB := p.root, 0, 0
	for _, seg := range req.prefix {
		child := node.children[seg.Key]
		if child == nil || child.tokens != seg.Tokens {
			break
		}
		node = child
		tok += seg.Tokens
		if child.refs == 0 {
			coldB += child.blocks
		}
	}
	if node == p.root {
		return nil, 0, 0
	}
	return node, tok, coldB
}

// hitTokens converts matched chain tokens into the reusable hit: whole
// blocks only, and never the entire prompt — the prefill must still
// process at least one token to produce the first output logits.
func (p *pagedKV) hitTokens(matched, prompt int) int {
	if matched > prompt-1 {
		matched = prompt - 1
	}
	if matched < 0 {
		return 0
	}
	return matched / kvBlockTokens * kvBlockTokens
}

// pinChain refs every node on the path root→tail; a node going cold→
// pinned leaves the reclaimable pool.
func (p *pagedKV) pinChain(tail *radixNode) {
	for n := tail; n != nil && n != p.root; n = n.parent {
		if n.refs == 0 {
			p.cold -= n.blocks
		}
		n.refs++
		n.lastUse = p.tick()
	}
}

// unpin releases a sequence's chain pin; nodes dropping to refs 0
// become cold (reclaimable).
func (p *pagedKV) unpin(s *llmSeq) {
	for n := s.cref; n != nil && n != p.root; n = n.parent {
		n.refs--
		if n.refs < 0 {
			panic("serve: paged KV unpinned below zero")
		}
		if n.refs == 0 {
			p.cold += n.blocks
		}
	}
	s.cref = nil
}

// ---- admission / release (through the ledger) ----

// canAdmit: admission charges blocksFor(prompt+1−hit) — the prompt
// suffix the prefill actually processes plus the first token it emits;
// decode grows the rest block-by-block. Admission backpressures while
// any sequence waits in the swap queue (its return has first claim on
// freed blocks), and discounts the matched chain's cold blocks, which
// pinning will make unreclaimable.
func (p *pagedKV) canAdmit(req request) bool {
	if len(p.swapQ) > 0 {
		return false
	}
	_, tok, coldB := p.matchPrefix(req)
	need := p.a.blocksFor(req.prompt + 1 - p.hitTokens(tok, req.prompt))
	return p.avail()-coldB >= need
}

// admit pins the matched prefix chain and charges the private suffix.
// next() proposes work and launches it within one event, so state
// cannot shift between the canAdmit that approved this admission and
// the charge here.
func (p *pagedKV) admit(s *llmSeq, now float64) bool {
	if !p.canAdmit(s.req) {
		return false
	}
	tail, tok, _ := p.matchPrefix(s.req)
	hit := p.hitTokens(tok, s.req.prompt)
	need := p.a.blocksFor(s.req.prompt + 1 - hit)
	if tail != nil {
		p.pinChain(tail)
		s.cref = tail
	}
	p.ensureFree(need, now)
	p.a.alloc(need, now)
	s.blocks, s.hit = need, hit
	p.prefixLookups++
	if hit > 0 {
		p.prefixHits++
		p.prefixHitTokens += int64(hit)
	}
	return true
}

// release retires a completed sequence: its tokens seal into the cache
// under the request's seal key (transferring the covering blocks from
// the private pool), the chain pin drops, and the private remainder
// frees.
func (p *pagedKV) release(s *llmSeq, now float64) {
	if s.req.sealKey != 0 {
		p.seal(s)
	}
	p.unpin(s)
	if s.blocks > 0 {
		p.a.free(s.blocks, now)
		s.blocks = 0
	}
}

// seal walks/creates the request's full chain — prefix segments plus
// its own segment — moving block ownership for newly created nodes out
// of the sequence's private pool. The private pool always covers them:
// it holds ceil((ctx−hit)/kvBlockTokens) blocks while new nodes own at
// most floor(ctx/kvBlockTokens) − hit/kvBlockTokens.
func (p *pagedKV) seal(s *llmSeq) {
	node, tokens := p.root, 0
	transferred := 0
	addSeg := func(key uint64, span int) bool {
		child := node.children[key]
		if child != nil {
			if child.tokens != span {
				return false // foreign key reuse; stop sealing
			}
			child.lastUse = p.tick()
		} else {
			child = &radixNode{
				key: key, tokens: span, startTok: tokens,
				blocks: (tokens+span)/kvBlockTokens - tokens/kvBlockTokens,
				parent: node, children: map[uint64]*radixNode{},
				lastUse: p.tick(), ord: p.nodeOrd,
			}
			p.nodeOrd++
			node.children[key] = child
			p.nodes = append(p.nodes, child)
			p.cold += child.blocks // born cold; a later admission may pin it
			transferred += child.blocks
		}
		node = child
		tokens += span
		return true
	}
	for _, seg := range s.req.prefix {
		if !addSeg(seg.Key, seg.Tokens) {
			break
		}
	}
	if rest := s.ctx - tokens; rest > 0 {
		addSeg(s.req.sealKey, rest)
	}
	s.blocks -= transferred
	if s.blocks < 0 {
		panic("serve: paged KV sealed more blocks than the sequence owned")
	}
}

// needsBlock: the next decoded token lands at ctx+1; capacity is the
// private blocks plus the cache-served hit.
func (p *pagedKV) needsBlock(s *llmSeq) bool {
	return s.blocks*kvBlockTokens+s.hit < s.ctx+1
}

// extendSeq grants one more private block, reclaiming a cold cache
// block if the ledger is out of free ones. The scheduling layer
// (launchPagedDecode) checked avail.
func (p *pagedKV) extendSeq(s *llmSeq, now float64) {
	p.ensureFree(1, now)
	p.a.alloc(1, now)
	s.blocks++
}

// teardown cancels in-flight swap copies when the replica leaves the
// fleet; a crash's harvested sequences are handled by the caller.
func (p *pagedKV) teardown() {
	for _, fl := range p.flights {
		fl.xfr.Cancel()
	}
	p.flights = p.flights[:0]
	p.swapQ = p.swapQ[:0]
}

func (p *pagedKV) dropFlight(fl *swapFlight) {
	for i, x := range p.flights {
		if x == fl {
			p.flights = append(p.flights[:i], p.flights[i+1:]...)
			return
		}
	}
}
