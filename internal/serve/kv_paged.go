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
// footprint at admission, paging charges only the prompt (plus the
// prefill's first token) and grants one block at a time as decode
// actually produces tokens. That admits far more concurrent sequences
// on the same HBM — and makes mid-flight exhaustion possible, which the
// decode launcher (launchDecode, evictSeq in paged.go) resolves by
// evicting the youngest sequences: dropping their blocks and replaying
// the lost tokens through a chunked re-prefill ("recompute"), or
// shipping them to host memory and back over a modeled PCIe-class link
// ("swap").
//
// Completed sequences do not just free their blocks: a session-traced
// request seals its tokens into the radix cache, a refcounted trie
// keyed by opaque segment keys (workload.PrefixSeg). Cache nodes with
// no live pins are "cold" — still resident, counted reclaimable, and
// evicted LRU-leaf-first only under allocation pressure. A later
// request whose prefix chain matches resident nodes pins them and
// skips re-prefilling the matched whole blocks.
//
// The cache allocates nothing in steady state: children hang off
// intrusive sibling links, every node sits on an intrusive LRU list
// that a pin or seal touch moves to the recent end, and dropped nodes
// wait on a free list for the next seal.
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

	// parent, child (the first child) and next (the next sibling) link
	// the trie; keys are unique among siblings because seal stops rather
	// than insert a key that exists with another span. On the free list
	// next chains the free nodes.
	parent, child, next *radixNode

	refs int // live sequences pinning this node (via descendants too)

	// older and newer link the node into its pagedKV's LRU list.
	older, newer *radixNode
}

// childFor returns n's child under key, or nil.
func (n *radixNode) childFor(key uint64) *radixNode {
	c := n.child
	for c != nil && c.key != key {
		c = c.next
	}
	return c
}

// pagedKV is the paged policy's machinery behind a kvAccountant's paged
// field: prefix matching, cold-block eviction and prefix caching on top
// of the ledger, which keeps owning footprints, block grants, the
// occupancy integral, the peaks and the resident-sequence count.
type pagedKV struct {
	f     *fleet
	t     *tenantState  // owning LLM tenant (paged excludes share groups)
	r     *replica      // bound after spawn (bind); nil only during spawn
	a     *kvAccountant // raw block ledger
	evict string        // KVEvictRecompute | KVEvictSwap

	root *radixNode
	// lru is the sentinel of a ring holding every cache node in touch
	// order: lru.newer is the least recently touched node and lru.older
	// the most recent.
	lru  radixNode
	free *radixNode // dropped nodes awaiting reuse, chained through next
	cold int        // Σ blocks of refs==0 nodes: reclaimable without touching live seqs

	// hostLink models the NPU↔host swap path (swapGBps); lazily created
	// at bind. swapQ holds swapped-out sequences FIFO: the head returns
	// as soon as its outbound copy landed and blocks free up, and
	// admission backpressures while any sequence waits here. flights
	// holds the copies on the host link, outbound (evict) or inbound
	// (restore), so a crash teardown can cancel them mid-flight; each
	// copy's completion drops its own handle (llmSeq.flight).
	hostLink *xfer.Link
	swapQ    []*llmSeq
	flights  []*xfer.Transfer

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
	p := &pagedKV{
		f: f, t: t, a: acct,
		evict: t.cfg.LLM.KVEvict,
		root:  &radixNode{},
	}
	p.lru.older, p.lru.newer = &p.lru, &p.lru
	return p
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

// freeBlocks is the ledger's unallocated remainder.
func (p *pagedKV) freeBlocks() int { return p.a.totalBlocks - p.a.usedBlocks }

// ensureFree evicts cold cache blocks LRU-leaf-first until `blocks` can
// allocate from the ledger. Callers must have checked the ledger's avail.
func (p *pagedKV) ensureFree(blocks int, now float64) {
	for p.freeBlocks() < blocks {
		v := p.coldestLeaf()
		if v == nil {
			panic("serve: paged KV ensureFree with no reclaimable blocks")
		}
		p.dropNode(v, now)
	}
}

// coldestLeaf picks the eviction victim: the least recently used
// unpinned childless node, the first one the walk from the LRU list's
// old end meets.
func (p *pagedKV) coldestLeaf() *radixNode {
	for n := p.lru.newer; n != &p.lru; n = n.newer {
		if n.refs == 0 && n.child == nil {
			return n
		}
	}
	return nil
}

// touch moves n to the recent end of the LRU list, inserting it if it
// is not on the list yet.
func (p *pagedKV) touch(n *radixNode) {
	if n.newer != nil {
		n.older.newer, n.newer.older = n.newer, n.older
	}
	last := p.lru.older
	n.older, n.newer = last, &p.lru
	last.newer, p.lru.older = n, n
}

// dropNode evicts one cold leaf: its blocks return to the ledger, its
// parent may become a leaf for the next round, and the node goes on
// the free list.
func (p *pagedKV) dropNode(n *radixNode, now float64) {
	link := &n.parent.child
	for *link != n {
		link = &(*link).next
	}
	*link = n.next
	n.older.newer, n.newer.older = n.newer, n.older
	p.cold -= n.blocks
	p.cacheEvictBlocks += n.blocks
	if n.blocks > 0 {
		p.a.free(n.blocks, now)
	}
	*n = radixNode{next: p.free}
	p.free = n
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
		child := node.childFor(seg.Key)
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
		p.touch(n)
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

// ---- admission (through the ledger) ----

// admission sizes admitting req: it matches the request's prefix chain
// and returns the matched tail, the hit tokens, and the blocks the
// admission charges (the ledger's footprint at that hit). ok is false
// while any sequence waits in the swap queue (its return has first
// claim on freed blocks) or when the charge does not fit once the
// matched chain's cold blocks, which pinning will make unreclaimable,
// are discounted.
func (p *pagedKV) admission(req request) (tail *radixNode, hit, need int, ok bool) {
	if len(p.swapQ) > 0 {
		return nil, 0, 0, false
	}
	tail, tok, coldB := p.matchPrefix(req)
	hit = p.hitTokens(tok, req.prompt)
	need = p.a.footprint(req, hit)
	return tail, hit, need, p.a.avail()-coldB >= need
}

// canAdmit reports whether admission would admit req now.
func (p *pagedKV) canAdmit(req request) bool {
	_, _, _, ok := p.admission(req)
	return ok
}

// admit pins the matched prefix chain and charges the private suffix,
// walking the chain once; it admits nothing when admission refuses.
func (p *pagedKV) admit(s *llmSeq, now float64) bool {
	tail, hit, need, ok := p.admission(s.req)
	if !ok {
		return false
	}
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

// seal walks/creates the request's full chain — prefix segments plus
// its own segment — moving block ownership for newly created nodes out
// of the sequence's private pool. The private pool always covers them:
// it holds ceil((ctx−hit)/kvBlockTokens) blocks while new nodes own at
// most floor(ctx/kvBlockTokens) − hit/kvBlockTokens.
func (p *pagedKV) seal(s *llmSeq) {
	node, tokens := p.root, 0
	transferred := 0
	addSeg := func(key uint64, span int) bool {
		child := node.childFor(key)
		if child != nil {
			if child.tokens != span {
				return false // foreign key reuse; stop sealing
			}
		} else {
			if child = p.free; child != nil {
				p.free = child.next
			} else {
				child = new(radixNode)
			}
			*child = radixNode{} // then set: a literal would be copied whole
			child.key, child.tokens, child.startTok = key, span, tokens
			child.blocks = (tokens+span)/kvBlockTokens - tokens/kvBlockTokens
			child.parent, child.next = node, node.child
			node.child = child
			p.cold += child.blocks // born cold; a later admission may pin it
			transferred += child.blocks
		}
		p.touch(child)
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

// teardown cancels in-flight swap copies when the replica leaves the
// fleet; a crash's harvested sequences are handled by the caller.
func (p *pagedKV) teardown() {
	for _, x := range p.flights {
		x.Cancel()
	}
	p.flights = p.flights[:0]
	p.swapQ = p.swapQ[:0]
}

func (p *pagedKV) dropFlight(fl *xfer.Transfer) {
	for i, x := range p.flights {
		if x == fl {
			p.flights = append(p.flights[:i], p.flights[i+1:]...)
			return
		}
	}
}
