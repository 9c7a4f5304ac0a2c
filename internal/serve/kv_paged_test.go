package serve

import (
	"fmt"
	"slices"
	"testing"

	"neu10/internal/arch"
	"neu10/internal/sim"
	"neu10/internal/workload"
)

// pagedCfg is the shared paged-KV test scenario: multi-turn session
// traffic (shared system prompt, growing per-session contexts) on a
// fixed two-replica fleet with a KV partition tight enough that the
// paged backend must evict mid-run. policy/evict select the backend
// under test; the same seed draws the byte-identical trace for every
// combination.
func pagedCfg(seed uint64, policy, evict string) Config {
	return Config{
		Scenario:    "paged-test",
		Core:        arch.TPUv4Like(),
		Cores:       2,
		Router:      LeastLoaded,
		DurationSec: 4.0,
		Seed:        seed,
		Tenants: []TenantConfig{{
			Name: "chat", Model: "LLaMA", Load: 0.7, EUs: 4, MaxBatch: 8, QueueCap: 32,
			InitialReplicas: 2, MaxReplicas: 2,
			LLM: &LLMConfig{
				// 32 blocks of 16 tokens; a full session (256 tokens) is
				// half the partition, so MaxBatch-wide decode must evict.
				KVCapTokens: 512,
				KVPolicy:    policy,
				KVEvict:     evict,
				Trace: workload.LLMTrace{
					PromptMin: 16, PromptMean: 32, PromptMax: 64,
					OutputMin: 2, OutputMean: 8, OutputMax: 24,
					Sessions: 6, SharedPrefixTokens: 32, MaxSessionTokens: 256,
				},
			},
		}},
	}
}

// nodeBlocks recomputes a radix node's block ownership from first
// principles: the whole blocks that COMPLETE within its token span.
func nodeBlocks(n *radixNode) int {
	return (n.startTok+n.tokens)/kvBlockTokens - n.startTok/kvBlockTokens
}

// checkPagedDrained asserts the paged backend's documented invariants
// on one replica whose fleet has drained, directly on its internal
// state:
//
//   - no sequence left swapped or in flight, and none resident;
//   - the trie's links agree (every child points back at its parent),
//     the LRU list holds exactly the trie's nodes, each once, and no
//     node is both in the trie and on the free list;
//   - every cache node unpinned (refs == 0) with refs never having gone
//     negative (unpin panics otherwise, so completion certifies it);
//   - block conservation: each node's owned blocks match the span
//     arithmetic, the cold counter equals their sum, and — with no live
//     sequences — the ledger's used equals cold exactly (all residency
//     is cache, zero private blocks leak).
func checkPagedDrained(t *testing.T, label string, p *pagedKV) {
	t.Helper()
	if len(p.swapQ) != 0 || len(p.flights) != 0 {
		t.Errorf("%s: %d swapped seqs and %d transfers survive the drain", label, len(p.swapQ), len(p.flights))
	}
	if p.a.curSeqs != 0 {
		t.Errorf("%s: %d sequences still resident after drain", label, p.a.curSeqs)
	}
	var trie []*radixNode
	inTrie := map[*radixNode]bool{}
	var walk func(n *radixNode)
	walk = func(n *radixNode) {
		for c := n.child; c != nil; c = c.next {
			if c.parent != n || inTrie[c] {
				t.Errorf("%s: trie links broken at node key=%d", label, c.key)
				return
			}
			inTrie[c] = true
			trie = append(trie, c)
			walk(c)
		}
	}
	walk(p.root)
	onLRU := map[*radixNode]bool{}
	for n := p.lru.newer; n != &p.lru; n = n.newer {
		if onLRU[n] || n.newer.older != n {
			t.Errorf("%s: LRU list broken at node key=%d", label, n.key)
			break
		}
		onLRU[n] = true
		if !inTrie[n] {
			t.Errorf("%s: node key=%d is on the LRU list but not in the trie", label, n.key)
		}
	}
	if len(onLRU) != len(trie) {
		t.Errorf("%s: LRU list holds %d nodes, trie %d", label, len(onLRU), len(trie))
	}
	onFree := map[*radixNode]bool{}
	for n := p.free; n != nil && !onFree[n]; n = n.next {
		onFree[n] = true
		if inTrie[n] {
			t.Errorf("%s: node key=%d is both in the trie and on the free list", label, n.key)
		}
	}
	sum := 0
	for _, n := range trie {
		if n.refs != 0 {
			t.Errorf("%s: cache node key=%d still pinned (refs %d) after drain", label, n.key, n.refs)
		}
		if want := nodeBlocks(n); n.blocks != want {
			t.Errorf("%s: node key=%d owns %d blocks, span arithmetic says %d", label, n.key, n.blocks, want)
		}
		sum += n.blocks
	}
	if p.cold != sum {
		t.Errorf("%s: cold counter %d ≠ Σ unpinned node blocks %d", label, p.cold, sum)
	}
	if p.a.usedBlocks != p.cold {
		t.Errorf("%s: %d blocks used but only %d are cache — private blocks leaked", label, p.a.usedBlocks, p.cold)
	}
}

// TestPagedDrainInvariants runs the paged backend to a full drain under
// both eviction policies across several seeds and checks every
// replica with checkPagedDrained, plus report-level conservation:
// arrivals = rejected + completed, peak occupancy in (0, 1], and at
// least one admission hit the cache.
func TestPagedDrainInvariants(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	for seed := uint64(1); seed <= 3; seed++ {
		for _, evict := range []string{KVEvictRecompute, KVEvictSwap} {
			f, err := newFleet(pagedCfg(seed, KVPaged, evict), db)
			if err != nil {
				t.Fatal(err)
			}
			for _, tn := range f.tenants {
				f.scheduleArrival(tn)
			}
			f.eng.Run()
			for _, tn := range f.tenants {
				for _, r := range tn.replicas {
					if r.kv.paged == nil {
						t.Fatalf("seed %d/%s: replica runs without the paged policy", seed, evict)
					}
					checkPagedDrained(t, fmt.Sprintf("seed %d/%s replica %d", seed, evict, r.id), r.kv.paged)
				}
			}
			rep := f.report()
			tr := rep.Tenants[0]
			if tr.Arrivals != tr.Rejected+tr.Completed {
				t.Errorf("seed %d/%s: %d arrivals ≠ %d rejected + %d completed",
					seed, evict, tr.Arrivals, tr.Rejected, tr.Completed)
			}
			if tr.Completed == 0 {
				t.Errorf("seed %d/%s: nothing completed", seed, evict)
			}
			if tr.LLM.KVOccPeak <= 0 || tr.LLM.KVOccPeak > 1 {
				t.Errorf("seed %d/%s: peak KV occupancy %.3f not in (0, 1]", seed, evict, tr.LLM.KVOccPeak)
			}
			if tr.LLM.PrefixLookups == 0 || tr.LLM.PrefixHits == 0 {
				t.Errorf("seed %d/%s: prefix cache never hit (%d/%d) on session traffic",
					seed, evict, tr.LLM.PrefixHits, tr.LLM.PrefixLookups)
			}
			if evict == KVEvictSwap && tr.LLM.SwapOutMB != tr.LLM.SwapInMB {
				t.Errorf("seed %d/%s: %.2f MB swapped out but %.2f MB back — a sequence never returned",
					seed, evict, tr.LLM.SwapOutMB, tr.LLM.SwapInMB)
			}
		}
	}
}

// TestPagedCrashMidSwap drives pagedKV.teardown, which no scenario
// fault plan reaches: a replica of the swap-evicting paged backend dies
// while one of its sequences is on the host link or parked in swapQ. A
// poller inside an engine event (every 0.1 ms) crashes, through
// crashReplicas, the first replica caught in its phase: an outbound
// swap in flight, an inbound swap in flight, or a landed sequence
// waiting in swapQ. Each phase must be caught on at least one of seeds
// 1–4. After drain, under both crash policies, every arrival is
// rejected, completed or lost, the attribution ledger balances with no
// request open, and every survivor passes checkPagedDrained.
func TestPagedCrashMidSwap(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	phases := []struct {
		name  string
		found func(p *pagedKV) bool
	}{
		{"outbound", func(p *pagedKV) bool {
			return slices.ContainsFunc(p.flights, func(fl *swapFlight) bool { return fl.out })
		}},
		{"inbound", func(p *pagedKV) bool {
			return slices.ContainsFunc(p.flights, func(fl *swapFlight) bool { return !fl.out })
		}},
		{"landed", func(p *pagedKV) bool {
			return slices.ContainsFunc(p.swapQ, func(s *llmSeq) bool { return s.swapReady })
		}},
	}
	for _, ph := range phases {
		hits := 0
		for seed := uint64(1); seed <= 4; seed++ {
			for _, policy := range []CrashPolicy{CrashReplay, CrashFail} {
				label := fmt.Sprintf("%s seed %d/%s", ph.name, seed, policy)
				cfg := pagedCfg(seed, KVPaged, KVEvictSwap)
				cfg.Faults = &FaultPlan{Policy: policy}
				cfg.Obs = &ObsConfig{Attrib: true}
				f, err := newFleet(cfg, db)
				if err != nil {
					t.Fatal(err)
				}
				ten := f.tenants[0]
				f.scheduleArrival(ten)
				every := sim.Time(f.cfg.Core.FrequencyHz / 1e4) // 0.1 ms
				var poll func(now sim.Time)
				poll = func(now sim.Time) {
					for _, r := range ten.replicas {
						if ph.found(r.kv.paged) {
							f.crashReplicas([]*replica{r}, now)
							hits++
							return
						}
					}
					if float64(now) < f.durCycles {
						f.eng.At(now+every, poll)
					}
				}
				f.eng.At(every, poll)
				f.eng.Run()

				if got := ten.rejected + ten.completed + ten.crashLost; ten.arrivals != got {
					t.Errorf("%s: %d arrivals ≠ %d rejected + %d completed + %d lost",
						label, ten.arrivals, ten.rejected, ten.completed, ten.crashLost)
				}
				verifyLedger(t, label, f.report())
				for _, r := range ten.replicas {
					checkPagedDrained(t, fmt.Sprintf("%s replica %d", label, r.id), r.kv.paged)
				}
			}
		}
		if hits == 0 {
			t.Errorf("no run crashed a replica with a %s swap", ph.name)
		}
		t.Logf("%s: %d of 8 runs crashed mid-swap", ph.name, hits)
	}
}

// TestPagedPolicyTraceInvariance is the property-test sweep across
// seeds × policies: the request trace — arrivals and total output
// tokens — is a pure function of the seed, identical whichever KV
// backend serves it, and every backend conserves requests
// (arrivals = rejected + completed on these fault-free runs). The paged
// backend must also admit at least as many concurrent sequences as full
// reservation on every seed.
func TestPagedPolicyTraceInvariance(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	for seed := uint64(1); seed <= 4; seed++ {
		type leg struct {
			policy, evict string
		}
		legs := []leg{{KVReserve, ""}, {KVPaged, KVEvictRecompute}, {KVPaged, KVEvictSwap}}
		var base TenantReport
		for i, lg := range legs {
			rep, err := Run(pagedCfg(seed, lg.policy, lg.evict), db)
			if err != nil {
				t.Fatal(err)
			}
			tr := rep.Tenants[0]
			if tr.Arrivals != tr.Rejected+tr.Completed {
				t.Errorf("seed %d %s/%s: %d arrivals ≠ %d rejected + %d completed",
					seed, lg.policy, lg.evict, tr.Arrivals, tr.Rejected, tr.Completed)
			}
			if i == 0 {
				base = tr
				continue
			}
			if tr.Arrivals != base.Arrivals || tr.LLM.TokensOut != base.LLM.TokensOut {
				t.Errorf("seed %d %s/%s: trace diverged from reserve (%d/%d arrivals, %d/%d tokens)",
					seed, lg.policy, lg.evict, tr.Arrivals, base.Arrivals, tr.LLM.TokensOut, base.LLM.TokensOut)
			}
			if tr.LLM.PeakSeqs < base.LLM.PeakSeqs {
				t.Errorf("seed %d %s/%s: paged admitted fewer concurrent seqs than reserve (%d < %d)",
					seed, lg.policy, lg.evict, tr.LLM.PeakSeqs, base.LLM.PeakSeqs)
			}
		}
	}
}

// TestPagedDeterminism: same seed ⇒ byte-identical report, for both
// eviction policies (the swap pipeline's link callbacks and the
// eviction loop's victim order must be fully event-ordered).
func TestPagedDeterminism(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	for _, evict := range []string{KVEvictRecompute, KVEvictSwap} {
		a, err := Run(pagedCfg(2, KVPaged, evict), db)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(pagedCfg(2, KVPaged, evict), db)
		if err != nil {
			t.Fatal(err)
		}
		if a.Table() != b.Table() {
			t.Errorf("%s: same seed produced different reports:\n%s\nvs\n%s", evict, a.Table(), b.Table())
		}
	}
}

// TestPagedReserveGoldenPath: an LLM tenant with NO explicit KVPolicy
// must run the reserve backend and leave every extended KVStats field
// zero — the gate that keeps legacy scenario reports byte-identical.
func TestPagedReserveGoldenPath(t *testing.T) {
	cfg := pagedCfg(1, "", "")
	cfg.Tenants[0].LLM.Trace.Sessions = 0
	cfg.Tenants[0].LLM.Trace.SharedPrefixTokens = 0
	cfg.Tenants[0].LLM.Trace.MaxSessionTokens = 0
	rep, err := Run(cfg, NewCostDB(arch.TPUv4Like()))
	if err != nil {
		t.Fatal(err)
	}
	l := rep.Tenants[0].LLM
	if l.KVPolicy != "" || l.PeakSeqs != 0 || l.Evictions != 0 || l.PrefixLookups != 0 {
		t.Errorf("implicit-reserve tenant leaked extended KV stats: %+v", l.KVStats)
	}
}

// TestPagedValidation pins the config surface: the paged backend
// rejects the batcher shapes whose suspended batches or foreign-slot
// sequences the evictor could not safely invalidate, and eviction
// policy names are checked.
func TestPagedValidation(t *testing.T) {
	bad := func(mut func(*Config), want string) {
		cfg := pagedCfg(1, KVPaged, KVEvictRecompute)
		mut(&cfg)
		if _, err := Run(cfg, nil); err == nil {
			t.Errorf("%s: accepted", want)
		}
	}
	bad(func(c *Config) { c.Tenants[0].LLM.Static = true }, "paged + static batcher")
	bad(func(c *Config) { c.Tenants[0].LLM.KVEvict = "teleport" }, "unknown eviction policy")
	bad(func(c *Config) { c.Tenants[0].LLM.KVPolicy = "virtual" }, "unknown KV policy")
	bad(func(c *Config) { c.Tenants[0].LLM.KVPolicy = "" }, "eviction policy without paged backend")
}

// TestPagedEvictsLRUColdLeaf pins the eviction order on one replica's
// cache, driven only through the ledger's admit and release and the
// cache's ensureFree. Three
// session chains seal under a shared prefix A (leaves S1, S2, S3) and
// one more chain P seals at the root. Then a live sequence pins P, a
// second sequence pins A→S1 and leaves without sealing, and a second
// turn of session 2 seals A→S2 again, which leaves A older than its
// child S2. Each ensureFree call then reclaims exactly one 2-block
// node, and the victims must go S3, S1, S2, A: the least recently
// touched cold leaf first, whether a pin or a seal touched it last;
// the pinned P never; and A only after its children.
func TestPagedEvictsLRUColdLeaf(t *testing.T) {
	f, err := newFleet(pagedCfg(1, KVPaged, KVEvictRecompute), NewCostDB(arch.TPUv4Like()))
	if err != nil {
		t.Fatal(err)
	}
	a := f.tenants[0].replicas[0].kv
	p := a.paged
	segA := workload.PrefixSeg{Key: 100, Tokens: 32}
	segP := workload.PrefixSeg{Key: 50, Tokens: 32}
	sess := func(key uint64) workload.PrefixSeg { return workload.PrefixSeg{Key: key, Tokens: 32} }
	admit := func(prompt int, sealKey uint64, prefix ...workload.PrefixSeg) *llmSeq {
		s := &llmSeq{req: request{prompt: prompt, output: 4, prefix: prefix, sealKey: sealKey}, ctx: prompt}
		if !a.admit(s, 0) {
			t.Fatalf("admission of a %d-token prompt refused", prompt)
		}
		return s
	}
	for _, key := range []uint64{1, 2, 3} {
		a.release(admit(64, key, segA), 0)
	}
	a.release(admit(32, segP.Key), 0)
	pinned := admit(48, 0, segP)
	a.release(admit(80, 0, segA, sess(1)), 0)
	a.release(admit(64, 2, segA), 0)

	// resident names the cache nodes whose whole chain still matches.
	chains := []struct {
		name  string
		chain []workload.PrefixSeg
	}{
		{"A", []workload.PrefixSeg{segA}},
		{"S1", []workload.PrefixSeg{segA, sess(1)}},
		{"S2", []workload.PrefixSeg{segA, sess(2)}},
		{"S3", []workload.PrefixSeg{segA, sess(3)}},
		{"P", []workload.PrefixSeg{segP}},
	}
	resident := func() map[string]bool {
		set := map[string]bool{}
		for _, c := range chains {
			if _, tok, _ := p.matchPrefix(request{prefix: c.chain}); tok == 32*len(c.chain) {
				set[c.name] = true
			}
		}
		return set
	}
	if got := resident(); len(got) != len(chains) {
		t.Fatalf("after sealing, resident nodes %v, want all of A S1 S2 S3 P", got)
	}
	var order []string
	for p.cold > 0 {
		before := resident()
		p.ensureFree(p.freeBlocks()+1, 0)
		after := resident()
		for name := range before {
			if !after[name] {
				order = append(order, name)
			}
		}
	}
	if want := []string{"S3", "S1", "S2", "A"}; !slices.Equal(order, want) {
		t.Errorf("eviction order %v, want %v", order, want)
	}
	if !resident()["P"] {
		t.Error("the pinned node P was evicted")
	}
	a.release(pinned, 0)
	if p.cold != 2 || a.usedBlocks != 2 || a.curSeqs != 0 {
		t.Errorf("after the pin drops: %d cold blocks, %d used, %d resident, want 2, 2 (P alone) and 0", p.cold, a.usedBlocks, a.curSeqs)
	}
}

// TestPagedServeAllocBudget locks in the allocation-free paged serve
// loop. It runs pagedCfg at 20 and 40 simulated seconds under each
// eviction policy, each after a warm-up run that fills the CostDB: the
// per-run costs (fleet, replicas, report) cancel in the difference,
// which must stay at most 4 allocations per extra arrival. Each arrival costs its llmSeq and a
// share of the recorders' and the session trace's growth; an
// allocation per decode iteration, per cache node or per event would
// cost several times that.
func TestPagedServeAllocBudget(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	for _, evict := range []string{KVEvictRecompute, KVEvictSwap} {
		run := func(sec float64) (allocs float64, arrivals int) {
			cfg := pagedCfg(1, KVPaged, evict)
			cfg.DurationSec = sec
			// AllocsPerRun's warm-up run measures every CostDB entry
			// the measured run reads.
			allocs = testing.AllocsPerRun(1, func() {
				rep, err := Run(cfg, db)
				if err != nil {
					t.Fatal(err)
				}
				arrivals = rep.Tenants[0].Arrivals
			})
			return allocs, arrivals
		}
		a20, n20 := run(20)
		a40, n40 := run(40)
		if n40 <= n20 {
			t.Fatalf("%s: %d arrivals at 40 s, %d at 20 s", evict, n40, n20)
		}
		per := (a40 - a20) / float64(n40-n20)
		t.Logf("%s: %.0f allocs / %d arrivals at 20 s, %.0f / %d at 40 s: %.2f per extra arrival",
			evict, a20, n20, a40, n40, per)
		if per > 4 {
			t.Errorf("%s: %.2f allocations per extra arrival, want ≤ 4 (per-iteration allocation in the paged loop?)", evict, per)
		}
	}
}

// FuzzPagedKV decodes its arguments into a variant of pagedCfg and runs
// it to drain. Each bound is an offset from the one below it (prompt
// and output min, mean, max; the session cap above the smallest one
// Validate accepts, the shared prefix plus the worst turn and output;
// the KV partition above the session cap), so most inputs decode to a
// config newFleet accepts. newFleet may still reject one; otherwise
// every replica must pass checkPagedDrained, every arrival must be
// rejected or completed, and the attribution ledger must balance.
func FuzzPagedKV(f *testing.F) {
	db := NewCostDB(arch.TPUv4Like())
	f.Fuzz(func(t *testing.T, seed uint64, swap bool, maxBatch, sessions, shared uint8,
		promptMin, promptMean, promptMax, outputMin, outputMean, outputMax uint8,
		sessionSlack, capSlack uint16, tenthsSec uint8) {
		evict := KVEvictRecompute
		if swap {
			evict = KVEvictSwap
		}
		cfg := pagedCfg(seed, KVPaged, evict)
		cfg.DurationSec = float64(1+tenthsSec%40) / 10
		cfg.Obs = &ObsConfig{Attrib: true}
		tc := &cfg.Tenants[0]
		tc.MaxBatch = 1 + int(maxBatch%16)
		tr := &tc.LLM.Trace
		tr.Sessions = 1 + int(sessions%16)
		tr.SharedPrefixTokens = int(shared)
		tr.PromptMin = 1 + int(promptMin)
		tr.PromptMean = tr.PromptMin + int(promptMean)
		tr.PromptMax = tr.PromptMean + int(promptMax)
		tr.OutputMin = 1 + int(outputMin%64)
		tr.OutputMean = tr.OutputMin + int(outputMean%64)
		tr.OutputMax = tr.OutputMean + int(outputMax%64)
		tr.MaxSessionTokens = tr.SharedPrefixTokens + tr.PromptMax + tr.OutputMax + int(sessionSlack%2048)
		tc.LLM.KVCapTokens = tr.MaxSessionTokens + int(capSlack%4096)

		fl, err := newFleet(cfg, db)
		if err != nil {
			return
		}
		ten := fl.tenants[0]
		fl.scheduleArrival(ten)
		fl.eng.Run()
		if fl.costErr != nil {
			t.Fatalf("run stopped on a costing error: %v", fl.costErr)
		}
		for _, r := range ten.replicas {
			checkPagedDrained(t, fmt.Sprintf("replica %d", r.id), r.kv.paged)
		}
		if ten.arrivals != ten.rejected+ten.completed {
			t.Errorf("%d arrivals ≠ %d rejected + %d completed", ten.arrivals, ten.rejected, ten.completed)
		}
		verifyLedger(t, "fuzz", fl.report())
	})
}
