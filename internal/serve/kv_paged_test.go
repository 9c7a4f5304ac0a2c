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

// TestPagedDrainInvariants runs the paged backend to a full drain under
// both eviction policies across several seeds and checks the backend's
// documented invariants directly on its internal state:
//
//   - no sequence left swapped or in flight once the event queue drains;
//   - every cache node unpinned (refs == 0) with refs never having gone
//     negative (unpin panics otherwise, so completion certifies it);
//   - block conservation: each node's owned blocks match the span
//     arithmetic, the cold counter equals their sum, and — with no live
//     sequences — the ledger's used equals cold exactly (all residency
//     is cache, zero private blocks leak);
//   - report-level conservation: arrivals = rejected + completed, peak
//     occupancy in (0, 1], and at least one admission hit the cache.
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
					p := r.kv.paged
					if p == nil {
						t.Fatalf("seed %d/%s: replica runs without the paged policy", seed, evict)
					}
					if len(p.swapQ) != 0 || len(p.flights) != 0 {
						t.Errorf("seed %d/%s: %d swapped seqs and %d transfers survive the drain",
							seed, evict, len(p.swapQ), len(p.flights))
					}
					sum := 0
					for _, n := range p.nodes {
						if n.refs != 0 {
							t.Errorf("seed %d/%s: cache node key=%d still pinned (refs %d) after drain",
								seed, evict, n.key, n.refs)
						}
						if want := nodeBlocks(n); n.blocks != want {
							t.Errorf("seed %d/%s: node key=%d owns %d blocks, span arithmetic says %d",
								seed, evict, n.key, n.blocks, want)
						}
						sum += n.blocks
					}
					if p.cold != sum {
						t.Errorf("seed %d/%s: cold counter %d ≠ Σ unpinned node blocks %d",
							seed, evict, p.cold, sum)
					}
					if p.a.usedBlocks != p.cold {
						t.Errorf("seed %d/%s: %d blocks used but only %d are cache — private blocks leaked",
							seed, evict, p.a.usedBlocks, p.cold)
					}
					if p.a.curSeqs != 0 {
						t.Errorf("seed %d/%s: %d sequences still resident after drain", seed, evict, p.a.curSeqs)
					}
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
// request open, and every survivor holds no live sequence and only
// cold cache blocks.
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
					p := r.kv.paged
					if len(p.swapQ) != 0 || len(p.flights) != 0 {
						t.Errorf("%s: replica %d keeps %d swapped seqs and %d transfers after drain",
							label, r.id, len(p.swapQ), len(p.flights))
					}
					if p.a.curSeqs != 0 {
						t.Errorf("%s: replica %d has %d resident sequences after drain", label, r.id, p.a.curSeqs)
					}
					if p.a.usedBlocks != p.cold {
						t.Errorf("%s: replica %d uses %d blocks but only %d are cold cache",
							label, r.id, p.a.usedBlocks, p.cold)
					}
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
