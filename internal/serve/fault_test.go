package serve

import (
	"encoding/json"
	"testing"

	"neu10/internal/arch"
	"neu10/internal/sim"
	"neu10/internal/workload"
)

// chaosConfig mirrors the serve-chaos scenario: one disaggregated
// LLaMA tenant on 8 pNPUs, autoscaler on, with a mid-trace decode
// crash, a correlated pod outage and a degraded link window.
func chaosConfig(seed uint64, faults *FaultPlan, rec *RecoveryConfig) Config {
	return Config{
		Scenario:    "chaos-test",
		Core:        arch.TPUv4Like(),
		Cores:       8,
		Router:      LeastLoaded,
		DurationSec: 6.0,
		Seed:        seed,
		Autoscale:   true,
		Faults:      faults,
		Recover:     rec,
		Tenants: []TenantConfig{{
			Name: "gen", Model: "LLaMA", RatePerSec: 24, EUs: 4,
			MaxBatch: 4, QueueCap: 64, SLOMs: 2000,
			InitialReplicas: 4, MaxReplicas: 8,
			LLM: &LLMConfig{
				Trace: workload.LLMTrace{
					PromptMin: 16, PromptMean: 32, PromptMax: 64,
					PromptLongFrac: 0.25, PromptLongMin: 128, PromptLongMean: 192, PromptLongMax: 256,
					OutputMin: 6, OutputMean: 12, OutputMax: 24,
				},
				Disagg: &DisaggConfig{
					PrefillReplicas: 2, MaxPrefill: 3,
					DecodeReplicas: 2, MaxDecode: 4,
					ChunkTokens: 64,
				},
			},
		}},
	}
}

func chaosFaults(policy CrashPolicy) *FaultPlan {
	return &FaultPlan{
		Policy: policy,
		Events: []FaultEvent{
			{Kind: FaultCrashReplica, AtFrac: 0.35, Tenant: "gen", Role: RoleDecode},
			{Kind: FaultPodOutage, AtFrac: 0.52, Chips: []int{0, 1}},
			{Kind: FaultLinkDegrade, AtFrac: 0.55, Scale: 1.0 / 16, UntilFrac: 0.72},
		},
	}
}

// runFleet drives a config exactly as Run does but hands back the
// fleet so tests can audit the internal accountants after drain.
func runFleet(t *testing.T, cfg Config, db *CostDB) *fleet {
	t.Helper()
	f, err := newFleet(cfg, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, ten := range f.tenants {
		f.scheduleArrival(ten)
	}
	f.scheduleFaults()
	if f.cfg.Autoscale {
		f.scheduleScale(f.cfg.ScaleEverySec * f.cfg.Core.FrequencyHz)
	}
	f.eng.Run()
	return f
}

// TestCrashConservation extends the KV-conservation property to the
// crash paths: across seeds and both crash policies, with replicas
// dying mid-prefill, mid-transfer and mid-decode, every accountant on
// every surviving replica is back to zero after drain, every request
// is accounted for exactly once (completed, rejected, or crash-lost),
// and every transfer either landed or was aborted — never both, never
// neither. The KV accountants panic on over-free or overcommit, so a
// clean run also certifies no intermediate state went negative.
func TestCrashConservation(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	for _, policy := range []CrashPolicy{CrashReplay, CrashFail} {
		for seed := uint64(1); seed <= 3; seed++ {
			f := runFleet(t, chaosConfig(seed, chaosFaults(policy),
				&RecoveryConfig{WarmSpares: 1, EmergencySpawn: true, Evacuate: true}), db)
			rep := f.report()
			ten := f.tenants[0]
			l, tr := ten.llm, rep.Tenants[0]

			if ten.crashes == 0 {
				t.Fatalf("policy %s seed %d: fault plan crashed nothing", policy, seed)
			}
			if got := tr.Rejected + tr.Completed + tr.CrashLost; tr.Arrivals != got {
				t.Errorf("policy %s seed %d: %d arrivals ≠ %d rejected + %d completed + %d lost",
					policy, seed, tr.Arrivals, tr.Rejected, tr.Completed, tr.CrashLost)
			}
			if l.migrations != l.migLanded+l.migAborted {
				t.Errorf("policy %s seed %d: %d migrations ≠ %d landed + %d aborted",
					policy, seed, l.migrations, l.migLanded, l.migAborted)
			}
			if l.evacStarted != l.evacLanded+l.evacAborted {
				t.Errorf("policy %s seed %d: %d evacuations ≠ %d landed + %d aborted",
					policy, seed, l.evacStarted, l.evacLanded, l.evacAborted)
			}
			if len(l.migQ) != 0 {
				t.Errorf("policy %s seed %d: %d migrations parked after drain", policy, seed, len(l.migQ))
			}
			if len(l.migInflight) != 0 {
				t.Errorf("policy %s seed %d: %d transfers in flight after drain", policy, seed, len(l.migInflight))
			}
			for _, r := range ten.replicas {
				if r.kv.usedBlocks != 0 {
					t.Errorf("policy %s seed %d: %s replica %d holds %d KV blocks after drain",
						policy, seed, r.role, r.id, r.kv.usedBlocks)
				}
				if r.inbound != 0 {
					t.Errorf("policy %s seed %d: replica %d reports %d inbound after drain",
						policy, seed, r.id, r.inbound)
				}
				if n := len(r.queueFor(ten).running); n != 0 {
					t.Errorf("policy %s seed %d: replica %d still runs %d sequences after drain",
						policy, seed, r.id, n)
				}
			}
			switch policy {
			case CrashReplay:
				if tr.Replays == 0 {
					t.Errorf("seed %d: replay policy produced no replays", seed)
				}
				if tr.RecomputeTokens == 0 {
					t.Errorf("seed %d: replays billed no recompute tokens", seed)
				}
			case CrashFail:
				if tr.Replays != 0 {
					t.Errorf("seed %d: fail policy replayed %d mid-generation sequences", seed, tr.Replays)
				}
			}
		}
	}
}

// TestRouterSurvivesTotalCrash is the PR-3 hardening regression under
// the harshest input the fault injector can produce: every replica of
// a PowerOfTwo-routed tenant crashes mid-flight with the autoscaler
// off, so nothing ever comes back. The run must degrade
// deterministically — pre-crash traffic completes, the harvest is
// shed as crash-lost, post-crash arrivals shed at admission — and the
// router must never panic on the empty fleet.
func TestRouterSurvivesTotalCrash(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	cfg := Config{
		Scenario:    "total-crash",
		Core:        arch.TPUv4Like(),
		Cores:       4,
		Router:      PowerOfTwo,
		DurationSec: 2.0,
		Seed:        3,
		Faults: &FaultPlan{Events: []FaultEvent{
			{Kind: FaultPodOutage, AtFrac: 0.5, Chips: []int{0, 1, 2, 3}},
		}},
		Tenants: []TenantConfig{
			{Name: "web", Model: "ENet", Load: 0.5, EUs: 2, MaxBatch: 8,
				InitialReplicas: 2, MaxReplicas: 2},
			{Name: "batch", Model: "TFMR", Load: 0.4, EUs: 4, MaxBatch: 8,
				InitialReplicas: 2, MaxReplicas: 2},
		},
	}
	f := runFleet(t, cfg, db)
	rep := f.report()
	for i, ten := range f.tenants {
		tr := rep.Tenants[i]
		if ten.crashes != 2 {
			t.Errorf("tenant %s: %d crashes, want both replicas dead", tr.Name, ten.crashes)
		}
		if got := ten.activeCount(); got != 0 {
			t.Errorf("tenant %s: %d active replicas after a total outage with no autoscaler", tr.Name, got)
		}
		if tr.Completed == 0 {
			t.Errorf("tenant %s: nothing completed before the outage", tr.Name)
		}
		if tr.Rejected+tr.CrashLost == 0 {
			t.Errorf("tenant %s: post-outage arrivals were neither shed nor lost", tr.Name)
		}
		if got := tr.Rejected + tr.Completed + tr.CrashLost; tr.Arrivals != got {
			t.Errorf("tenant %s: %d arrivals ≠ %d rejected + %d completed + %d lost",
				tr.Name, tr.Arrivals, tr.Rejected, tr.Completed, tr.CrashLost)
		}
	}
}

// TestAutoscalerResurrectsFromZero: a fleet crashed to zero must come
// back to MinReplicas at the next control tick even though the
// observation window is empty — an empty window reads as idle calm,
// and before the resurrection floor the ladder would have parked the
// tenant at zero replicas forever (the idle-decay asymptote is
// MinReplicas, but decay only ever runs on a live fleet).
func TestAutoscalerResurrectsFromZero(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	cfg := Config{
		Scenario:    "resurrect",
		Core:        arch.TPUv4Like(),
		Cores:       4,
		Router:      LeastLoaded,
		DurationSec: 2.0,
		Seed:        3,
		Autoscale:   true,
		Faults: &FaultPlan{Events: []FaultEvent{
			{Kind: FaultPodOutage, AtFrac: 0.5, Chips: []int{0, 1, 2, 3}},
		}},
		Tenants: []TenantConfig{
			{Name: "web", Model: "ENet", Load: 0.5, EUs: 2, MaxBatch: 8,
				MinReplicas: 2, InitialReplicas: 2, MaxReplicas: 3},
		},
	}
	f := runFleet(t, cfg, db)
	ten := f.tenants[0]
	if ten.crashes == 0 {
		t.Fatal("outage crashed nothing")
	}
	if got := ten.activeCount(); got < ten.cfg.MinReplicas {
		t.Errorf("tenant ended with %d active replicas, MinReplicas %d promised", got, ten.cfg.MinReplicas)
	}
	if ten.scaleUps == 0 {
		t.Error("resurrection spawned no replicas")
	}
	if ten.recoveredAt == 0 {
		t.Error("fleet never reported recovery to pre-fault strength")
	}
}

// TestEvacuationRebalances drives the decode-pool evacuation path: a
// decode replica crash leaves its survivor holding long-lived
// mid-generation sequences while the emergency spawn sits empty, so
// the rebalance (retried at the first decode-batch boundary, when the
// in-flight iteration no longer pins the sequences) ships KV across
// the fabric until the load gap closes. Landed evacuations must move
// their sequences' residency with full conservation — the survivor's
// blocks free exactly at landing, and the evacuated sequences finish
// on the target.
func TestEvacuationRebalances(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	cfg := chaosConfig(1, &FaultPlan{Events: []FaultEvent{
		{Kind: FaultCrashReplica, AtFrac: 0.5, Tenant: "gen", Role: RoleDecode},
	}}, &RecoveryConfig{EmergencySpawn: true, Evacuate: true})
	// Long generations keep sequences resident on the survivor far past
	// the crash; a calm arrival rate keeps the migration queue empty, so
	// backfilling the spare through ordinary prefill→decode handoffs
	// loses to evacuation. The fleet is fixed (no autoscaler) so idle
	// decay cannot shrink the decode pool under the fault first.
	cfg.Autoscale = false
	cfg.Tenants[0].RatePerSec = 4
	cfg.Tenants[0].LLM.Trace.OutputMin = 12
	cfg.Tenants[0].LLM.Trace.OutputMean = 24
	cfg.Tenants[0].LLM.Trace.OutputMax = 48
	f := runFleet(t, cfg, db)
	ten := f.tenants[0]
	l := ten.llm
	if l.evacStarted == 0 {
		t.Fatal("decode crash triggered no evacuations")
	}
	if l.evacLanded == 0 {
		t.Error("no evacuation landed")
	}
	if l.evacStarted != l.evacLanded+l.evacAborted {
		t.Errorf("%d evacuations ≠ %d landed + %d aborted", l.evacStarted, l.evacLanded, l.evacAborted)
	}
	if l.evacLanded > 0 && l.evacBytes == 0 {
		t.Error("landed evacuations moved no bytes")
	}
	for _, r := range ten.replicas {
		if r.kv.usedBlocks != 0 || r.inbound != 0 {
			t.Errorf("%s replica %d: %d KV blocks, %d inbound after drain",
				r.role, r.id, r.kv.usedBlocks, r.inbound)
		}
	}
}

// TestCrashAbortsInFlightTransfers drives crashReplicas' transfer-abort
// phase, which no scenario fault plan reaches: a chip dies while a KV
// transfer touching it is on the wire. A slow link keeps transfers in
// flight for tens of milliseconds; a poller inside an engine event
// picks its victims from the live flight registry and crashes them
// through crashReplicas, the entry point a FaultPlan event uses. Each
// case must abort at least one flight of its kind, and after drain
// every flight is landed or aborted, no survivor holds KV or inbound
// reservations, and every arrival is rejected, completed or lost.
func TestCrashAbortsInFlightTransfers(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	flight := func(f *fleet, evac bool) *migFlight {
		for _, fl := range f.tenants[0].llm.migInflight {
			if fl.evac == evac {
				return fl
			}
		}
		return nil
	}
	// loadedDecode picks a decode replica to kill so that a surviving
	// decode replica keeps at least two sequences: the emergency spawn
	// then opens a load gap the rebalance closes by evacuation.
	loadedDecode := func(f *fleet) []*replica {
		ten := f.tenants[0]
		var victim, heavy *replica
		for _, r := range ten.replicas {
			if r.role != RoleDecode || r.draining {
				continue
			}
			if n := len(r.queueFor(ten).running); n >= 2 && heavy == nil {
				heavy = r
			} else if victim == nil {
				victim = r
			}
		}
		if victim == nil || heavy == nil {
			return nil
		}
		return []*replica{victim}
	}
	cases := []struct {
		name  string
		evac  bool
		picks []func(f *fleet) []*replica
	}{
		{"handoff-source", false, []func(f *fleet) []*replica{func(f *fleet) []*replica {
			if fl := flight(f, false); fl != nil {
				return []*replica{fl.src}
			}
			return nil
		}}},
		{"handoff-target", false, []func(f *fleet) []*replica{func(f *fleet) []*replica {
			if fl := flight(f, false); fl != nil {
				return []*replica{fl.dst}
			}
			return nil
		}}},
		{"evacuation-target", true, []func(f *fleet) []*replica{loadedDecode, func(f *fleet) []*replica {
			if fl := flight(f, true); fl != nil {
				return []*replica{fl.dst}
			}
			return nil
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := chaosConfig(1, &FaultPlan{}, &RecoveryConfig{EmergencySpawn: true, Evacuate: true})
			cfg.Autoscale = false
			cfg.LinkGBps = 1
			cfg.Tenants[0].RatePerSec = 4
			cfg.Tenants[0].LLM.Trace.OutputMin = 12
			cfg.Tenants[0].LLM.Trace.OutputMean = 24
			cfg.Tenants[0].LLM.Trace.OutputMax = 48
			f, err := newFleet(cfg, db)
			if err != nil {
				t.Fatal(err)
			}
			f.scheduleArrival(f.tenants[0])
			every := sim.Time(f.cfg.Core.FrequencyHz / 1000) // 1 ms
			picks := tc.picks
			var poll func(now sim.Time)
			poll = func(now sim.Time) {
				if v := picks[0](f); len(v) > 0 {
					f.crashReplicas(v, now)
					if picks = picks[1:]; len(picks) == 0 {
						return
					}
				}
				if float64(now) < f.durCycles {
					f.eng.At(now+every, poll)
				}
			}
			f.eng.At(every, poll)
			f.eng.Run()

			ten := f.tenants[0]
			l := ten.llm
			if len(picks) != 0 {
				t.Fatalf("%d crash stages never found their victims", len(picks))
			}
			if tc.evac && l.evacAborted == 0 {
				t.Errorf("no evacuation aborted (%d started)", l.evacStarted)
			}
			if !tc.evac && l.migAborted == 0 {
				t.Errorf("no handoff aborted (%d started)", l.migrations)
			}
			if l.migrations != l.migLanded+l.migAborted {
				t.Errorf("%d migrations ≠ %d landed + %d aborted", l.migrations, l.migLanded, l.migAborted)
			}
			if l.evacStarted != l.evacLanded+l.evacAborted {
				t.Errorf("%d evacuations ≠ %d landed + %d aborted", l.evacStarted, l.evacLanded, l.evacAborted)
			}
			if len(l.migQ) != 0 || len(l.migInflight) != 0 {
				t.Errorf("%d parked and %d in-flight transfers after drain", len(l.migQ), len(l.migInflight))
			}
			for _, r := range ten.replicas {
				if r.kv.usedBlocks != 0 || r.inbound != 0 {
					t.Errorf("%s replica %d: %d KV blocks, %d inbound after drain", r.role, r.id, r.kv.usedBlocks, r.inbound)
				}
				if n := len(r.queueFor(ten).running); n != 0 {
					t.Errorf("%s replica %d still runs %d sequences after drain", r.role, r.id, n)
				}
			}
			if got := ten.rejected + ten.completed + ten.crashLost; ten.arrivals != got {
				t.Errorf("%d arrivals ≠ %d rejected + %d completed + %d lost",
					ten.arrivals, ten.rejected, ten.completed, ten.crashLost)
			}
		})
	}
}

// TestChaosRecoveryBeatsBaseline is the scenario's headline claim as a
// regression: on the identical trace, recovery (warm spares, emergency
// spawns, evacuation) must strictly beat the bare autoscaler through
// the fault window — higher attainment over post-fault arrivals AND
// lower time-to-recover — with the recompute bill itemized.
func TestChaosRecoveryBeatsBaseline(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	base, err := Run(chaosConfig(1, chaosFaults(CrashReplay), nil), db)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Run(chaosConfig(1, chaosFaults(CrashReplay),
		&RecoveryConfig{WarmSpares: 1, EmergencySpawn: true, Evacuate: true}), db)
	if err != nil {
		t.Fatal(err)
	}
	b, r := base.Tenants[0], rec.Tenants[0]
	if b.Crashes == 0 || r.Crashes == 0 {
		t.Fatalf("fault plan crashed nothing (base %d, recover %d)", b.Crashes, r.Crashes)
	}
	if r.FaultAttainment <= b.FaultAttainment {
		t.Errorf("fault-window attainment %.3f with recovery ≤ %.3f without",
			r.FaultAttainment, b.FaultAttainment)
	}
	if r.TTRMs >= b.TTRMs {
		t.Errorf("time-to-recover %.2fms with recovery ≥ %.2fms without", r.TTRMs, b.TTRMs)
	}
	if !r.Recovered {
		t.Error("recovery never restored pre-fault replica strength")
	}
	if r.EmergencySpawns == 0 {
		t.Error("no emergency spawns despite EmergencySpawn: true")
	}
	if b.RecomputeTokens == 0 {
		t.Error("replayed sequences billed no recompute tokens")
	}
}

// TestChaosDeterminism: the full fault pipeline — crashes, aborted
// transfers, emergency spawns, evacuations — is a pure function of the
// seed: same seed ⇒ byte-identical report, different seed ⇒ different
// trace.
func TestChaosDeterminism(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	rec := &RecoveryConfig{WarmSpares: 1, EmergencySpawn: true, Evacuate: true}
	run := func(seed uint64) []byte {
		rep, err := Run(chaosConfig(seed, chaosFaults(CrashReplay), rec), db)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := run(7), run(7)
	if string(a) != string(b) {
		t.Error("same seed produced different chaos reports")
	}
	if c := run(8); string(a) == string(c) {
		t.Error("different seeds produced identical chaos reports")
	}
}
