package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"neu10/internal/arch"
)

// fuzzBytes hands out a fuzz input a byte at a time; it reads 0 once
// the input runs out, and a 0 keeps the base config's field.
type fuzzBytes []byte

func (in *fuzzBytes) next() int {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int(b)
}

// frac reads a byte as a fraction in [0, 1].
func (in *fuzzBytes) frac() float64 { return float64(in.next()) / 255 }

// fuzzServeConfig decodes a fuzz input into a serving config of at most
// two simulated seconds. The first byte picks a base test config (mod 7)
// and its variant (the quotient's bits: static batching, swap eviction
// or preemption; then the reserve KV policy), the second its seed. The
// bytes after perturb, in order, the duration (up to 4× the base's, so
// cheap models stay cheap to simulate), the autoscaler, the link
// bandwidth, each tenant (load, batch, queue, replicas, EUs, arrival,
// KV capacity, disaggregation), the fault plan and the recovery config.
// Every collector is on. Some bits are read and ignored: the chaos
// variant's low bit, the fault-plan byte's low bit and an arrival
// byte's upper bits. Skipping them would shift every later field of
// the committed seeds.
func fuzzServeConfig(data []byte) Config {
	in := fuzzBytes(data)
	base, seed := in.next(), uint64(in.next())
	variant := base / 7
	var cfg Config
	switch base % 7 {
	case 0:
		cfg = fastConfig(seed)
	case 1:
		cfg = llmConfig(seed, variant&1 != 0)
	case 2:
		cfg = disaggConfig(seed, 64, 0)
	case 3:
		cfg = chaosConfig(seed, chaosFaults(),
			&RecoveryConfig{WarmSpares: 1, EmergencySpawn: true, Evacuate: true})
	case 4:
		policy, evict := KVPaged, KVEvictRecompute
		if variant&1 != 0 {
			evict = KVEvictSwap
		}
		if variant&2 != 0 {
			policy, evict = KVReserve, ""
		}
		cfg = pagedCfg(seed, policy, evict)
	case 5:
		cfg = priorityConfig(seed, variant&1 != 0)
	case 6:
		cfg = sharedPoolConfig(seed)
	}
	if b := in.next(); b > 0 {
		cfg.DurationSec *= float64(b) / 64
	}
	cfg.DurationSec = min(cfg.DurationSec, 2)
	if b := in.next(); b > 0 {
		cfg.Autoscale = b&1 != 0
		cfg.ScaleEverySec = float64(1+b>>1) / 200
	}
	if b := in.next(); b > 0 {
		cfg.LinkGBps = []float64{0.25, 2, 16, 64, 512}[b%5]
	}
	for i := range cfg.Tenants {
		tc := &cfg.Tenants[i]
		if b := in.next(); b > 0 {
			scale := float64(b) / 64
			tc.Load *= scale
			tc.RatePerSec *= scale
		}
		if b := in.next(); b > 0 {
			tc.MaxBatch = 1 + b%16
		}
		if b := in.next(); b > 0 {
			tc.QueueCap = 1 + b%64
		}
		if b := in.next(); b > 0 {
			tc.InitialReplicas = 1 + b%3
			tc.MaxReplicas = tc.InitialReplicas + b>>2%3
		}
		if b := in.next(); b > 0 {
			tc.EUs = 2 + 2*(b%3)
		}
		if b := in.next(); b > 0 {
			tc.Arrival = ArrivalKind(b % 3)
		}
		llm := tc.LLM
		if llm == nil {
			continue
		}
		if b := in.next(); b > 0 {
			llm.KVCapTokens = 64 * b
		}
		if b := in.next(); b&1 != 0 {
			llm.Disagg = nil
		} else if b > 0 {
			llm.Disagg = &DisaggConfig{
				PrefillReplicas: 1 + b>>1%2, DecodeReplicas: 1 + b>>2%2,
				ChunkTokens: []int{0, 16, 64, 256}[b>>3%4],
			}
			llm.Disagg.MaxPrefill = llm.Disagg.PrefillReplicas + b>>5%2
			llm.Disagg.MaxDecode = llm.Disagg.DecodeReplicas + b>>6%3
		}
	}
	if b := in.next(); b > 0 {
		plan := &FaultPlan{}
		for n := 1 + b>>1%4; n > 0; n-- {
			e := FaultEvent{Kind: FaultKind(in.next() % 3), AtFrac: in.frac()}
			e.Tenant = cfg.Tenants[in.next()%len(cfg.Tenants)].Name
			e.Role = Role(in.next() % 3)
			mask := in.next()
			for c := 0; c < cfg.Cores; c++ {
				if mask&(1<<c) != 0 {
					e.Chips = append(e.Chips, c)
				}
			}
			if len(e.Chips) == 0 {
				e.Chips = []int{0}
			}
			e.Scale = []float64{1.0 / 64, 1.0 / 16, 0.5, 1, 2}[in.next()%5]
			e.UntilFrac = min(1, e.AtFrac+in.frac())
			plan.Events = append(plan.Events, e)
		}
		cfg.Faults = plan
	}
	if b := in.next(); b&1 != 0 {
		cfg.Recover = nil
	} else if b > 0 {
		cfg.Recover = &RecoveryConfig{WarmSpares: b >> 1 % 3, EmergencySpawn: b&8 != 0, Evacuate: b&16 != 0}
	}
	cfg.Obs = &ObsConfig{Trace: true, Timelines: true, Attrib: true}
	return cfg
}

// FuzzServe runs decoded serving configs end to end. Run must return an
// error, or a run that conserves everything it tracks: the ledger
// closes every request exactly, each tenant's arrivals are rejected,
// completed or crash-lost, every migration and evacuation landed or
// aborted, every surviving replica drained, and a second run reports
// the same JSON.
func FuzzServe(f *testing.F) {
	db := NewCostDB(arch.TPUv4Like())
	f.Fuzz(func(t *testing.T, data []byte) {
		fl, err := simulate(fuzzServeConfig(data), db)
		if err != nil {
			return
		}
		rep := fl.report()
		verifyLedger(t, "fuzz", rep)
		for _, tr := range rep.Tenants {
			if got := tr.Rejected + tr.Completed + tr.CrashLost; tr.Arrivals != got {
				t.Errorf("tenant %s: %d arrivals ≠ %d rejected + %d completed + %d lost",
					tr.Name, tr.Arrivals, tr.Rejected, tr.Completed, tr.CrashLost)
			}
		}
		for _, ten := range fl.tenants {
			l := ten.llm
			if l == nil {
				continue
			}
			if l.migrations != l.migLanded+l.migAborted {
				t.Errorf("tenant %s: %d migrations ≠ %d landed + %d aborted", ten.cfg.Name, l.migrations, l.migLanded, l.migAborted)
			}
			if l.evacStarted != l.evacLanded+l.evacAborted {
				t.Errorf("tenant %s: %d evacuations ≠ %d landed + %d aborted", ten.cfg.Name, l.evacStarted, l.evacLanded, l.evacAborted)
			}
			if len(l.migQ) != 0 || len(l.migInflight) != 0 {
				t.Errorf("tenant %s: %d parked and %d in-flight migrations after drain", ten.cfg.Name, len(l.migQ), len(l.migInflight))
			}
		}
		checkDrained(t, fl)
		first, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("report JSON: %v", err)
		}
		again, err := Run(fuzzServeConfig(data), db)
		if err != nil {
			t.Fatalf("second run: %v", err)
		}
		if second, err := json.Marshal(again); err != nil || !bytes.Equal(first, second) {
			t.Fatalf("second run's report differs (error %v)", err)
		}
	})
}
