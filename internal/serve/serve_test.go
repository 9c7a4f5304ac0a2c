package serve

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"neu10/internal/arch"
)

// fastConfig is a cheap-to-simulate overloadable scenario: MNIST and
// DLRM invocations cost microseconds, so tens of thousands of requests
// simulate in well under a second of wall time.
func fastConfig(seed uint64) Config {
	return Config{
		Scenario:      "test",
		Core:          arch.TPUv4Like(),
		Cores:         3,
		Router:        PowerOfTwo,
		DurationSec:   0.02,
		Seed:          seed,
		Autoscale:     true,
		ScaleEverySec: 0.004,
		Tenants: []TenantConfig{
			{Name: "a", Model: "MNIST", Load: 1.4, EUs: 2, MaxBatch: 4, QueueCap: 8,
				Arrival: Flash, InitialReplicas: 1, MaxReplicas: 3},
			{Name: "b", Model: "DLRM", Load: 0.9, EUs: 2, MaxBatch: 8, QueueCap: 16,
				Arrival: Diurnal, InitialReplicas: 1, MaxReplicas: 2},
		},
	}
}

// TestSameSeedByteIdenticalReport is the serving determinism guard: the
// same seed must reproduce the whole report byte-for-byte, whether the
// cost database is shared, private, or pre-warmed by other runs.
func TestSameSeedByteIdenticalReport(t *testing.T) {
	shared := NewCostDB(arch.TPUv4Like())
	r1, err := Run(fastConfig(7), shared)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(fastConfig(7), shared) // warm shared DB
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Run(fastConfig(7), nil) // private DB
	if err != nil {
		t.Fatal(err)
	}
	if r1.Table() != r2.Table() {
		t.Errorf("same seed, shared cost DB: reports differ\n%s\nvs\n%s", r1.Table(), r2.Table())
	}
	if r1.Table() != r3.Table() {
		t.Errorf("same seed, private cost DB: reports differ\n%s\nvs\n%s", r1.Table(), r3.Table())
	}
	r4, err := Run(fastConfig(8), shared)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Table() == r4.Table() {
		t.Error("different seeds produced identical reports — seed is not wired through")
	}
}

// TestAdmissionNeverExceedsQueueBound is the admission-control property
// test: across routers, seeds and heavy overload, no replica queue may
// ever have held more than QueueCap requests, and every offered request
// must be accounted for as either rejected or completed (the simulation
// drains all admitted work before reporting).
func TestAdmissionNeverExceedsQueueBound(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	for _, router := range []RouterPolicy{LeastLoaded, JSQ, PowerOfTwo} {
		for seed := uint64(1); seed <= 4; seed++ {
			cfg := fastConfig(seed)
			cfg.Router = router
			// Overload hard so admission control actually has to act.
			cfg.Tenants[0].Load = 2.5
			cfg.Tenants[1].Load = 1.8
			rep, err := Run(cfg, db)
			if err != nil {
				t.Fatalf("%s seed %d: %v", router, seed, err)
			}
			for _, tr := range rep.Tenants {
				cap := cfg.Tenants[0].QueueCap
				if tr.Name == "b" {
					cap = cfg.Tenants[1].QueueCap
				}
				if tr.MaxQueue > cap {
					t.Errorf("%s seed %d tenant %s: queue reached %d, cap %d",
						router, seed, tr.Name, tr.MaxQueue, cap)
				}
				if tr.Arrivals != tr.Rejected+tr.Completed {
					t.Errorf("%s seed %d tenant %s: %d arrivals ≠ %d rejected + %d completed",
						router, seed, tr.Name, tr.Arrivals, tr.Rejected, tr.Completed)
				}
				if tr.Rejected == 0 {
					t.Errorf("%s seed %d tenant %s: overload produced no rejections — admission control untested",
						router, seed, tr.Name)
				}
				if tr.SLOAttainment < 0 || tr.SLOAttainment > 1 {
					t.Errorf("%s seed %d tenant %s: attainment %v out of [0,1]",
						router, seed, tr.Name, tr.SLOAttainment)
				}
			}
		}
	}
}

// TestAutoscalerRecoversSLO checks the control loop's direction: under
// the same flash-crowd trace, the autoscaled fleet must beat the fixed
// fleet on SLO attainment for the bursty tenant.
func TestAutoscalerRecoversSLO(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	cfg := fastConfig(3)
	on, err := Run(cfg, db)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Autoscale = false
	off, err := Run(cfg, db)
	if err != nil {
		t.Fatal(err)
	}
	if on.Tenants[0].SLOAttainment <= off.Tenants[0].SLOAttainment {
		t.Errorf("autoscale attainment %.3f did not beat fixed fleet %.3f",
			on.Tenants[0].SLOAttainment, off.Tenants[0].SLOAttainment)
	}
	if on.Tenants[0].ScaleUps+on.Tenants[0].Resizes == 0 {
		t.Error("autoscaled run never scaled — scenario does not exercise the control loop")
	}
}

// TestDrainingNeverDropsAdmittedWork: scale-downs mark replicas draining
// instead of killing them; every admitted request must still complete.
func TestDrainingNeverDropsAdmittedWork(t *testing.T) {
	cfg := fastConfig(5)
	cfg.Tenants[0].Load = 0.3 // calm traffic → the autoscaler scales down
	cfg.Tenants[1].Load = 0.3
	rep, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	downs := 0
	for _, tr := range rep.Tenants {
		downs += tr.ScaleDowns
		if tr.Arrivals != tr.Rejected+tr.Completed {
			t.Errorf("tenant %s: admitted work lost (%d arrivals, %d rejected, %d completed)",
				tr.Name, tr.Arrivals, tr.Rejected, tr.Completed)
		}
	}
	_ = downs // scale-downs are load-dependent; the accounting must hold regardless
}

// TestReportShape sanity-checks table rendering and fleet accounting.
func TestReportShape(t *testing.T) {
	rep, err := Run(fastConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Table()
	for _, want := range []string{"scenario \"test\"", "p99(ms)", "attain", "fleet: EU util"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
	if rep.FleetEUUtil < 0 || rep.FleetEUUtil > 1 {
		t.Errorf("fleet EU util %v out of [0,1]", rep.FleetEUUtil)
	}
	if rep.AllocatedEUFrac < rep.FleetEUUtil-1e-9 {
		t.Errorf("allocated EU fraction %v below busy fraction %v — accounting broken",
			rep.AllocatedEUFrac, rep.FleetEUUtil)
	}
	if rep.MapAccepts == 0 {
		t.Error("no placements recorded")
	}
}

// TestCostDBPureFunction: two databases must measure identical costs,
// and padded batches must share entries.
func TestCostDBPureFunction(t *testing.T) {
	a, b := NewCostDB(arch.TPUv4Like()), NewCostDB(arch.TPUv4Like())
	ca, err := a.cost(fullCost, "MNIST", 5, 0, 0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.cost(fullCost, "MNIST", 8, 0, 0, 2, 2) // same pad bucket as 5
	if err != nil {
		t.Fatal(err)
	}
	if ca != cb {
		t.Errorf("cost not a pure function of the padded key: %v vs %v", ca, cb)
	}
	if _, err := a.cost(fullCost, "no-such-model", 1, 0, 0, 1, 1); err == nil {
		t.Error("unknown model not rejected")
	}
}

// TestArrivalEnvelopes pins the deterministic rate envelopes the thinned
// Poisson streams are drawn against: a 5× flash over [0.35, 0.65) of
// the run, and a diurnal swing between 0.3 and 1.7 of the base rate.
func TestArrivalEnvelopes(t *testing.T) {
	ts := &tenantState{cfg: TenantConfig{Arrival: Flash}}
	for _, c := range []struct{ frac, want float64 }{
		{0.1, 1}, {0.35, 5}, {0.5, 5}, {0.65, 1}, {0.9, 1},
	} {
		if got := ts.rateMult(c.frac*1e6, 1e6); got != c.want {
			t.Errorf("flash at %v of the run: mult %v, want %v", c.frac, got, c.want)
		}
	}
	ts = &tenantState{cfg: TenantConfig{Arrival: Diurnal}}
	lo, hi := 2.0, 0.0
	for i := 0; i <= 100; i++ {
		m := ts.rateMult(float64(i)*1e4, 1e6)
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	if math.Abs(lo-0.3) > 1e-9 || math.Abs(hi-1.7) > 1e-9 {
		t.Errorf("diurnal envelope [%v, %v], want [0.3, 1.7]", lo, hi)
	}
}

// TestMalformedFloatConfigRejected: every float a config carries must be
// finite and in range, or Run returns an error. Comparisons with NaN are
// all false, so a NaN slips past every sign check; left unchecked, some
// of these configs panic inside the engine and others never finish.
// Each case runs under a timeout so a hang fails instead of stalling the
// suite (the hung Run's goroutine is abandoned).
func TestMalformedFloatConfigRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		mod  func(c *Config)
	}{
		{"LinkGBps NaN", func(c *Config) { c.LinkGBps = nan }},
		{"DurationSec +Inf", func(c *Config) { c.DurationSec = inf }},
		{"ScaleEverySec -1", func(c *Config) { c.Autoscale, c.ScaleEverySec = true, -1 }},
		{"ScaleEverySec NaN", func(c *Config) { c.Autoscale, c.ScaleEverySec = true, nan }},
		{"ScaleEverySec under a cycle", func(c *Config) { c.Autoscale, c.ScaleEverySec = true, 1e-12 }},
		{"RatePerSec +Inf", func(c *Config) { c.Tenants[0].RatePerSec = inf }},
		{"Load NaN", func(c *Config) { c.Tenants[0].Load = nan }},
		{"Load -1", func(c *Config) { c.Tenants[0].Load = -1 }},
		{"DiurnalPhase +Inf", func(c *Config) { c.Tenants[0].DiurnalPhase = inf }},
		{"SLOMs NaN", func(c *Config) { c.Tenants[0].SLOMs = nan }},
		{"SLOFactor -1", func(c *Config) { c.Tenants[0].SLOFactor = -1 }},
		{"PromptLongFrac NaN", func(c *Config) { c.Tenants[0].LLM.Trace.PromptLongFrac = nan }},
		{"fault AtFrac NaN", func(c *Config) {
			c.Faults = &FaultPlan{Events: []FaultEvent{{Kind: FaultCrashReplica, Tenant: "gen", AtFrac: nan}}}
		}},
		{"fault Scale +Inf", func(c *Config) {
			c.Faults = &FaultPlan{Events: []FaultEvent{{Kind: FaultLinkDegrade, AtFrac: 0.5, Scale: inf}}}
		}},
		{"fault UntilFrac NaN", func(c *Config) {
			c.Faults = &FaultPlan{Events: []FaultEvent{{Kind: FaultLinkDegrade, AtFrac: 0.5, Scale: 0.5, UntilFrac: nan}}}
		}},
		{"Core.FrequencyHz NaN", func(c *Config) { c.Core.FrequencyHz = nan }},
		{"Core.FrequencyHz +Inf", func(c *Config) { c.Core.FrequencyHz = inf }},
		{"Core.HBMBwBytes NaN", func(c *Config) { c.Core.HBMBwBytes = nan }},
		{"Core.HBMBwBytes +Inf", func(c *Config) { c.Core.HBMBwBytes = inf }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := disaggConfig(1, 64, 0)
			tc.mod(&cfg)
			done := make(chan error, 1)
			go func() {
				defer func() {
					if p := recover(); p != nil {
						done <- fmt.Errorf("panic: %v", p)
					}
				}()
				_, err := Run(cfg, nil)
				if err == nil {
					err = errAccepted
				}
				done <- err
			}()
			select {
			case err := <-done:
				if err == errAccepted || strings.HasPrefix(err.Error(), "panic: ") {
					t.Errorf("Run: %v", err)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("Run did not return within 20s")
			}
		})
	}
}

var errAccepted = errors.New("malformed config accepted")
