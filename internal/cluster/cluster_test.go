package cluster

import (
	"math"
	"testing"

	"neu10/internal/core"
)

func TestChurnRunBasics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 200
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Arrived < 100 {
		t.Fatalf("only %d arrivals over duration 200 at rate 2", st.Arrived)
	}
	if st.Accepted+st.Rejected != st.Arrived {
		t.Fatalf("accounting broken: %d + %d != %d", st.Accepted, st.Rejected, st.Arrived)
	}
	if st.Departed > st.Accepted {
		t.Fatal("more departures than acceptances")
	}
	if st.MeanEUUtil <= 0 || st.MeanEUUtil > 1 {
		t.Fatalf("mean EU utilization %v out of range", st.MeanEUUtil)
	}
	if st.AcceptanceRate() <= 0.3 {
		t.Fatalf("acceptance rate %.2f implausibly low for this load", st.AcceptanceRate())
	}
}

func TestChurnDeterministicBySeed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 100
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	cfg.Seed = 99
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Arrived == c.Arrived && a.Accepted == c.Accepted && a.MeanEUUtil == c.MeanEUUtil {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestChurnLoadIncreasesRejections(t *testing.T) {
	light := DefaultConfig()
	light.Duration = 150
	light.ArrivalRate = 1
	heavy := light
	heavy.ArrivalRate = 12
	ls, err := Run(light)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := Run(heavy)
	if err != nil {
		t.Fatal(err)
	}
	if hs.AcceptanceRate() >= ls.AcceptanceRate() {
		t.Fatalf("12x load acceptance %.2f not below 1x load %.2f",
			hs.AcceptanceRate(), ls.AcceptanceRate())
	}
	if hs.MeanEUUtil <= ls.MeanEUUtil {
		t.Fatal("heavier load did not raise fleet utilization")
	}
}

func TestCompareRunsSameTrace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 150
	cfg.ArrivalRate = 8 // pressure so policies differentiate
	res, err := Compare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d policies compared", len(res))
	}
	g := res[core.GreedyBalance]
	for pol, st := range res {
		if st.Arrived != g.Arrived {
			t.Fatalf("%v saw %d arrivals vs greedy's %d — traces differ", pol, st.Arrived, g.Arrived)
		}
	}
	// The paper's greedy-balance policy should not lose to first-fit on
	// acceptance under pressure (it exists to avoid stranding).
	if g.AcceptanceRate() < res[core.FirstFit].AcceptanceRate()*0.95 {
		t.Errorf("greedy balance acceptance %.3f clearly below first-fit %.3f",
			g.AcceptanceRate(), res[core.FirstFit].AcceptanceRate())
	}
}

// TestBadConfigRejected: every rate, lifetime and duration must be
// positive and finite. A NaN or infinite rate or duration used to spin
// Run forever.
func TestBadConfigRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"0 cores", func(c *Config) { c.Cores = 0 }},
		{"negative arrival rate", func(c *Config) { c.ArrivalRate = -1 }},
		{"NaN arrival rate", func(c *Config) { c.ArrivalRate = nan }},
		{"infinite arrival rate", func(c *Config) { c.ArrivalRate = inf }},
		{"zero lifetime", func(c *Config) { c.MeanLifetime = 0 }},
		{"NaN lifetime", func(c *Config) { c.MeanLifetime = nan }},
		{"infinite lifetime", func(c *Config) { c.MeanLifetime = inf }},
		{"zero duration", func(c *Config) { c.Duration = 0 }},
		{"NaN duration", func(c *Config) { c.Duration = nan }},
		{"infinite duration", func(c *Config) { c.Duration = inf }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.set(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Fatal("config accepted")
			}
		})
	}
}

func TestPlacementPolicyStrings(t *testing.T) {
	if core.GreedyBalance.String() != "greedy-balance" ||
		core.FirstFit.String() != "first-fit" ||
		core.WorstFit.String() != "worst-fit" {
		t.Fatal("policy names wrong")
	}
}
