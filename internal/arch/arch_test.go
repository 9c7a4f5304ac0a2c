package arch

import (
	"math"
	"testing"
)

func TestTPUv4LikeMatchesTableII(t *testing.T) {
	c := TPUv4Like()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.MEs != 4 || c.VEs != 4 {
		t.Error("Table II: 4 MEs & 4 VEs")
	}
	if c.SystolicDim != 128 {
		t.Error("Table II: 128x128 systolic array")
	}
	if c.VELanes != 128 || c.VESublanes != 8 {
		t.Error("Table II: 128x8 FP32/cycle VE")
	}
	if c.FrequencyHz != 1.05e9 {
		t.Error("Table II: 1050 MHz")
	}
	if c.SRAMBytes != 128<<20 {
		t.Error("Table II: 128 MB SRAM")
	}
	if c.HBMBytes != 64<<30 || c.HBMBwBytes != 1200e9 {
		t.Error("Table II: 64 GB HBM at 1200 GB/s")
	}
	if c.MEPreemptCycles != 256 {
		t.Error("§III-G: 256-cycle ME preemption (128 partials + 128 weights)")
	}
}

func TestDerivedRates(t *testing.T) {
	c := TPUv4Like()
	if got := c.MEMACsPerCycle(); got != 128*128 {
		t.Errorf("MACs/cycle = %v", got)
	}
	if got := c.VEOpsPerCycle(); got != 128*8 {
		t.Errorf("VE ops/cycle = %v", got)
	}
	want := 1200e9 / 1.05e9
	if got := c.HBMBytesPerCycle(); math.Abs(got-want) > 1e-9 {
		t.Errorf("HBM bytes/cycle = %v, want %v", got, want)
	}
}

func TestTimeConversionsRoundTrip(t *testing.T) {
	c := TPUv4Like()
	cycles := uint64(2_100_000_000)
	s := c.CyclesToSeconds(cycles)
	if math.Abs(s-2.0) > 1e-9 {
		t.Errorf("2.1e9 cycles = %v s, want 2", s)
	}
}

func TestWithHelpers(t *testing.T) {
	c := TPUv4Like()
	c2 := c.WithEUs(8, 2)
	if c2.MEs != 8 || c2.VEs != 2 {
		t.Error("WithEUs did not apply")
	}
	if c.MEs != 4 {
		t.Error("WithEUs mutated the receiver")
	}
	c3 := c.WithHBMBandwidth(3e12)
	if c3.HBMBwBytes != 3e12 || c.HBMBwBytes != 1200e9 {
		t.Error("WithHBMBandwidth wrong")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []func(*CoreConfig){
		func(c *CoreConfig) { c.MEs = 0 },
		func(c *CoreConfig) { c.VEs = 100 },
		func(c *CoreConfig) { c.SystolicDim = 2 },
		func(c *CoreConfig) { c.FrequencyHz = 0 },
		func(c *CoreConfig) { c.SRAMBytes = 0 },
		func(c *CoreConfig) { c.HBMBwBytes = -1 },
		func(c *CoreConfig) { c.MEPreemptCycles = -5 },
		func(c *CoreConfig) { c.FrequencyHz = math.NaN() },
		func(c *CoreConfig) { c.FrequencyHz = math.Inf(1) },
		func(c *CoreConfig) { c.HBMBwBytes = math.NaN() },
		func(c *CoreConfig) { c.HBMBwBytes = math.Inf(1) },
	}
	for i, mutate := range cases {
		c := TPUv4Like()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
}
