package workload

import (
	"testing"

	"neu10/internal/sim"
)

// TestLLMTraceDrawBounds: every drawn shape must respect the configured
// bounds, across many draws and seeds.
func TestLLMTraceDrawBounds(t *testing.T) {
	tr := LLMTrace{
		PromptMin: 16, PromptMean: 64, PromptMax: 256,
		OutputMin: 2, OutputMean: 12, OutputMax: 48,
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		rng := sim.NewRNG(seed)
		var promptSum, outSum float64
		const n = 4000
		for i := 0; i < n; i++ {
			r := tr.Draw(rng)
			if r.Prompt < tr.PromptMin || r.Prompt > tr.PromptMax {
				t.Fatalf("prompt %d outside [%d, %d]", r.Prompt, tr.PromptMin, tr.PromptMax)
			}
			if r.Output < tr.OutputMin || r.Output > tr.OutputMax {
				t.Fatalf("output %d outside [%d, %d]", r.Output, tr.OutputMin, tr.OutputMax)
			}
			promptSum += float64(r.Prompt)
			outSum += float64(r.Output)
		}
		// Loose sanity on the means: clamping at max pulls them below the
		// nominal targets, but they should land in the right region.
		if m := promptSum / n; m < float64(tr.PromptMin) || m > float64(tr.PromptMean)*1.5 {
			t.Errorf("seed %d: prompt mean %.1f implausible for target %d", seed, m, tr.PromptMean)
		}
		if m := outSum / n; m < float64(tr.OutputMin) || m > float64(tr.OutputMean)*1.5 {
			t.Errorf("seed %d: output mean %.1f implausible for target %d", seed, m, tr.OutputMean)
		}
	}
}

// TestLLMTraceDrawDeterministic: the same seed must reproduce the exact
// shape sequence, and every draw must consume a fixed number of RNG
// values so downstream consumers stay aligned across configurations.
func TestLLMTraceDrawDeterministic(t *testing.T) {
	tr := LLMTrace{}
	tr.Defaults()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	a, b := sim.NewRNG(7), sim.NewRNG(7)
	for i := 0; i < 1000; i++ {
		if ra, rb := tr.Draw(a), tr.Draw(b); ra.Prompt != rb.Prompt || ra.Output != rb.Output {
			t.Fatalf("draw %d diverged: %+v vs %+v", i, ra, rb)
		}
	}
	// Fixed consumption: after identical draw counts, both streams must
	// be at the same position.
	if a.Uint64() != b.Uint64() {
		t.Error("draws consumed different numbers of RNG values")
	}
}

// TestLLMTraceBimodal pins the long-prompt mixture: draws respect both
// modes' bounds, the long mode appears at roughly its configured
// fraction, consumption stays fixed per draw, and the helper bounds
// (MaxPrompt/MaxTokens/MeanPrompt) cover the mixture.
func TestLLMTraceBimodal(t *testing.T) {
	tr := LLMTrace{
		PromptMin: 16, PromptMean: 32, PromptMax: 64,
		PromptLongFrac: 0.25, PromptLongMin: 128, PromptLongMean: 192, PromptLongMax: 256,
		OutputMin: 2, OutputMean: 8, OutputMax: 16,
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.MaxPrompt() != 256 || tr.MaxTokens() != 256+16 {
		t.Errorf("mixture bounds: MaxPrompt %d, MaxTokens %d", tr.MaxPrompt(), tr.MaxTokens())
	}
	if m := tr.MeanPrompt(); m != 72 { // 0.75×32 + 0.25×192
		t.Errorf("MeanPrompt %d, want 72", m)
	}
	rng := sim.NewRNG(3)
	long := 0
	const n = 4000
	for i := 0; i < n; i++ {
		r := tr.Draw(rng)
		inBase := r.Prompt >= tr.PromptMin && r.Prompt <= tr.PromptMax
		inLong := r.Prompt >= tr.PromptLongMin && r.Prompt <= tr.PromptLongMax
		if !inBase && !inLong {
			t.Fatalf("prompt %d outside both modes", r.Prompt)
		}
		if inLong {
			long++
		}
	}
	if frac := float64(long) / n; frac < 0.2 || frac > 0.3 {
		t.Errorf("long-mode fraction %.3f far from configured 0.25", frac)
	}
	// Fixed consumption with the mixture enabled: both streams align.
	a, b := sim.NewRNG(9), sim.NewRNG(9)
	for i := 0; i < 500; i++ {
		if ra, rb := tr.Draw(a), tr.Draw(b); ra.Prompt != rb.Prompt || ra.Output != rb.Output {
			t.Fatalf("draw %d diverged: %+v vs %+v", i, ra, rb)
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Error("bimodal draws consumed different numbers of RNG values")
	}
	// Malformed mixtures are rejected.
	badFrac := tr
	badFrac.PromptLongFrac = 1.5
	if err := badFrac.Validate(); err == nil {
		t.Error("long fraction 1.5 accepted")
	}
	badMode := tr
	badMode.PromptLongMean = 1000
	if err := badMode.Validate(); err == nil {
		t.Error("long mean beyond long max accepted")
	}
}

// TestLLMTraceValidate rejects malformed bounds.
func TestLLMTraceValidate(t *testing.T) {
	bad := []LLMTrace{
		{PromptMin: 0, PromptMean: 8, PromptMax: 16, OutputMin: 1, OutputMean: 2, OutputMax: 4},
		{PromptMin: 8, PromptMean: 4, PromptMax: 16, OutputMin: 1, OutputMean: 2, OutputMax: 4},
		{PromptMin: 8, PromptMean: 32, PromptMax: 16, OutputMin: 1, OutputMean: 2, OutputMax: 4},
		{PromptMin: 8, PromptMean: 8, PromptMax: 16, OutputMin: 4, OutputMean: 2, OutputMax: 1},
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("case %d: malformed trace %+v accepted", i, tr)
		}
	}
	var tr LLMTrace
	tr.Defaults()
	if err := tr.Validate(); err != nil {
		t.Errorf("defaulted trace rejected: %v", err)
	}
	if tr.MaxTokens() != tr.PromptMax+tr.OutputMax {
		t.Errorf("MaxTokens %d, want %d", tr.MaxTokens(), tr.PromptMax+tr.OutputMax)
	}
}
