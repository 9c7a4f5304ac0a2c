package model

import "testing"

// TestLLMPhaseGraphsValid: both phase builders must produce graphs that
// pass the same validation the registry models do, across the bucketed
// shapes the serving layer asks for.
func TestLLMPhaseGraphsValid(t *testing.T) {
	for _, batch := range []int{1, 4, 16} {
		for _, seq := range []int{16, 256, 1024} {
			if err := LLMPrefillChunk(batch, seq, 0).Validate(); err != nil {
				t.Errorf("prefill(%d, %d): %v", batch, seq, err)
			}
			if err := LLMDecode(batch, seq).Validate(); err != nil {
				t.Errorf("decode(%d, %d): %v", batch, seq, err)
			}
		}
	}
}

// TestLLMPhaseAsymmetry pins the prefill/decode split the serving layer
// builds on: prefill is compute-heavy (ME-leaning, work scaling with
// prompt length), decode is memory-bound (MEs mostly idle, like the
// registry LLaMA it mirrors).
func TestLLMPhaseAsymmetry(t *testing.T) {
	pre := cm().ProfileGraph(LLMPrefillChunk(8, 256, 0))
	dec := cm().ProfileGraph(LLMDecode(8, 256))
	if pre.M <= dec.M {
		t.Errorf("prefill m=%.3f not more ME-intensive than decode m=%.3f", pre.M, dec.M)
	}
	if dec.M > 0.5 {
		t.Errorf("decode m=%.3f; a single-token step should leave MEs mostly idle", dec.M)
	}
	if pre.TotalCycles <= dec.TotalCycles {
		t.Errorf("prefill of 256 tokens (%v cycles) not costlier than one decode step (%v cycles)",
			pre.TotalCycles, dec.TotalCycles)
	}
	// Prefill work grows with the prompt.
	long := cm().ProfileGraph(LLMPrefillChunk(8, 512, 0))
	if long.TotalCycles <= pre.TotalCycles {
		t.Errorf("prefill cycles did not grow with prompt length: %v vs %v",
			long.TotalCycles, pre.TotalCycles)
	}
}

// TestLLMAccountingConstants: the KV/weight constants the serving
// layer's memory partitioning uses must match the architecture the
// graphs encode.
func TestLLMAccountingConstants(t *testing.T) {
	// 13B-class parameter count (the LLaMA2-13B case study).
	if p := LLMParams(); p < 12e9 || p > 14e9 {
		t.Errorf("LLM parameter count %d outside the 13B class", p)
	}
	if LLMWeightBytes() != 2*LLMParams() {
		t.Errorf("weights %d not bf16 (2 bytes/param)", LLMWeightBytes())
	}
	// K+V per token per layer, bf16: 2 · layers · hidden · 2.
	if got, want := LLMKVBytesPerToken(), int64(2*40*5120*2); got != want {
		t.Errorf("KV bytes/token %d, want %d", got, want)
	}
	// One decoded token's cache must be tiny next to the weights — the
	// premise that makes KV capacity a count of thousands of tokens.
	if LLMKVBytesPerToken()*1000 > LLMWeightBytes() {
		t.Error("1k tokens of KV outweigh the model — accounting constants implausible")
	}
}
