package model

import (
	"testing"

	"neu10/internal/compiler"
)

// TestLLMPhaseGraphsValid: both phase builders must produce graphs that
// pass the same validation the registry models do, across the bucketed
// shapes the serving layer asks for.
func TestLLMPhaseGraphsValid(t *testing.T) {
	for _, batch := range []int{1, 4, 16} {
		for _, seq := range []int{16, 256, 1024} {
			if err := LLMPrefillChunk(batch, seq, 0, LLMLayers).Validate(); err != nil {
				t.Errorf("prefill(%d, %d): %v", batch, seq, err)
			}
			if err := LLMDecode(batch, seq, LLMLayers).Validate(); err != nil {
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
	pre := cm().ProfileGraph(LLMPrefillChunk(8, 256, 0, LLMLayers))
	dec := cm().ProfileGraph(LLMDecode(8, 256, LLMLayers))
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
	long := cm().ProfileGraph(LLMPrefillChunk(8, 512, 0, LLMLayers))
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

// TestOneLayerBuildsExpand: every LLM builder's one-layer build, read
// through LLMOrder once per step, is its LLMLayers-deep build op for op
// in every field but the name, with the same Model, BatchSize and
// HBMFootprint, and LLMRepeats counts how often each of its ops occurs
// in that expansion.
func TestOneLayerBuildsExpand(t *testing.T) {
	type pair struct {
		full, one *compiler.Graph
		steps     int
	}
	var pairs []pair
	for _, s := range goldenLLMShapes {
		pairs = append(pairs,
			pair{LLMPrefillChunk(s[0], s[1], s[2], LLMLayers), LLMPrefillChunk(s[0], s[1], s[2], 1), 1},
			pair{LLMDecode(s[0], s[1]+s[2], LLMLayers), LLMDecode(s[0], s[1]+s[2], 1), 1})
	}
	for _, batch := range []int{1, 8, 64} {
		pairs = append(pairs, pair{LLaMA(batch, LLMLayers), LLaMA(batch, 1), 8})
	}
	order := LLMOrder()
	for _, p := range pairs {
		full, one := p.full, p.one
		if len(full.Ops) != p.steps*len(order) || len(one.Ops) != p.steps*(llmBodyOps+1) ||
			full.Model != one.Model || full.BatchSize != one.BatchSize || full.HBMFootprint != one.HBMFootprint {
			t.Fatalf("%s b%d: %d ops, one layer %d; header %s/%d/%d vs %s/%d/%d", full.Model, full.BatchSize,
				len(full.Ops), len(one.Ops), full.Model, full.BatchSize, full.HBMFootprint,
				one.Model, one.BatchSize, one.HBMFootprint)
		}
		copies := make([]uint64, len(one.Ops))
		for k := range full.Ops {
			i := k/len(order)*(llmBodyOps+1) + int(order[k%len(order)])
			copies[i]++
			a, b := full.Ops[k], one.Ops[i]
			a.Name, b.Name = "", ""
			if a != b {
				t.Errorf("%s b%d: op %d (%s) is %+v, one-layer op %d (%s) %+v", full.Model, full.BatchSize,
					k, full.Ops[k].Name, a, i, one.Ops[i].Name, b)
			}
		}
		for i, n := range copies {
			if n != LLMRepeats(i) {
				t.Errorf("%s b%d: one-layer op %d occurs %d times, LLMRepeats says %d", full.Model, full.BatchSize,
					i, n, LLMRepeats(i))
			}
		}
	}
}
