package model

import "neu10/internal/compiler"

// Phase-split LLM graphs for autoregressive serving (internal/serve's
// continuous batcher). The registered "LLaMA" model is the §V-F case
// study — a fixed 8-step batched decode run, right for figure sweeps
// but useless for serving, where every iteration's composition changes.
// Serving instead prices the two phases separately:
//
//   - LLMPrefillChunk(batch, chunk, ctx): process `chunk` prompt tokens
//     per sequence in one forward pass behind `ctx` cached ones (0 for a
//     whole prompt) — the compute-bound phase (big GEMMs, quadratic
//     attention) that also emits each sequence's first token.
//   - LLMDecode(batch, ctx): one decode iteration — a single token per
//     sequence attending over `ctx` cached tokens. GEMV-shaped matmuls
//     stream the full weight matrices for tiny M: the HBM-bound phase
//     whose per-token cost is what continuous batching amortizes.
//
// Both use the LLaMA2-13B dimensions of the registry model, so the
// serving layer, the §V-F collocation figures and the KV accounting
// (LLMWeightBytes / LLMKVBytesPerToken) all describe one model.
const (
	llmLayers = 40
	llmHidden = 5120
	llmFFN    = 13824
	llmHeads  = 40
	llmVocab  = 32000
)

// LLMParams returns the parameter count of the serving LLM.
func LLMParams() int64 {
	return int64(llmLayers)*(4*int64(llmHidden)*int64(llmHidden)+3*int64(llmHidden)*int64(llmFFN)) +
		2*int64(llmVocab)*int64(llmHidden)
}

// LLMWeightBytes returns the resident weight bytes of the serving LLM
// (bf16, matching the registry LLaMA's footprint convention). This is
// what a serving replica subtracts from its §III HBM partition before
// carving the remainder into KV-cache blocks.
func LLMWeightBytes() int64 { return LLMParams() * 2 }

// LLMKVBytesPerToken returns the KV-cache bytes one token of one
// sequence pins: K and V vectors across all layers, bf16.
func LLMKVBytesPerToken() int64 { return 2 * int64(llmLayers) * int64(llmHidden) * 2 }

// LLMKVTransferBytes returns the payload a KV migration of `tokens`
// resident tokens ships over the chip-to-chip interconnect — the full
// per-layer K/V pages a disaggregated decode replica needs before it
// can take the sequence's first decode iteration.
func LLMKVTransferBytes(tokens int) int64 {
	if tokens <= 0 {
		return 0
	}
	return int64(tokens) * LLMKVBytesPerToken()
}

// LLMPrefillChunk builds one chunked-prefill step: `chunk` new tokens
// per sequence pushed through every layer while attending over `ctx`
// ALREADY-CACHED tokens plus the chunk itself. The GEMMs scale with
// the chunk alone (that is what chunking buys), but attention scales
// with chunk × (ctx + chunk): a late chunk of a long prompt pays for
// the whole context behind it, exactly the work a constant per-chunk
// price would hide. LLMPrefillChunk(b, p, 0) is a whole-prompt
// prefill: p tokens per sequence plus the last position's logits (the
// first emitted token), with the weights streamed once for the batch.
func LLMPrefillChunk(batch, chunk, ctx int) *compiler.Graph {
	b := newBuilder("LLaMA-prefill", batch)
	headDim := llmHidden / llmHeads
	tokens := batch * chunk
	span := ctx + chunk

	for b.pass() {
		for l := 0; l < llmLayers; l++ {
			b.matmul(layerName("qkv", l), tokens, llmHidden, 3*llmHidden, false)
			b.actMatmul(layerName("scores", l), batch*llmHeads*chunk, headDim, span, false)
			b.vec(layerName("softmax", l), compiler.Softmax, int64(batch)*int64(llmHeads)*int64(chunk)*int64(span), 4)
			b.actMatmul(layerName("ctx", l), batch*llmHeads*chunk, span, headDim, false)
			b.matmul(layerName("o-proj", l), tokens, llmHidden, llmHidden, false)
			b.vec(layerName("rmsnorm1", l), compiler.LayerNorm, int64(tokens)*llmHidden, 3)
			b.matmul(layerName("gate-up", l), tokens, llmHidden, 2*llmFFN, true) // fused SiLU
			b.matmul(layerName("ffn-down", l), tokens, llmFFN, llmHidden, false)
			b.vec(layerName("rmsnorm2", l), compiler.LayerNorm, int64(tokens)*llmHidden, 3)
		}
		// Only the final position needs logits; intermediate chunks carry
		// the (small) lm-head too, pricing the conservative side.
		b.matmul("lm-head", batch, llmHidden, llmVocab, false)
	}

	kv := int64(batch) * int64(span) * LLMKVBytesPerToken()
	return b.finish(LLMWeightBytes() + kv)
}

// LLMDecode builds one decode iteration: a single new token per
// sequence, attending over `ctx` cached tokens. Identical in structure
// to the registry LLaMA's inner step, but parameterized on context so
// the serving layer can price growing sequences into bucketed costs.
func LLMDecode(batch, ctx int) *compiler.Graph {
	b := newBuilder("LLaMA-decode", batch)
	headDim := llmHidden / llmHeads

	for b.pass() {
		for l := 0; l < llmLayers; l++ {
			b.matmul(layerName("qkv", l), batch, llmHidden, 3*llmHidden, false)
			b.actMatmul(layerName("scores", l), batch*llmHeads, headDim, ctx, false)
			b.vec(layerName("softmax", l), compiler.Softmax, int64(batch)*int64(llmHeads)*int64(ctx), 4)
			b.actMatmul(layerName("ctx", l), batch*llmHeads, ctx, headDim, false)
			b.matmul(layerName("o-proj", l), batch, llmHidden, llmHidden, false)
			b.vec(layerName("rmsnorm1", l), compiler.LayerNorm, int64(batch)*llmHidden, 3)
			b.matmul(layerName("gate-up", l), batch, llmHidden, 2*llmFFN, true) // fused SiLU
			b.matmul(layerName("ffn-down", l), batch, llmFFN, llmHidden, false)
			b.vec(layerName("rmsnorm2", l), compiler.LayerNorm, int64(batch)*llmHidden, 3)
		}
		b.matmul("lm-head", batch, llmHidden, llmVocab, false)
	}

	kv := int64(batch) * int64(ctx+1) * LLMKVBytesPerToken()
	return b.finish(LLMWeightBytes() + kv)
}
