package model

import "neu10/internal/compiler"

// The serving LLM, LLaMA2-13B, in three forms that share its
// dimensions: the registry's §V-F case study (LLaMA), a fixed 8-step
// batched decode run, right for figure sweeps but useless for serving,
// where every iteration's composition changes; the two phase graphs
// internal/serve's continuous batcher prices separately; and the
// weight and KV accounting its replicas partition HBM by:
//
//   - LLMPrefillChunk(batch, chunk, ctx, layers): process `chunk` prompt
//     tokens per sequence in one forward pass behind `ctx` cached ones
//     (0 for a whole prompt) — the compute-bound phase (big GEMMs,
//     quadratic attention) that also emits each sequence's first token.
//   - LLMDecode(batch, ctx, layers): one decode iteration — a single
//     token per sequence attending over `ctx` cached tokens. GEMV-shaped
//     matmuls stream the full weight matrices for tiny M: the HBM-bound
//     phase whose per-token cost is what continuous batching amortizes.
//
// Every builder emits forward steps (llmStep): the 9-op layer body
// `layers` times, then the lm-head; at LLMLayers it builds the whole
// model. Serving builds one layer and reads it through LLMOrder
// (pricing) or LLMRepeats (profiling), which give the whole model's
// costs and profile bit for bit. Depth changes only the op list: the
// footprint is the whole model's at any depth, and one layer's weights
// already exceed sramPinThreshold, so no depth pins them in SRAM.
const (
	// LLMLayers is the serving LLM's depth.
	LLMLayers = 40
	llmHidden = 5120
	llmFFN    = 13824
	llmHeads  = 40
	llmVocab  = 32000

	llmBodyOps = 9 // ops of one layer body (llmStep)
)

// LLMParams returns the parameter count of the serving LLM.
func LLMParams() int64 {
	return int64(LLMLayers)*(4*int64(llmHidden)*int64(llmHidden)+3*int64(llmHidden)*int64(llmFFN)) +
		2*int64(llmVocab)*int64(llmHidden)
}

// LLMWeightBytes returns the resident weight bytes of the serving LLM
// (bf16, matching the registry LLaMA's footprint convention). This is
// what a serving replica subtracts from its §III HBM partition before
// carving the remainder into KV-cache blocks.
func LLMWeightBytes() int64 { return LLMParams() * 2 }

// LLMKVBytesPerToken returns the KV-cache bytes one token of one
// sequence pins: K and V vectors across all layers, bf16.
func LLMKVBytesPerToken() int64 { return 2 * int64(LLMLayers) * int64(llmHidden) * 2 }

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

// LLMOrder returns the op order of an LLMLayers-deep LLMPrefillChunk or
// LLMDecode graph over the ops of the same call's one-layer build:
// LLMLayers copies of the layer body (ops 0–8), then the lm-head (op 9).
// The slice is shared; callers must not modify it.
func LLMOrder() []int32 { return llmOrder }

var llmOrder = func() []int32 {
	order := make([]int32, LLMLayers*llmBodyOps+1)
	for k := range order {
		order[k] = int32(k % llmBodyOps)
	}
	order[len(order)-1] = llmBodyOps
	return order
}()

// LLMRepeats returns how many times op i of a one-layer build of any
// builder here occurs in the LLMLayers-deep build: LLMLayers times for
// a layer-body op, once for an lm-head.
func LLMRepeats(i int) uint64 {
	if i%(llmBodyOps+1) < llmBodyOps {
		return LLMLayers
	}
	return 1
}

// LLMPrefillChunk builds one chunked-prefill step: `chunk` new tokens
// per sequence pushed through every layer while attending over `ctx`
// ALREADY-CACHED tokens plus the chunk itself. The GEMMs scale with
// the chunk alone (that is what chunking buys), but attention scales
// with chunk × (ctx + chunk): a late chunk of a long prompt pays for
// the whole context behind it, exactly the work a constant per-chunk
// price would hide. LLMPrefillChunk(b, p, 0, LLMLayers) is a
// whole-prompt prefill: p tokens per sequence plus the last position's
// logits (the first emitted token), with the weights streamed once for
// the batch. Its ops are one llmStep.
func LLMPrefillChunk(batch, chunk, ctx, layers int) *compiler.Graph {
	b := newBuilder("LLaMA-prefill", batch)
	for b.pass() {
		b.llmStep(layers, batch, chunk, ctx+chunk)
	}
	kv := int64(batch) * int64(ctx+chunk) * LLMKVBytesPerToken()
	return b.finish(LLMWeightBytes() + kv)
}

// LLMDecode builds one decode iteration: a single new token per
// sequence, attending over `ctx` cached tokens. It is one step of the
// registry LLaMA, parameterized on context so the serving layer can
// price growing sequences into bucketed costs. Its ops are one llmStep.
func LLMDecode(batch, ctx, layers int) *compiler.Graph {
	b := newBuilder("LLaMA-decode", batch)
	for b.pass() {
		b.llmStep(layers, batch, 1, ctx)
	}
	kv := int64(batch) * int64(ctx+1) * LLMKVBytesPerToken()
	return b.finish(LLMWeightBytes() + kv)
}

// LLaMA builds the §V-F case study: LLaMA2-13B, input sequence 512,
// modeled as a short batched decode run — the memory-bandwidth-bound
// regime the paper collocates with compute-bound models in Fig. 27. Its
// ops are 8 llmSteps, one decode step each at contexts 512–519; the
// registry builds it at LLMLayers. Its footprint charges the KV cache
// of 8 sequences of 520 tokens whatever the batch.
func LLaMA(batch, layers int) *compiler.Graph {
	const ctxLen, decodes = 512, 8
	b := newBuilder("LLaMA", batch)
	for b.pass() {
		for step := 0; step < decodes; step++ {
			b.llmStep(layers, batch, 1, ctxLen+step)
		}
	}
	return b.finish(LLMWeightBytes() + 8*int64(ctxLen+decodes)*LLMKVBytesPerToken())
}

// llmStep emits one forward step: `rows` new tokens per sequence of the
// batch, each attending over span tokens, through `layers` copies of the
// 9-op layer body (qkv, scores, softmax, ctx, o-proj, rmsnorm1,
// gate-up, ffn-down, rmsnorm2), then the lm-head.
func (b *builder) llmStep(layers, batch, rows, span int) {
	const headDim = llmHidden / llmHeads
	tokens := batch * rows
	for l := 0; l < layers; l++ {
		b.matmul(layerName("qkv", l), tokens, llmHidden, 3*llmHidden, false)
		b.actMatmul(layerName("scores", l), batch*llmHeads*rows, headDim, span, false)
		b.vec(layerName("softmax", l), compiler.Softmax, int64(batch)*int64(llmHeads)*int64(rows)*int64(span), 4)
		b.actMatmul(layerName("ctx", l), batch*llmHeads*rows, span, headDim, false)
		b.matmul(layerName("o-proj", l), tokens, llmHidden, llmHidden, false)
		b.vec(layerName("rmsnorm1", l), compiler.LayerNorm, int64(tokens)*llmHidden, 3)
		b.matmul(layerName("gate-up", l), tokens, llmHidden, 2*llmFFN, true) // fused SiLU
		b.matmul(layerName("ffn-down", l), tokens, llmFFN, llmHidden, false)
		b.vec(layerName("rmsnorm2", l), compiler.LayerNorm, int64(tokens)*llmHidden, 3)
	}
	// Only the final position needs logits; intermediate prefill chunks
	// carry the (small) lm-head too, pricing the conservative side.
	b.matmul("lm-head", batch, llmHidden, llmVocab, false)
}
