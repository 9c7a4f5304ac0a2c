package model

import (
	"strconv"

	"neu10/internal/compiler"
)

// BERT builds BERT-large inference (24 layers, hidden 1024, FFN 4096,
// 16 heads, sequence 128). Table I: 1.27 GB at batch 8; Fig. 4 places it
// firmly ME-intensive at batch ≥ 8.
func BERT(batch int) *compiler.Graph {
	const (
		layers = 24
		hidden = 1024
		ffn    = 4096
		heads  = 16
		seq    = 128
	)
	b := newBuilder("BERT", batch)
	tokens := batch * seq
	headDim := hidden / heads

	for b.pass() {
		b.gather("token-embed", int64(tokens), hidden, 1.2)
		b.vec("embed-ln", compiler.LayerNorm, int64(tokens)*hidden, 4)
		for l := 0; l < layers; l++ {
			b.matmul(layerName("qkv-proj", l), tokens, hidden, 3*hidden, false)
			// Attention per head: scores (S×d · d×S) and context (S×S · S×d),
			// batched over batch×heads.
			b.actMatmul(layerName("attn-scores", l), batch*heads*seq, headDim, seq, false)
			b.vec(layerName("attn-softmax", l), compiler.Softmax, int64(batch)*int64(heads)*int64(seq)*int64(seq), 4)
			b.actMatmul(layerName("attn-context", l), batch*heads*seq, seq, headDim, false)
			b.matmul(layerName("attn-out", l), tokens, hidden, hidden, false)
			b.vec(layerName("attn-ln", l), compiler.LayerNorm, int64(tokens)*hidden, 4)
			b.matmul(layerName("ffn-up", l), tokens, hidden, ffn, true) // fused GELU
			b.matmul(layerName("ffn-down", l), tokens, ffn, hidden, false)
			b.vec(layerName("ffn-ln", l), compiler.LayerNorm, int64(tokens)*hidden, 4)
		}
		b.matmul("pooler", batch, hidden, hidden, true)
	}

	weights := int64(layers)*(12*int64(hidden)*int64(hidden)+int64(9)*int64(hidden)) + 31000*int64(hidden)
	acts := int64(tokens) * int64(hidden) * 8
	return b.finish(weights*f32 + acts*f32/2)
}

// Transformer builds a big encoder-decoder translation transformer
// (the MLPerf-style Transformer; Table I: 1.54 GB at batch 8).
func Transformer(batch int) *compiler.Graph {
	const (
		encLayers = 14
		decLayers = 14
		hidden    = 1024
		ffn       = 4096
		heads     = 16
		srcSeq    = 256
		tgtSeq    = 256
	)
	b := newBuilder("TFMR", batch)
	headDim := hidden / heads

	encTok := batch * srcSeq
	decTok := batch * tgtSeq
	for b.pass() {
		b.gather("src-embed", int64(encTok), hidden, 1.2)
		for l := 0; l < encLayers; l++ {
			b.matmul(layerName("enc-qkv", l), encTok, hidden, 3*hidden, false)
			b.actMatmul(layerName("enc-scores", l), batch*heads*srcSeq, headDim, srcSeq, false)
			b.vec(layerName("enc-softmax", l), compiler.Softmax, int64(batch)*int64(heads)*int64(srcSeq)*int64(srcSeq), 4)
			b.actMatmul(layerName("enc-context", l), batch*heads*srcSeq, srcSeq, headDim, false)
			b.matmul(layerName("enc-out", l), encTok, hidden, hidden, false)
			b.vec(layerName("enc-ln1", l), compiler.LayerNorm, int64(encTok)*hidden, 4)
			b.matmul(layerName("enc-ffn-up", l), encTok, hidden, ffn, true)
			b.matmul(layerName("enc-ffn-down", l), encTok, ffn, hidden, false)
			b.vec(layerName("enc-ln2", l), compiler.LayerNorm, int64(encTok)*hidden, 4)
		}
		for l := 0; l < decLayers; l++ {
			b.matmul(layerName("dec-qkv", l), decTok, hidden, 3*hidden, false)
			b.actMatmul(layerName("dec-self-scores", l), batch*heads*tgtSeq, headDim, tgtSeq, false)
			b.vec(layerName("dec-softmax", l), compiler.Softmax, int64(batch)*int64(heads)*int64(tgtSeq)*int64(tgtSeq), 4)
			b.actMatmul(layerName("dec-self-ctx", l), batch*heads*tgtSeq, tgtSeq, headDim, false)
			b.matmul(layerName("dec-cross", l), decTok, hidden, hidden, false)
			b.vec(layerName("dec-ln1", l), compiler.LayerNorm, int64(decTok)*hidden, 4)
			b.matmul(layerName("dec-ffn-up", l), decTok, hidden, ffn, true)
			b.matmul(layerName("dec-ffn-down", l), decTok, ffn, hidden, false)
			b.vec(layerName("dec-ln2", l), compiler.LayerNorm, int64(decTok)*hidden, 4)
		}
		b.matmul("lm-head", decTok, hidden, 32000, false)
	}

	weights := int64(encLayers+decLayers)*13*int64(hidden)*int64(hidden) + 2*32000*int64(hidden)
	acts := int64(encTok+decTok) * int64(hidden) * 6
	return b.finish(weights*f32 + acts*f32/2)
}

// layerName returns base.l. The number is formatted into a stack
// buffer, so a name that does not escape its caller allocates nothing.
func layerName(base string, l int) string {
	var num [20]byte
	return base + "." + string(strconv.AppendInt(num[:0], int64(l), 10))
}
