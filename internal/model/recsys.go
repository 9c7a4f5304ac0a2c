package model

import "neu10/internal/compiler"

// DLRM builds the MLPerf DLRM-style recommender: large multi-hot
// embedding lookups (the 22.38 GB footprint of Table I comes almost
// entirely from the tables) feeding small MLPs. The paper's Fig. 4 puts
// DLRM at the far VE-intensive end (ME:VE ratio ~0.001-0.01) and Fig. 7
// shows it drawing ~500 GB/s average bandwidth at batch 8 — both fall
// out of the dominant gather here.
func DLRM(batch int) *compiler.Graph {
	const (
		tables   = 26
		embDim   = 128
		multiHot = 200 // average pooled ids per table lookup
		denseIn  = 13
		botMLP1  = 512
		botMLP2  = 256
		topMLP1  = 512
		topMLP2  = 256
	)
	b := newBuilder("DLRM", batch)

	for b.pass() {
		// Bottom MLP over dense features.
		b.matmul("bot-mlp-1", batch, denseIn, botMLP1, true)
		b.matmul("bot-mlp-2", batch, botMLP1, botMLP2, true)
		b.matmul("bot-mlp-3", batch, botMLP2, embDim, true)

		// Sparse feature lookups: tables × batch × multi-hot pooled rows.
		rows := int64(tables) * int64(batch) * int64(multiHot)
		b.gather("emb-lookup", rows, embDim, 2.0) // 2× random-access amplification
		// Pooling the multi-hot ids into one vector per (sample, table).
		b.vec("emb-pool", compiler.Reduction, rows*int64(embDim), 1)

		// Pairwise feature interactions: (tables+1) choose 2 dot products.
		const feats = tables + 1
		b.vec("interact", compiler.VectorEW, int64(batch)*int64(feats)*int64(feats)/2*int64(embDim), 2)

		// Top MLP.
		interIn := feats*(feats-1)/2 + embDim
		b.matmul("top-mlp-1", batch, interIn, topMLP1, true)
		b.matmul("top-mlp-2", batch, topMLP1, topMLP2, true)
		b.matmul("top-mlp-3", batch, topMLP2, 1, false)
		b.vec("sigmoid", compiler.VectorEW, int64(batch), 2)
	}

	// Footprint: 26 tables × ~1.68M rows × 128 × f32 ≈ 22.4 GB.
	tableBytes := int64(tables) * 1_680_000 * embDim * f32
	return b.finish(tableBytes + 3*mb)
}

// NCF builds neural collaborative filtering: GMF + MLP towers over
// user/item embeddings, scored against a large candidate set per request
// (which is why the paper's Fig. 2 shows millisecond-scale NCF requests
// despite the tiny model). Table I: 11.10 GB, dominated by embeddings.
func NCF(batch int) *compiler.Graph {
	const (
		embDim     = 64
		candidates = 2048 // items scored per request sample
		mlp1       = 256
		mlp2       = 128
		mlp3       = 64
	)
	b := newBuilder("NCF", batch)
	pairs := int64(batch) * candidates

	for b.pass() {
		// User and item embedding lookups for both towers.
		b.gather("user-embed", 2*int64(batch), embDim, 2.0)
		b.gather("item-embed", 2*pairs, embDim, 2.0)
		// GMF tower: elementwise product.
		b.vec("gmf-mul", compiler.VectorEW, pairs*embDim, 1)
		// MLP tower.
		b.matmul("mlp-1", int(pairs), 2*embDim, mlp1, true)
		b.matmul("mlp-2", int(pairs), mlp1, mlp2, true)
		b.matmul("mlp-3", int(pairs), mlp2, mlp3, true)
		// Fusion + prediction.
		b.matmul("predict", int(pairs), embDim+mlp3, 1, false)
		b.vec("sigmoid", compiler.VectorEW, pairs, 2)
		b.vec("topk", compiler.Reduction, pairs, 3)
	}

	// Footprint: user+item embedding tables for both towers ≈ 11.1 GB.
	return b.finish(11*gb + 100*mb)
}
