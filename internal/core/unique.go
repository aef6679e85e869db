package core

import (
	"zipflm/internal/tensor"
)

// UniqueExchange is the paper's uniqueness technique (§III-A, Figure 4):
// convert the expensive ALLGATHER over dense gradients into an ALLGATHER
// over word *indices* followed by an ALLREDUCE over one gradient row per
// globally unique word. Per-rank scratch and wire volume drop from
// Θ(G·K·D) to Θ(G·K + U_g·D), and because the final update has one row per
// word, applying it needs no duplicate-row locking.
type UniqueExchange struct{}

// Name implements Exchanger.
func (UniqueExchange) Name() string { return "unique-exchange" }

// Exchange implements Exchanger.
func (e UniqueExchange) Exchange(ctx *Ctx, grad SparseGrad) (Update, Stats, error) {
	return exchangeRank(e, ctx, grad)
}

// ExchangeRanks implements Exchanger, following the seven numbered steps of
// §III-A for every rank at once: what a rank computes from its own gradient
// runs per rank, and what every rank computes identically — the unique set
// Î and its row map — runs once.
func (UniqueExchange) ExchangeRanks(ctxs []*Ctx, grads []SparseGrad) (Update, []Stats, []error) {
	b, ok := open(ctxs, grads)
	if !ok {
		return b.abort()
	}
	g := len(ctxs)
	d := grads[0].Rows.Cols

	// Steps 1–2: locally unique indices Ĵ and locally reduced gradients Δ̂
	// (U_i × D) per rank, in that rank's workspace scratch when available.
	localIdx := make([][]int, g)
	localRows := make([]*tensor.Matrix, g)
	for r, grad := range grads {
		localIdx[r], localRows[r] = localReduce(ctxs[r].WS, grad)
		b.stats[r].UniqueLocal = len(localIdx[r])
	}

	// Scratch for Δ̂ and the gathered indices, agreed collectively so an
	// OOM on any rank aborts the exchange on every rank.
	pre := func(r int) int64 {
		return int64(len(localIdx[r]))*int64(d)*4 + int64(g)*int64(len(grads[r].Indices))*4
	}
	if !b.alloc(pre) {
		return b.abort()
	}

	// Step 3: ALLGATHER the K-long index vectors J — Θ(G·K) integers, no
	// D factor.
	indices := make([][]int, g)
	for r, grad := range grads {
		indices[r] = grad.Indices
	}
	b.comm.AllGatherIntsRanks(indices)

	// Step 4: filter to the globally unique, totally ordered Î. Every rank
	// would compute the same Î from the same gathered indices, which is
	// what gives the ALLREDUCE its cluster-wide consistent row mapping; it
	// is computed once.
	globalIdx := globalUnique(ctxs[0].WS, indices)
	ug := len(globalIdx)
	rowOf := ctxs[0].WS.scratchRowMap()
	for i, w := range globalIdx {
		rowOf[w] = i
	}

	// Step 5: scatter each rank's Δ̂ (U_i×D) into its copy of the shared
	// U_g×D layout M; absent words stay zero. U_g is only known post-gather,
	// so this allocation gets its own collective agreement. Rank 0's M
	// becomes the Update; the others' are workspace scratch.
	if !b.alloc(func(int) int64 { return int64(ug) * int64(d) * 4 }) {
		return b.abort()
	}
	ms := make([][][]float32, g)
	sum := tensor.NewMatrix(ug, d)
	for r := range ms {
		m := sum
		if r > 0 {
			m = ctxs[r].WS.scratchMatrix(1, ug, d)
		}
		for i, w := range localIdx[r] {
			copy(m.Row(rowOf[w]), localRows[r].Row(i))
		}
		ms[r] = [][]float32{m.Data}
	}

	// Step 6: ALLREDUCE over M — Θ(U_g·D), optionally FP16 on the wire.
	b.comm.AllReduceRanks(ms, b.wire)

	// Step 7 is the caller's Update.Apply: conflict-free, one row per word.
	for r := range b.stats {
		b.stats[r].UniqueGlobal = ug
		// Peak scratch: local reduced + gathered indices + M, all live at
		// the ALLREDUCE.
		b.stats[r].ScratchBytes = pre(r) + int64(ug)*int64(d)*4
	}
	b.finish()
	return Update{Indices: globalIdx, Rows: sum}, b.stats, b.errs
}
