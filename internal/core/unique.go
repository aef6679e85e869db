package core

import "zipflm/internal/tensor"

// UniqueExchange is the paper's uniqueness technique (§III-A, Figure 4):
// convert the expensive ALLGATHER over dense gradients into an ALLGATHER
// over word *indices* followed by an ALLREDUCE over one gradient row per
// globally unique word. Per-rank scratch and wire volume drop from
// Θ(G·K·D) to Θ(G·K + U_g·D), and because the final update has one row per
// word, applying it needs no duplicate-row locking.
type UniqueExchange struct{}

// Name implements Exchanger.
func (UniqueExchange) Name() string { return "unique-exchange" }

// Exchange implements Exchanger, following the seven numbered steps of
// §III-A.
func (UniqueExchange) Exchange(ctx *Ctx, grad SparseGrad) (Update, Stats, error) {
	if err := grad.Validate(); err != nil {
		return Update{}, Stats{}, err
	}
	g := ctx.Comm.Size()
	k := len(grad.Indices)
	d := grad.Rows.Cols
	stats := Stats{Tokens: k}
	before := ctx.Comm.LaneStats(ctx.Rank)
	simBefore := ctx.simNow()

	// Steps 1–2: locally unique indices Ĵ and locally reduced gradients Δ̂
	// (U_i × D). Both live in per-rank workspace scratch when available.
	localIdx, localRows := localReduce(ctx.WS, grad)
	stats.UniqueLocal = len(localIdx)

	// Scratch for Δ̂ and the gathered indices, agreed collectively so an
	// OOM on any rank aborts the exchange on every rank.
	preBytes := int64(len(localIdx))*int64(d)*4 + int64(g)*int64(k)*4
	relPre, allocErr := alloc(ctx.Dev, preBytes)
	if err := agreeAlloc(ctx, allocErr, relPre); err != nil {
		return Update{}, Stats{}, err
	}
	defer relPre()

	// Step 3: ALLGATHER the K-long index vectors J — Θ(G·K) integers, no
	// D factor.
	gathered := ctx.Comm.AllGatherInts(ctx.Rank, grad.Indices)

	// Step 4: filter to the globally unique, totally ordered Î. Every rank
	// computes the same Î from the same gathered indices, giving the
	// cluster-wide consistent row mapping the ALLREDUCE needs.
	globalIdx := globalUnique(ctx.WS, gathered)
	ug := len(globalIdx)
	stats.UniqueGlobal = ug
	rowOf := ctx.WS.scratchRowMap()
	for i, w := range globalIdx {
		rowOf[w] = i
	}

	// Step 5: scatter Δ̂ (U_i×D) into the shared U_g×D layout M; absent
	// words stay zero. U_g is only known post-gather, so this allocation
	// gets its own collective agreement.
	relM, allocErr := alloc(ctx.Dev, int64(ug)*int64(d)*4)
	if err := agreeAlloc(ctx, allocErr, relM); err != nil {
		return Update{}, Stats{}, err
	}
	defer relM()
	m := tensor.NewMatrix(ug, d)
	for i, w := range localIdx {
		copy(m.Row(rowOf[w]), localRows.Row(i))
	}

	// Step 6: ALLREDUCE over M — Θ(U_g·D), optionally FP16 on the wire.
	ctx.Comm.AllReduce(ctx.Rank, m.Data, ctx.Wire)

	// Step 7 is the caller's Update.Apply: conflict-free, one row per word.
	stats.WireBytes = ctx.Comm.LaneStats(ctx.Rank).Sub(before).Total()
	stats.SimSeconds = ctx.simNow() - simBefore
	// Peak scratch: local reduced + gathered indices + M, all live at the
	// ALLREDUCE.
	stats.ScratchBytes = int64(len(localIdx))*int64(d)*4 + int64(g)*int64(k)*4 + int64(ug)*int64(d)*4
	return Update{Indices: globalIdx, Rows: m}, stats, nil
}
