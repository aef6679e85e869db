package core

import "zipflm/internal/tensor"

// BaselineAllGather is the state-of-the-art exchange the paper scales
// against (§II-B): every rank gathers every other rank's dense K×D gradient
// block plus its K token indices, then scatter-adds all G·K rows into the
// embedding locally. Per-rank scratch memory and wire volume are both
// Θ(G·K·D); at the paper's word-LM configuration this exceeds the 12 GB
// Titan X beyond 24 GPUs (the "*" rows of Table III).
type BaselineAllGather struct{}

// Name implements Exchanger.
func (BaselineAllGather) Name() string { return "baseline-allgather" }

// Exchange implements Exchanger.
func (BaselineAllGather) Exchange(ctx *Ctx, grad SparseGrad) (Update, Stats, error) {
	if err := grad.Validate(); err != nil {
		return Update{}, Stats{}, err
	}
	g := ctx.Comm.Size()
	k := len(grad.Indices)
	d := grad.Rows.Cols

	stats := Stats{Tokens: k}
	before := ctx.Comm.LaneStats(ctx.Rank)
	simBefore := ctx.simNow()

	// Scratch: G dense gradient blocks land on this rank (§II-B: "the
	// ALLGATHER operation requires Θ(G×K×D) local memory to hold G
	// number of Δ matrices") plus the G index vectors.
	elem := int64(4)
	scratch := int64(g)*int64(k)*int64(d)*elem + int64(g)*int64(k)*4
	release, allocErr := alloc(ctx.Dev, scratch)
	if err := agreeAlloc(ctx, allocErr, release); err != nil {
		return Update{}, Stats{}, err
	}
	defer release()
	stats.ScratchBytes = scratch

	allIdx := ctx.Comm.AllGatherInts(ctx.Rank, grad.Indices)
	allRows := ctx.Comm.AllGatherFloats(ctx.Rank, grad.Rows.Data, ctx.Wire)

	// Local scatter-add of all G·K token rows. Duplicate words collide on
	// the same accumulator row — the very serialization §III-A eliminates.
	order := globalUnique(ctx.WS, allIdx)
	pos := ctx.WS.scratchRowMap()
	for i, w := range order {
		pos[w] = i
	}
	acc := tensor.NewMatrix(len(order), d)
	for r, idxs := range allIdx {
		block := tensor.NewMatrixFrom(len(idxs), d, allRows[r])
		for i, w := range idxs {
			tensor.AddInPlace(acc.Row(pos[w]), block.Row(i))
		}
	}

	// globalUnique is done with the workspace's pos map; count U_i on it.
	seen := ctx.WS.scratchPosMap()
	for _, w := range grad.Indices {
		seen[w] = 0
	}
	stats.UniqueLocal = len(seen)
	stats.UniqueGlobal = len(order)
	stats.WireBytes = ctx.Comm.LaneStats(ctx.Rank).Sub(before).Total()
	stats.SimSeconds = ctx.simNow() - simBefore
	return Update{Indices: order, Rows: acc}, stats, nil
}
