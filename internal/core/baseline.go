package core

import (
	"slices"

	"zipflm/internal/tensor"
)

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
func (e BaselineAllGather) Exchange(ctx *Ctx, grad SparseGrad) (Update, Stats, error) {
	return exchangeRank(e, ctx, grad)
}

// ExchangeRanks implements Exchanger. Every rank would scatter-add the same
// gathered blocks in the same order, so the scatter-add runs once.
func (BaselineAllGather) ExchangeRanks(ctxs []*Ctx, grads []SparseGrad) (Update, []Stats, []error) {
	b, ok := open(ctxs, grads)
	if !ok {
		return b.abort()
	}
	g := len(ctxs)
	d := grads[0].Rows.Cols

	// Scratch: G dense gradient blocks land on each rank (§II-B: "the
	// ALLGATHER operation requires Θ(G×K×D) local memory to hold G number
	// of Δ matrices") plus the G index vectors.
	scratch := func(r int) int64 {
		k := int64(len(grads[r].Indices))
		return int64(g)*k*int64(d)*4 + int64(g)*k*4
	}
	if !b.alloc(scratch) {
		return b.abort()
	}

	// The blocks cross the wire: a lossy wire rounds a copy, the caller's
	// gradient stays as it was.
	indices := make([][]int, g)
	blocks := make([][]float32, g)
	for r, grad := range grads {
		indices[r], blocks[r] = grad.Indices, grad.Rows.Data
		if b.wire != nil {
			blocks[r] = slices.Clone(blocks[r])
		}
	}
	b.comm.AllGatherIntsRanks(indices)
	b.comm.AllGatherFloatsRanks(blocks, b.wire)

	// Scatter-add of all G·K token rows. Duplicate words collide on the
	// same accumulator row — the very serialization §III-A eliminates.
	order := globalUnique(ctxs[0].WS, indices)
	pos := ctxs[0].WS.scratchRowMap()
	for i, w := range order {
		pos[w] = i
	}
	acc := tensor.NewMatrix(len(order), d)
	for r, idxs := range indices {
		block := tensor.NewMatrixFrom(len(idxs), d, blocks[r])
		for i, w := range idxs {
			tensor.AddInPlace(acc.Row(pos[w]), block.Row(i))
		}
	}

	for r, grad := range grads {
		seen := ctxs[r].WS.scratchPosMap()
		for _, w := range grad.Indices {
			seen[w] = 0
		}
		b.stats[r].UniqueLocal = len(seen)
		b.stats[r].UniqueGlobal = len(order)
		b.stats[r].ScratchBytes = scratch(r)
	}
	b.finish()
	return Update{Indices: order, Rows: acc}, b.stats, b.errs
}
