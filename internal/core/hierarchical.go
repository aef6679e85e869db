package core

import (
	"fmt"

	"zipflm/internal/collective"
	"zipflm/internal/tensor"
)

// HierarchicalExchange is an extension beyond the paper: a node-aware,
// two-level variant of the uniqueness technique matched to the paper's own
// cluster topology (8 GPUs per node on 32 GB/s PCIe, nodes joined by
// 15 GB/s FDR InfiniBand — Table II).
//
// The flat UniqueExchange runs one global ring: every rank, on every node,
// moves Θ(G·K + U_g·D) bytes, and once G exceeds one node the whole volume
// crosses the InfiniBand boundary. But Zipf's law applies *within a node*
// too: the 8·K tokens of one node already collapse to U_node ≪ 8·K unique
// words. The hierarchical exchange exploits that:
//
//  1. intra-node: ranks of each node gather indices, build the node-unique
//     set, scatter-reduce their gradients into a U_node×D layout and
//     ALLREDUCE it over PCIe;
//  2. inter-node: only node leaders exchange — indices then a U_g×D
//     ALLREDUCE — so the InfiniBand fabric carries one rank's volume per
//     node instead of eight;
//  3. intra-node: leaders broadcast the merged (Î, M̂) back over PCIe.
//
// Every rank still applies the identical global Update, so the engine is
// exchange-equivalent to UniqueExchange and BaselineAllGather (tested).
type HierarchicalExchange struct {
	// Hier supplies the topology. The caller builds one per cluster
	// (collective.NewHierarchy) and shares it across ranks.
	Hier *collective.Hierarchy
}

// Name implements Exchanger.
func (h HierarchicalExchange) Name() string { return "hierarchical-unique" }

// Exchange implements Exchanger.
func (h HierarchicalExchange) Exchange(ctx *Ctx, grad SparseGrad) (Update, Stats, error) {
	if h.Hier == nil {
		return Update{}, Stats{}, fmt.Errorf("core: HierarchicalExchange needs a Hierarchy")
	}
	if err := grad.Validate(); err != nil {
		return Update{}, Stats{}, err
	}
	d := grad.Rows.Cols
	stats := Stats{Tokens: len(grad.Indices)}
	simBefore := ctx.simNow()

	group := h.Hier.Group(ctx.Rank)
	_, groupRank := h.Hier.GroupOf(ctx.Rank)
	leaders := h.Hier.Leaders()
	groupID, _ := h.Hier.GroupOf(ctx.Rank)

	before := group.LaneStats(groupRank)
	beforeLead := collective.Stats{}
	if h.Hier.IsLeader(ctx.Rank) {
		beforeLead = leaders.LaneStats(groupID)
	}

	// Phase 1 — intra-node unique reduce (steps 1–6 of §III-A at node
	// scope). mNode cannot come from the workspace: localRows (workspace
	// scratch) is still being read while mNode is filled.
	localIdx, localRows := localReduce(ctx.WS, grad)
	stats.UniqueLocal = len(localIdx)
	gathered := group.AllGatherInts(groupRank, grad.Indices)
	nodeIdx := globalUnique(ctx.WS, gathered)
	nodeRow := ctx.WS.scratchRowMap()
	for i, w := range nodeIdx {
		nodeRow[w] = i
	}
	mNode := tensor.NewMatrix(len(nodeIdx), d)
	for i, w := range localIdx {
		copy(mNode.Row(nodeRow[w]), localRows.Row(i))
	}
	group.AllReduce(groupRank, mNode.Data, ctx.Wire)

	// Phase 2 — inter-node exchange among leaders only.
	var globalIdx []int
	var mGlobal *tensor.Matrix
	if h.Hier.IsLeader(ctx.Rank) {
		gatheredNodes := leaders.AllGatherInts(groupID, nodeIdx)
		// scratchRowMap recycles nodeRow's map, which is dead by now.
		globalIdx = globalUnique(ctx.WS, gatheredNodes)
		row := ctx.WS.scratchRowMap()
		for i, w := range globalIdx {
			row[w] = i
		}
		mGlobal = tensor.NewMatrix(len(globalIdx), d)
		for i, w := range nodeIdx {
			copy(mGlobal.Row(row[w]), mNode.Row(i))
		}
		leaders.AllReduce(groupID, mGlobal.Data, ctx.Wire)
	}

	// Phase 3 — leaders broadcast the merged result inside the node.
	var idxPayload []int
	var rowPayload []float32
	if h.Hier.IsLeader(ctx.Rank) {
		idxPayload = globalIdx
		rowPayload = mGlobal.Data
	}
	globalIdx = group.BroadcastInts(groupRank, 0, idxPayload)
	rowPayload = group.BroadcastFloatsVar(groupRank, 0, rowPayload)
	mOut := tensor.NewMatrixFrom(len(globalIdx), d, rowPayload)

	stats.UniqueGlobal = len(globalIdx)
	wire := group.LaneStats(groupRank).Sub(before).Total()
	if h.Hier.IsLeader(ctx.Rank) {
		wire += leaders.LaneStats(groupID).Sub(beforeLead).Total()
	}
	stats.WireBytes = wire
	stats.SimSeconds = ctx.simNow() - simBefore
	stats.ScratchBytes = int64(len(localIdx))*int64(d)*4 +
		int64(group.Size())*int64(len(grad.Indices))*4 +
		int64(len(nodeIdx))*int64(d)*4 +
		int64(len(globalIdx))*int64(d)*4
	return Update{Indices: globalIdx, Rows: mOut}, stats, nil
}

// HierarchicalCost estimates the per-rank and inter-node wire volumes for G
// ranks in groups of size n with uNode unique words per node and uGlobal
// across the cluster. Non-leader ranks never touch the inter-node fabric.
func HierarchicalCost(g, n, k, uNode, uGlobal, d int, fp16 bool) (memberWire, leaderInterWire int64) {
	e := elemBytes(fp16)
	ni := int64(n)
	// Intra-node: index gather + node all-reduce + result broadcast.
	memberWire = (ni-1)*int64(k)*4 +
		2*(ni-1)*int64(uNode)*int64(d)*e/ni +
		int64(uGlobal)*int64(d)*4
	nodes := int64((g + n - 1) / n)
	if nodes > 1 {
		leaderInterWire = (nodes-1)*int64(uNode)*4 +
			2*(nodes-1)*int64(uGlobal)*int64(d)*e/nodes
	}
	return memberWire, leaderInterWire
}
