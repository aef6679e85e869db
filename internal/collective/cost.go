package collective

import (
	"fmt"

	"zipflm/internal/perfmodel"
	"zipflm/internal/vclock"
)

// CostModel attaches virtual time to one lane of a communicator: every
// collective on that lane synchronizes the participating ranks' clocks to
// their maximum and advances them together by the operation's α–β duration
// on the given link (a ring hop costs α + chunkBytes/β, AgreeAllOK costs the
// synchronization alone). Charging happens between two barrier waits, with
// every rank quiesced, so virtual times are bit-reproducible regardless of
// goroutine scheduling.
//
// A nil CostModel (the default) leaves the hot paths exactly as they were:
// the only cost is one nil check per collective, guarded by the
// BenchmarkStep* benches.
//
// Lanes that run concurrently need clocks of their own: a clock is only ever
// touched by its owner or inside a barriered charge of the one lane it is
// attached to. A caller overlapping side-lane collectives with compute gives
// the side lane per-rank lane clocks, advances each to the time its payload
// became ready before issuing the operation, and folds the lane clock back
// into the rank's device clock when it joins (trainer.Config.Overlap does
// exactly that) — the step is then the max-style critical path of the two
// timelines, not their sum.
type CostModel struct {
	// Link is the α–β cost of the fabric this communicator's collectives
	// traverse (PCIe for an intra-node group, InfiniBand for a ring that
	// spans nodes — see Hierarchy.AttachCost).
	Link perfmodel.LinkCost
	// Clocks are the participating ranks' clocks, indexed by this
	// communicator's rank ids (length must equal the communicator size).
	Clocks []*vclock.Clock
}

// Charge synchronizes all participating clocks to their maximum and
// advances them together by d seconds. Exported so higher layers
// (experiments) can charge modeled costs — e.g. a dense all-reduce that is
// accounted but not materialized — onto the same clocks the live
// collectives advance. The caller must have the owning ranks quiesced.
func (cm *CostModel) Charge(d float64) {
	vclock.SyncAdvance(cm.Clocks, d)
}

// AttachCost installs a cost model on this lane of the communicator (the
// other lane is unaffected). Passing nil detaches it. Must not be called
// while collectives are in flight.
func (c *Comm) AttachCost(cm *CostModel) {
	if cm != nil && len(cm.Clocks) != c.g {
		panic(fmt.Sprintf("collective: cost model has %d clocks for %d ranks", len(cm.Clocks), c.g))
	}
	c.cost = cm
}

// Cost returns the attached cost model (nil when detached).
func (c *Comm) Cost() *CostModel { return c.cost }

// charge applies fn exactly once across the group and releases no rank
// until it has been applied. All ranks must call charge at the same point
// of the same collective, immediately after that collective's closing
// barrier (so every rank is quiesced and rank 0's fn runs before anyone
// proceeds). No-op without a cost model.
func (c *Comm) charge(rank int, fn func(cm *CostModel)) {
	cm := c.cost
	if cm == nil {
		return
	}
	if rank == 0 {
		fn(cm)
	}
	if c.g > 1 {
		c.barrier.Wait()
	}
}

// AttachCost wires the hierarchy's communicators to the cluster's clocks
// with topology-aware link costs: every intra-group communicator charges
// the intra-node (PCIe) link, the leaders' communicator charges the
// inter-node (InfiniBand) link — the Table II fabric assignment. clocks is
// indexed by global rank and must cover all G ranks.
func (h *Hierarchy) AttachCost(intra, inter perfmodel.LinkCost, clocks []*vclock.Clock) {
	if len(clocks) != h.G {
		panic(fmt.Sprintf("collective: hierarchy cost model has %d clocks for %d ranks", len(clocks), h.G))
	}
	for i, grp := range h.groups {
		base := i * h.GroupSize
		h.groups[i].AttachCost(&CostModel{
			Link:   intra,
			Clocks: clocks[base : base+grp.Size()],
		})
	}
	lead := make([]*vclock.Clock, h.leaders.Size())
	for i := range lead {
		lead[i] = clocks[i*h.GroupSize]
	}
	h.leaders.AttachCost(&CostModel{Link: inter, Clocks: lead})
}
