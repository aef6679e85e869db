package collective

import (
	"fmt"

	"zipflm/internal/perfmodel"
	"zipflm/internal/vclock"
)

// CostModel attaches virtual time to a communicator: every collective
// synchronizes the participating ranks' clocks to their maximum and
// advances them together by the operation's α–β duration on the given link
// (a ring hop costs α + chunkBytes/β, a vote costs the synchronization
// alone). Each operation charges once, on the goroutine executing it, so
// virtual times are bit-reproducible regardless of goroutine scheduling.
//
// A nil CostModel (the default) leaves the hot paths exactly as they were:
// the only cost is one nil check per collective, guarded by the
// BenchmarkStep* benches.
//
// A caller pricing overlapped communication attaches a model on clocks of
// its own around those calls, advances each to the time its payload became
// ready before issuing the operation, re-attaches the device clocks' model
// afterwards and folds each such clock back into its rank's device clock
// (trainer.Config.Overlap does exactly that) — the step is then the
// max-style critical path of the two timelines, not their sum.
type CostModel struct {
	// Link is the α–β cost of the fabric this communicator's collectives
	// traverse (PCIe while the ring fits in one node, InfiniBand once it
	// spans nodes — see perfmodel.Hardware.RingLink).
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

// AttachCost installs a cost model on the communicator, replacing the one
// attached before: later collectives charge its clocks only. Passing nil
// detaches it. Must not be called while collectives are in flight.
func (c *Comm) AttachCost(cm *CostModel) {
	if cm != nil && len(cm.Clocks) != c.g {
		panic(fmt.Sprintf("collective: cost model has %d clocks for %d ranks", len(cm.Clocks), c.g))
	}
	c.cost = cm
}

// Cost returns the attached cost model (nil when detached).
func (c *Comm) Cost() *CostModel { return c.cost }
