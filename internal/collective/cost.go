package collective

import (
	"zipflm/internal/perfmodel"
	"zipflm/internal/vclock"
)

// CostModel attaches virtual time to a communicator: every collective
// advances the attached clock by the operation's α–β duration on the given
// link (a ring hop costs α + chunkBytes/β). The step is bulk-synchronous, so
// every rank is charged the same and one clock stands for the group. Each
// operation charges once, on the goroutine executing it, so virtual times
// are bit-reproducible regardless of goroutine scheduling.
//
// A nil CostModel (the default) leaves the hot paths exactly as they were:
// the only cost is one nil check per collective, guarded by the
// BenchmarkStep* benches.
//
// A caller pricing overlapped communication attaches a model on a clock of
// its own around those calls, advances it to the time each payload became
// ready before issuing the operation, re-attaches the device clock's model
// afterwards and then advances the device clock to the lane's time
// (trainer.Config.Overlap does exactly that) — the step is then the
// max-style critical path of the two timelines, not their sum.
type CostModel struct {
	// Link is the α–β cost of the fabric this communicator's collectives
	// traverse (PCIe while the ring fits in one node, InfiniBand once it
	// spans nodes — see perfmodel.Hardware.RingLink).
	Link perfmodel.LinkCost
	// Clock is the timeline the collectives advance. Its owner charges
	// what the communicator does not execute (compute, memory traffic, a
	// modeled all-reduce) onto it directly.
	Clock *vclock.Clock
}

// AttachCost installs a cost model on the communicator, replacing the one
// attached before: later collectives charge its clock only. Passing nil
// detaches it. Must not be called while collectives are in flight.
func (c *Comm) AttachCost(cm *CostModel) {
	c.cost = cm
}

// Cost returns the attached cost model (nil when detached).
func (c *Comm) Cost() *CostModel { return c.cost }
