package collective

import "fmt"

// Hierarchy arranges g ranks into node-sized groups with their own
// communicators plus a leaders-only communicator — the topology of the
// paper's cluster (Table II: 8 GPUs per node on PCIe, nodes linked by FDR
// InfiniBand). Two-level collectives built on it keep most traffic on the
// fast intra-node links and send only one rank per node across the fabric.
type Hierarchy struct {
	// G is the total rank count, GroupSize the ranks per group (the last
	// group may be smaller when G is not divisible).
	G, GroupSize int
	// groups[i] is group i's communicator (size GroupSize or the
	// remainder).
	groups []*Comm
	// leaders is the communicator over rank 0 of every group.
	leaders *Comm
}

// NewHierarchy builds the two-level topology.
func NewHierarchy(g, groupSize int) *Hierarchy {
	if g <= 0 || groupSize <= 0 {
		panic("collective: NewHierarchy needs positive sizes")
	}
	if groupSize > g {
		groupSize = g
	}
	nGroups := (g + groupSize - 1) / groupSize
	h := &Hierarchy{G: g, GroupSize: groupSize}
	for i := 0; i < nGroups; i++ {
		size := groupSize
		if i == nGroups-1 {
			size = g - i*groupSize
		}
		h.groups = append(h.groups, New(size))
	}
	h.leaders = New(nGroups)
	return h
}

// NumGroups returns the group count.
func (h *Hierarchy) NumGroups() int { return len(h.groups) }

// GroupOf returns the group id and in-group rank of a global rank.
func (h *Hierarchy) GroupOf(rank int) (group, groupRank int) {
	if rank < 0 || rank >= h.G {
		panic(fmt.Sprintf("collective: rank %d outside hierarchy of %d", rank, h.G))
	}
	return rank / h.GroupSize, rank % h.GroupSize
}

// IsLeader reports whether the global rank leads its group.
func (h *Hierarchy) IsLeader(rank int) bool {
	_, gr := h.GroupOf(rank)
	return gr == 0
}

// Group returns the communicator of the given global rank's group.
func (h *Hierarchy) Group(rank int) *Comm {
	g, _ := h.GroupOf(rank)
	return h.groups[g]
}

// Leaders returns the leaders-only communicator; callers must translate the
// global rank to the leader rank (the group id).
func (h *Hierarchy) Leaders() *Comm { return h.leaders }

// InterNodeBytes returns the per-leader traffic that crossed the group
// boundary — the quantity the hierarchical exchange minimizes (only leaders
// appear on the inter-node fabric).
func (h *Hierarchy) InterNodeBytes() int64 {
	var m int64
	for r := 0; r < h.leaders.Size(); r++ {
		if b := h.leaders.RankStats(r).Total(); b > m {
			m = b
		}
	}
	return m
}

// IntraNodeBytes returns the max per-rank traffic inside any group.
func (h *Hierarchy) IntraNodeBytes() int64 {
	var m int64
	for _, grp := range h.groups {
		for r := 0; r < grp.Size(); r++ {
			if b := grp.RankStats(r).Total(); b > m {
				m = b
			}
		}
	}
	return m
}

// broadcastVar distributes root's slice to every rank of the communicator
// over blackboard b; every rank (the root included) receives a fresh copy,
// so sizes need not be known in advance. The blackboard stash is pooled.
// Both payload types travel as 4-byte elements.
func broadcastVar[T any](c *Comm, b *blackboard[T], rank, root int, x []T) []T {
	if rank == root {
		b.stash(&c.mu, root, x)
	}
	c.barrier.Wait()
	c.mu.Lock()
	src := b.entry(root)
	out := make([]T, len(src))
	copy(out, src)
	c.stats[rank].BroadcastCalls++
	if rank == root {
		c.stats[rank].BroadcastBytes += int64(4 * len(x))
	}
	c.mu.Unlock()
	c.barrier.Wait()
	c.charge(rank, func(cm *CostModel) {
		cm.Charge(cm.Link.TreeBroadcastSeconds(c.g, int64(4*len(out))))
	})
	return out
}

// BroadcastInts distributes root's int slice to every rank of the
// communicator; every rank receives a fresh copy whose length follows the
// root's slice.
func (c *Comm) BroadcastInts(rank, root int, x []int) []int {
	return broadcastVar(c, &c.ints, rank, root, x)
}

// BroadcastFloatsVar is the float32 counterpart of BroadcastInts.
func (c *Comm) BroadcastFloatsVar(rank, root int, x []float32) []float32 {
	return broadcastVar(c, &c.floats, rank, root, x)
}
