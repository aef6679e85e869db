package collective

import (
	"testing"
)

// twoLevelAllReduce composes the hierarchy's communicators into an
// all-reduce: reduce inside each group, all-reduce across leaders, broadcast
// back inside each group. It is the collective skeleton the hierarchical
// exchange engine builds on.
func twoLevelAllReduce(h *Hierarchy, rank int, x []float32) {
	grp := h.Group(rank)
	gid, gr := h.GroupOf(rank)
	grp.AllReduce(gr, x, nil)
	if h.IsLeader(rank) {
		h.Leaders().AllReduce(gid, x, nil)
	}
	copy(x, grp.BroadcastFloatsVar(gr, 0, x))
}

// TestTwoLevelAllReduceMatchesFlat: the two-level reduce-scatter/allgather
// over groups must produce the same values as a flat Comm all-reduce. The
// payloads are small integers so both addition orders are exact and the
// comparison can demand bit equality.
func TestTwoLevelAllReduceMatchesFlat(t *testing.T) {
	for _, tc := range []struct{ g, gs, n int }{
		{4, 2, 64},
		{8, 4, 100},
		{10, 4, 33}, // non-divisible: groups of 4, 4, 2
		{6, 6, 17},  // one group: leaders ring is a single rank
		{5, 2, 1},   // groups of 2, 2, 1
	} {
		h := NewHierarchy(tc.g, tc.gs)
		flat := New(tc.g)

		mk := func(rank int) []float32 {
			x := make([]float32, tc.n)
			for i := range x {
				x[i] = float32((rank+1)*(i%7) - 3*rank)
			}
			return x
		}
		hier := make([][]float32, tc.g)
		ref := make([][]float32, tc.g)
		for r := 0; r < tc.g; r++ {
			hier[r] = mk(r)
			ref[r] = mk(r)
		}

		runRanks(tc.g, func(rank int) { twoLevelAllReduce(h, rank, hier[rank]) })
		runRanks(tc.g, func(rank int) { flat.AllReduce(rank, ref[rank], nil) })

		for r := 0; r < tc.g; r++ {
			for i := range ref[r] {
				if hier[r][i] != ref[r][i] {
					t.Fatalf("G=%d gs=%d: rank %d elem %d: two-level %v != flat %v",
						tc.g, tc.gs, r, i, hier[r][i], ref[r][i])
				}
			}
		}
	}
}

// TestGroupOfExhaustive checks every rank of non-divisible (and divisible)
// topologies: the (group, groupRank) pair must invert to the rank, stay
// inside the group communicator's size, agree with IsLeader and Group, and
// partition all ranks with no gaps.
func TestGroupOfExhaustive(t *testing.T) {
	for _, tc := range []struct{ g, gs int }{
		{10, 4}, // the ISSUE's example: groups of 4, 4, 2
		{7, 3},
		{8, 8},
		{9, 2},
		{5, 10}, // group larger than G collapses to one group
		{1, 1},
	} {
		h := NewHierarchy(tc.g, tc.gs)
		gs := h.GroupSize // NewHierarchy clamps gs to G
		perGroup := make(map[int][]int)
		leaders := 0
		for rank := 0; rank < tc.g; rank++ {
			group, gr := h.GroupOf(rank)
			if group < 0 || group >= h.NumGroups() {
				t.Fatalf("G=%d gs=%d: rank %d in out-of-range group %d", tc.g, tc.gs, rank, group)
			}
			if group*gs+gr != rank {
				t.Errorf("G=%d gs=%d: rank %d maps to (%d,%d), does not invert", tc.g, tc.gs, rank, group, gr)
			}
			grp := h.Group(rank)
			if gr < 0 || gr >= grp.Size() {
				t.Errorf("G=%d gs=%d: rank %d group-rank %d outside group size %d", tc.g, tc.gs, rank, gr, grp.Size())
			}
			if h.IsLeader(rank) != (gr == 0) {
				t.Errorf("G=%d gs=%d: rank %d leader flag inconsistent with group rank %d", tc.g, tc.gs, rank, gr)
			}
			if h.IsLeader(rank) {
				leaders++
			}
			perGroup[group] = append(perGroup[group], gr)
		}
		if len(perGroup) != h.NumGroups() {
			t.Errorf("G=%d gs=%d: %d populated groups, hierarchy claims %d", tc.g, tc.gs, len(perGroup), h.NumGroups())
		}
		if leaders != h.Leaders().Size() {
			t.Errorf("G=%d gs=%d: %d leaders but leaders comm has %d ranks", tc.g, tc.gs, leaders, h.Leaders().Size())
		}
		total := 0
		for group, ranks := range perGroup {
			if len(ranks) != h.Group(group*gs).Size() {
				t.Errorf("G=%d gs=%d: group %d has %d members, comm sized %d",
					tc.g, tc.gs, group, len(ranks), h.Group(group*gs).Size())
			}
			seen := make(map[int]bool)
			for _, gr := range ranks {
				if seen[gr] {
					t.Errorf("G=%d gs=%d: group %d has duplicate group-rank %d", tc.g, tc.gs, group, gr)
				}
				seen[gr] = true
			}
			total += len(ranks)
		}
		if total != tc.g {
			t.Errorf("G=%d gs=%d: groups cover %d ranks, want %d", tc.g, tc.gs, total, tc.g)
		}
	}
}

func TestGroupOfPanicsOutsideRange(t *testing.T) {
	h := NewHierarchy(4, 2)
	for _, rank := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("GroupOf(%d) must panic", rank)
				}
			}()
			h.GroupOf(rank)
		}()
	}
}
