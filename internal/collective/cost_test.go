package collective

import (
	"math"
	"testing"

	"zipflm/internal/half"
	"zipflm/internal/perfmodel"
	"zipflm/internal/vclock"
)

// testLink is a round-number fabric so expected durations are exact.
var testLink = perfmodel.LinkCost{Alpha: 1e-5, BytesPerSec: 1e9}

func newCostComm(g int) (*Comm, []*vclock.Clock) {
	c := New(g)
	clocks := make([]*vclock.Clock, g)
	for i := range clocks {
		clocks[i] = new(vclock.Clock)
	}
	c.AttachCost(&CostModel{Link: testLink, Clocks: clocks})
	return c, clocks
}

func eqTime(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestAllReduceAdvancesClocks(t *testing.T) {
	const g, n = 4, 1000
	c, clocks := newCostComm(g)
	runRanks(g, func(rank int) {
		x := make([]float32, n)
		x[rank] = 1
		c.AllReduce(rank, x, nil)
	})
	want := testLink.RingAllReduceSeconds(g, n, 4)
	if want <= 0 {
		t.Fatal("expected a positive ring duration")
	}
	for r, ck := range clocks {
		if !eqTime(ck.Now(), want) {
			t.Errorf("rank %d clock %v, want %v", r, ck.Now(), want)
		}
	}

	// FP16 halves per-element wire cost.
	runRanks(g, func(rank int) {
		x := make([]float32, n)
		c.AllReduce(rank, x, half.NewScaler(1))
	})
	want += testLink.RingAllReduceSeconds(g, n, 2)
	for r, ck := range clocks {
		if !eqTime(ck.Now(), want) {
			t.Errorf("after FP16 op: rank %d clock %v, want %v", r, ck.Now(), want)
		}
	}
}

func TestAllGatherChargesLargestPayload(t *testing.T) {
	const g = 3
	c, clocks := newCostComm(g)
	sizes := []int{2, 7, 4}
	runRanks(g, func(rank int) {
		c.AllGatherInts(rank, make([]int, sizes[rank]))
	})
	want := testLink.RingAllGatherSeconds(g, int64(4*7))
	for r, ck := range clocks {
		if !eqTime(ck.Now(), want) {
			t.Errorf("ints: rank %d clock %v, want %v", r, ck.Now(), want)
		}
	}
	runRanks(g, func(rank int) {
		c.AllGatherFloats(rank, make([]float32, sizes[rank]), nil)
	})
	want += testLink.RingAllGatherSeconds(g, int64(4*7))
	for r, ck := range clocks {
		if !eqTime(ck.Now(), want) {
			t.Errorf("floats: rank %d clock %v, want %v", r, ck.Now(), want)
		}
	}
}

func TestBroadcastCharges(t *testing.T) {
	const g, n = 4, 256
	c, clocks := newCostComm(g)
	runRanks(g, func(rank int) {
		c.BroadcastFloatsVar(rank, 0, make([]float32, n))
	})
	want := testLink.TreeBroadcastSeconds(g, int64(4*n))
	for r, ck := range clocks {
		if !eqTime(ck.Now(), want) {
			t.Errorf("rank %d clock %v, want %v", r, ck.Now(), want)
		}
	}
}

// TestBarrierMaxSynchronizes: the control-plane barrier (AgreeAllOK) costs
// no bytes but drags every clock up to the slowest rank.
func TestBarrierMaxSynchronizes(t *testing.T) {
	const g = 4
	c, clocks := newCostComm(g)
	for r, ck := range clocks {
		ck.Advance(float64(r)) // rank 3 is the straggler-setter at t=3
	}
	runRanks(g, func(rank int) { c.AgreeAllOK(rank, true) })
	for r, ck := range clocks {
		if !eqTime(ck.Now(), 3) {
			t.Errorf("rank %d clock %v after barrier, want 3", r, ck.Now())
		}
	}
	// Reusable across generations.
	runRanks(g, func(rank int) { c.AgreeAllOK(rank, true) })
	for r, ck := range clocks {
		if !eqTime(ck.Now(), 3) {
			t.Errorf("second barrier moved rank %d to %v", r, ck.Now())
		}
	}
}

// TestDeterministicVirtualTime runs the same mixed collective sequence on
// fresh communicators and demands bit-identical clocks, whatever the
// scheduler did.
func TestDeterministicVirtualTime(t *testing.T) {
	run := func() []float64 {
		const g = 5
		c, clocks := newCostComm(g)
		runRanks(g, func(rank int) {
			x := make([]float32, 333)
			c.AllReduce(rank, x, nil)
			c.AllGatherInts(rank, make([]int, 10+rank))
			c.AllGatherFloats(rank, make([]float32, 50), half.NewScaler(1))
			c.BroadcastFloatsVar(rank, 2, x)
			c.AgreeAllOK(rank, true)
		})
		out := make([]float64, g)
		for i, ck := range clocks {
			out[i] = ck.Now()
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("virtual time not reproducible: run1[%d]=%v run2[%d]=%v", i, a[i], i, b[i])
		}
		if a[i] <= 0 {
			t.Fatalf("clock %d never advanced", i)
		}
	}
}

// TestNilCostModelLeavesNoTrace: without AttachCost the collectives must
// not care about clocks at all (and Cost() reports nil).
func TestNilCostModelLeavesNoTrace(t *testing.T) {
	const g = 3
	c := New(g)
	if c.Cost() != nil {
		t.Fatal("fresh comm must have no cost model")
	}
	runRanks(g, func(rank int) {
		x := make([]float32, 64)
		c.AllReduce(rank, x, nil)
		c.AgreeAllOK(rank, true)
	})
}

func TestAttachCostValidatesClockCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched clock count must panic")
		}
	}()
	New(3).AttachCost(&CostModel{Link: testLink, Clocks: make([]*vclock.Clock, 2)})
}

// TestHierarchyAttachCost prices intra-group traffic on the PCIe link and
// the leaders' ring on InfiniBand, sharing one global clock set.
func TestHierarchyAttachCost(t *testing.T) {
	const g, gs, n = 4, 2, 100
	intra := perfmodel.LinkCost{Alpha: 0, BytesPerSec: 8e9}
	inter := perfmodel.LinkCost{Alpha: 0, BytesPerSec: 1e9}
	h := NewHierarchy(g, gs)
	clocks := make([]*vclock.Clock, g)
	for i := range clocks {
		clocks[i] = new(vclock.Clock)
	}
	h.AttachCost(intra, inter, clocks)

	runRanks(g, func(rank int) {
		grp := h.Group(rank)
		_, gr := h.GroupOf(rank)
		x := make([]float32, n)
		grp.AllReduce(gr, x, nil)
		if h.IsLeader(rank) {
			gid, _ := h.GroupOf(rank)
			h.Leaders().AllReduce(gid, x, nil)
		}
	})

	intraDur := intra.RingAllReduceSeconds(gs, n, 4)
	interDur := inter.RingAllReduceSeconds(g/gs, n, 4)
	for r, ck := range clocks {
		want := intraDur
		if h.IsLeader(r) {
			want += interDur
		}
		if !eqTime(ck.Now(), want) {
			t.Errorf("rank %d clock %v, want %v (leader=%v)", r, ck.Now(), want, h.IsLeader(r))
		}
	}
}

func TestHierarchyAttachCostValidatesClockCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched clock count must panic")
		}
	}()
	NewHierarchy(4, 2).AttachCost(testLink, testLink, make([]*vclock.Clock, 3))
}
