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
	want := testLink.RingAllReduceSeconds(g, 4*((n+g-1)/g))
	if want <= 0 {
		t.Fatal("expected a positive ring duration")
	}
	for r, ck := range clocks {
		if !eqTime(ck.Now(), want) {
			t.Errorf("rank %d clock %v, want %v", r, ck.Now(), want)
		}
	}

	// FP16 halves per-element wire cost.
	fp16 := half.NewScaler(1)
	runRanks(g, func(rank int) {
		x := make([]float32, n)
		c.AllReduce(rank, x, fp16)
	})
	want += testLink.RingAllReduceSeconds(g, 2*((n+g-1)/g))
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
	ints := make([][]int, g)
	floats := make([][]float32, g)
	for r, n := range sizes {
		ints[r], floats[r] = make([]int, n), make([]float32, n)
	}
	c.AllGatherIntsRanks(ints)
	want := testLink.RingAllGatherSeconds(g, int64(4*7))
	for r, ck := range clocks {
		if !eqTime(ck.Now(), want) {
			t.Errorf("ints: rank %d clock %v, want %v", r, ck.Now(), want)
		}
	}
	c.AllGatherFloatsRanks(floats, nil)
	want += testLink.RingAllGatherSeconds(g, int64(4*7))
	for r, ck := range clocks {
		if !eqTime(ck.Now(), want) {
			t.Errorf("floats: rank %d clock %v, want %v", r, ck.Now(), want)
		}
	}
}

// TestBarrierMaxSynchronizes: the control-plane vote (AgreeRanks) costs no
// bytes but drags every clock up to the slowest rank.
func TestBarrierMaxSynchronizes(t *testing.T) {
	const g = 4
	c, clocks := newCostComm(g)
	for r, ck := range clocks {
		ck.Advance(float64(r)) // rank 3 is the straggler-setter at t=3
	}
	yes := []bool{true, true, true, true}
	c.AgreeRanks(yes)
	for r, ck := range clocks {
		if !eqTime(ck.Now(), 3) {
			t.Errorf("rank %d clock %v after barrier, want 3", r, ck.Now())
		}
	}
	// Reusable across generations.
	c.AgreeRanks(yes)
	for r, ck := range clocks {
		if !eqTime(ck.Now(), 3) {
			t.Errorf("second barrier moved rank %d to %v", r, ck.Now())
		}
	}
}

// TestDeterministicVirtualTime runs the same mixed collective sequence —
// the per-rank adapter on one goroutine per rank, then a vote and batched
// gathers — on fresh communicators and demands bit-identical clocks,
// whatever the scheduler did.
func TestDeterministicVirtualTime(t *testing.T) {
	run := func() []float64 {
		const g = 5
		c, clocks := newCostComm(g)
		runRanks(g, func(rank int) {
			x := make([]float32, 333)
			c.AllReduce(rank, x, nil)
		})
		c.AgreeRanks(make([]bool, g))
		ints := make([][]int, g)
		floats := make([][]float32, g)
		for r := range ints {
			ints[r], floats[r] = make([]int, 10+r), make([]float32, 50)
		}
		c.AllGatherIntsRanks(ints)
		c.AllGatherFloatsRanks(floats, half.NewScaler(1))
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
	})
	c.AgreeRanks(make([]bool, g))
}

// TestDetachedCostStopsPricing: AttachCost(nil) detaches the model, so later
// collectives are still counted but move none of its clocks.
func TestDetachedCostStopsPricing(t *testing.T) {
	const g = 3
	c, clocks := newCostComm(g)
	runRanks(g, func(rank int) { c.AllReduce(rank, make([]float32, 64), nil) })
	before := make([]float64, g)
	for r, ck := range clocks {
		if before[r] = ck.Now(); before[r] <= 0 {
			t.Fatalf("rank %d clock %v: the attached model did not price the all-reduce", r, before[r])
		}
	}
	c.AttachCost(nil)
	if c.Cost() != nil {
		t.Fatal("Cost() after AttachCost(nil) must be nil")
	}
	runRanks(g, func(rank int) { c.AllReduce(rank, make([]float32, 64), nil) })
	c.AllGatherIntsRanks([][]int{{1}, {2, 3}, {}})
	c.AgreeRanks(make([]bool, g))
	for r, ck := range clocks {
		if ck.Now() != before[r] {
			t.Errorf("rank %d clock moved from %v to %v after detaching", r, before[r], ck.Now())
		}
		if s := c.RankStats(r); s.AllReduceCalls != 2 || s.AllGatherCalls != 1 {
			t.Errorf("rank %d stats %+v, want 2 all-reduces and 1 all-gather counted", r, s)
		}
	}
}

func TestAttachCostValidatesClockCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched clock count must panic")
		}
	}()
	New(3).AttachCost(&CostModel{Link: testLink, Clocks: make([]*vclock.Clock, 2)})
}
