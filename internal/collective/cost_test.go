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

func newCostComm(g int) (*Comm, *vclock.Clock) {
	c := New(g)
	clock := new(vclock.Clock)
	c.AttachCost(&CostModel{Link: testLink, Clock: clock})
	return c, clock
}

func eqTime(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestAllReduceAdvancesClock(t *testing.T) {
	const g, n = 4, 1000
	c, clock := newCostComm(g)
	runRanks(g, func(rank int) {
		x := make([]float32, n)
		x[rank] = 1
		c.AllReduce(rank, x, nil)
	})
	want := testLink.RingAllReduceSeconds(g, 4*((n+g-1)/g))
	if want <= 0 {
		t.Fatal("expected a positive ring duration")
	}
	if !eqTime(clock.Now(), want) {
		t.Errorf("clock %v, want %v", clock.Now(), want)
	}

	// FP16 halves per-element wire cost.
	fp16 := half.NewScaler(1)
	runRanks(g, func(rank int) {
		x := make([]float32, n)
		c.AllReduce(rank, x, fp16)
	})
	want += testLink.RingAllReduceSeconds(g, 2*((n+g-1)/g))
	if !eqTime(clock.Now(), want) {
		t.Errorf("after FP16 op: clock %v, want %v", clock.Now(), want)
	}
}

func TestAllGatherChargesLargestPayload(t *testing.T) {
	const g = 3
	c, clock := newCostComm(g)
	sizes := []int{2, 7, 4}
	ints := make([][]int, g)
	floats := make([][]float32, g)
	for r, n := range sizes {
		ints[r], floats[r] = make([]int, n), make([]float32, n)
	}
	c.AllGatherIntsRanks(ints)
	want := testLink.RingAllGatherSeconds(g, int64(4*7))
	if !eqTime(clock.Now(), want) {
		t.Errorf("ints: clock %v, want %v", clock.Now(), want)
	}
	c.AllGatherFloatsRanks(floats, nil)
	want += testLink.RingAllGatherSeconds(g, int64(4*7))
	if !eqTime(clock.Now(), want) {
		t.Errorf("floats: clock %v, want %v", clock.Now(), want)
	}
}

// TestDeterministicVirtualTime runs the same mixed collective sequence —
// the per-rank adapter on one goroutine per rank, then a vote and batched
// gathers — on fresh communicators and demands a bit-identical clock,
// whatever the scheduler did.
func TestDeterministicVirtualTime(t *testing.T) {
	run := func() float64 {
		const g = 5
		c, clock := newCostComm(g)
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
		return clock.Now()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("virtual time not reproducible: run1 %v, run2 %v", a, b)
	}
	if a <= 0 {
		t.Fatal("clock never advanced")
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
// collectives are still counted but do not move its clock.
func TestDetachedCostStopsPricing(t *testing.T) {
	const g = 3
	c, clock := newCostComm(g)
	runRanks(g, func(rank int) { c.AllReduce(rank, make([]float32, 64), nil) })
	before := clock.Now()
	if before <= 0 {
		t.Fatalf("clock %v: the attached model did not price the all-reduce", before)
	}
	c.AttachCost(nil)
	if c.Cost() != nil {
		t.Fatal("Cost() after AttachCost(nil) must be nil")
	}
	runRanks(g, func(rank int) { c.AllReduce(rank, make([]float32, 64), nil) })
	c.AllGatherIntsRanks([][]int{{1}, {2, 3}, {}})
	c.AgreeRanks(make([]bool, g))
	if clock.Now() != before {
		t.Errorf("clock moved from %v to %v after detaching", before, clock.Now())
	}
	for r := 0; r < g; r++ {
		if s := c.RankStats(r); s.AllReduceCalls != 2 || s.AllGatherCalls != 1 {
			t.Errorf("rank %d stats %+v, want 2 all-reduces and 1 all-gather counted", r, s)
		}
	}
}
