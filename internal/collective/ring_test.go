package collective

import (
	"fmt"
	"testing"

	"zipflm/internal/half"
)

// TestRingOneMessagePerHop pins the rendezvous count: an all-reduce is
// 2·(G−1) ring messages per rank whether it carries no tensor, one or
// seventeen, on either lane and on either side of the wire's rounding. A
// ring that exchanged one message per (hop, tensor) — what this package did
// before hops carried part lists — reads 2·(G−1)·17 on the last row.
func TestRingOneMessagePerHop(t *testing.T) {
	for _, g := range []int{1, 2, 4, 7} {
		for _, nparts := range []int{0, 1, 17} {
			for _, wire := range []Wire{nil, half.NewScaler(256)} {
				shapes := make([]int, nparts)
				for i := range shapes {
					shapes[i] = 3*i + 1
				}
				tensors, _ := makeTensors(g, shapes, 11)
				c := New(g)
				for _, lane := range []*Comm{c, c.Side()} {
					runRanks(g, func(rank int) { lane.AllReduceParts(rank, tensors[rank], wire) })
					ctx := fmt.Sprintf("g=%d parts=%d fp16=%v track=%d", g, nparts, wire != nil, lane.track)
					for r, got := range lane.hops {
						if want := int64(2 * (g - 1)); got != want {
							t.Errorf("%s: rank %d exchanged %d ring messages, want %d", ctx, r, got, want)
						}
					}
				}
			}
		}
	}

	// AllReduce is the one-part case, not a second path.
	const g = 4
	c := New(g)
	runRanks(g, func(rank int) { c.AllReduce(rank, make([]float32, 100), nil) })
	for r, got := range c.hops {
		if got != 2*(g-1) {
			t.Errorf("AllReduce: rank %d exchanged %d ring messages, want %d", r, got, 2*(g-1))
		}
	}
}
