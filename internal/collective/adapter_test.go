package collective

import (
	"testing"

	"zipflm/internal/half"
	"zipflm/internal/rng"
	"zipflm/internal/vclock"
)

// makeTensors builds, for each rank, the same set of tensor shapes filled
// with rank-dependent pseudo-random values, returning two full copies so
// two paths can reduce identical inputs.
func makeTensors(g int, shapes []int, seed uint64) (a, b [][][]float32) {
	a = make([][][]float32, g)
	b = make([][][]float32, g)
	for r := 0; r < g; r++ {
		rr := rng.New(seed + uint64(r)*1315423911)
		a[r] = make([][]float32, len(shapes))
		b[r] = make([][]float32, len(shapes))
		for i, n := range shapes {
			a[r][i] = make([]float32, n)
			b[r][i] = make([]float32, n)
			for j := range a[r][i] {
				v := float32(rr.Float64()*4 - 2)
				a[r][i][j] = v
				b[r][i][j] = v
			}
		}
	}
	return a, b
}

// TestFusedPartsMatchPerTensor is the equivalence the trainer's overlap
// mode rests on: one AllReduceRanks call over a part list changes neither
// rank 0's reduced values (bit for bit, FP16 rounding points included) nor
// the per-rank Stats relative to one AllReduce per tensor.
func TestFusedPartsMatchPerTensor(t *testing.T) {
	shapes := []int{7, 1, 33, 0, 12, 64, 5}
	for _, wire := range []Wire{nil, half.NewScaler(512)} {
		for _, g := range []int{1, 2, 3, 4, 7} {
			perTensor, fused := makeTensors(g, shapes, 7)
			pc, fc := New(g), New(g)
			runRanks(g, func(rank int) {
				for _, x := range perTensor[rank] {
					pc.AllReduce(rank, x, wire)
				}
			})
			fc.AllReduceRanks(fused, wire)
			for i := range shapes {
				for j := range perTensor[0][i] {
					if perTensor[0][i][j] != fused[0][i][j] {
						t.Fatalf("g=%d fp16=%v: tensor %d elem %d: per-tensor %v fused %v",
							g, wire != nil, i, j, perTensor[0][i][j], fused[0][i][j])
					}
				}
			}
			for r := 0; r < g; r++ {
				if pc.RankStats(r) != fc.RankStats(r) {
					t.Fatalf("g=%d fp16=%v: rank %d stats diverge: per-tensor %+v fused %+v",
						g, wire != nil, r, pc.RankStats(r), fc.RankStats(r))
				}
			}
		}
	}
}

// agreeRank is a per-rank vote built on Rendezvous: every rank posts its
// vote, rank 0 runs AgreeRanks for the group, and every rank reads the
// answer.
func agreeRank(c *Comm, rank int, ok bool) bool {
	type vote struct{ ok, all bool }
	mine := &vote{ok: ok}
	c.Rendezvous(rank, mine, func(posts []any) {
		votes := make([]bool, len(posts))
		for r, p := range posts {
			votes[r] = p.(*vote).ok
		}
		all := c.AgreeRanks(votes)
		for _, p := range posts {
			p.(*vote).all = all
		}
	})
	return mine.all
}

// TestRendezvousRoundsDoNotInterleave: every rank's goroutine alternates
// AllReduce and a Rendezvous vote, round after round. Were a rendezvous
// slot, barrier generation or scratch slice reused too early, a round would
// deliver the wrong result or hang; -race additionally checks the counters.
func TestRendezvousRoundsDoNotInterleave(t *testing.T) {
	const g, rounds, n = 4, 40, 96
	c := New(g)
	runRanks(g, func(rank int) {
		x := make([]float32, n)
		for round := 0; round < rounds; round++ {
			for i := range x {
				x[i] = float32(rank + i)
			}
			c.AllReduce(rank, x, nil)
			for i, v := range x {
				if want := float32(g*i + g*(g-1)/2); v != want {
					t.Errorf("round %d rank %d: sum[%d] = %v, want %v", round, rank, i, v, want)
				}
			}
			if !agreeRank(c, rank, true) {
				t.Errorf("round %d rank %d: a unanimous vote failed", round, rank)
			}
		}
	})

	var wantMax Stats
	for r := 0; r < g; r++ {
		s := c.RankStats(r)
		if s.AllReduceCalls != rounds || s.AllGatherCalls != 0 {
			t.Fatalf("rank %d: %d all-reduce and %d all-gather calls, want %d and 0",
				r, s.AllReduceCalls, s.AllGatherCalls, rounds)
		}
		wantMax.AllReduceCalls = max(wantMax.AllReduceCalls, s.AllReduceCalls)
		wantMax.AllReduceBytes = max(wantMax.AllReduceBytes, s.AllReduceBytes)
	}
	if c.MaxStats() != wantMax {
		t.Fatalf("MaxStats %+v, want the max over ranks %+v", c.MaxStats(), wantMax)
	}
}

// TestAdapterRefusesMixedCalls: ranks of the per-rank AllReduce that post
// different wires — even two FP16 scalers of one factor — or tensors
// of different lengths make every rank panic with a message naming the
// first rank at fault, before any buffer is read or written or anything is
// counted; a matched call on the same communicator then goes through.
func TestAdapterRefusesMixedCalls(t *testing.T) {
	const g = 3
	fp16, twin := half.NewScaler(512), half.NewScaler(512)
	for _, tc := range []struct {
		name  string
		wires []Wire
		lens  []int
		msg   string
	}{
		{"one wire", []Wire{fp16, fp16, fp16}, []int{4, 4, 4}, ""},
		{"fp32 beside fp16", []Wire{fp16, fp16, nil}, []int{4, 4, 4},
			"collective: rank 2 posts another wire (fp32 <nil>) than rank 0 (fp16 &{512})"},
		{"two scalers", []Wire{fp16, twin, fp16}, []int{4, 4, 4},
			"collective: rank 1 posts another wire (fp16 &{512}) than rank 0 (fp16 &{512})"},
		{"ragged lengths", []Wire{nil, nil, nil}, []int{4, 5, 4},
			"collective: rank 1 part 0 has 5 elements, rank 0's has 4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(g)
			xs := make([][]float32, g)
			for r := range xs {
				xs[r] = make([]float32, tc.lens[r])
				for i := range xs[r] {
					xs[r][i] = float32(r + 1)
				}
			}
			got := make([]any, g)
			runRanks(g, func(rank int) {
				defer func() { got[rank] = recover() }()
				c.AllReduce(rank, xs[rank], tc.wires[rank])
			})
			for r := range got {
				if tc.msg == "" && got[r] != nil {
					t.Fatalf("rank %d panicked: %v", r, got[r])
				}
				if tc.msg != "" && got[r] != tc.msg {
					t.Fatalf("rank %d panic %v, want %q", r, got[r], tc.msg)
				}
			}
			if tc.msg == "" {
				return
			}
			for r, x := range xs {
				for i, v := range x {
					if v != float32(r+1) {
						t.Fatalf("a refused call wrote rank %d elem %d: %v", r, i, v)
					}
				}
				if c.RankStats(r) != (Stats{}) {
					t.Fatalf("a refused call was counted on rank %d: %+v", r, c.RankStats(r))
				}
			}
			runRanks(g, func(rank int) { c.AllReduce(rank, xs[0], nil) })
			if c.RankStats(0).AllReduceCalls != 1 {
				t.Fatalf("the call after a refused one: stats %+v", c.RankStats(0))
			}
		})
	}
}

// TestReattachedCostPricesOnNewClockOnly: re-attaching a cost model prices
// later collectives — a part list as one ring over the tensors' summed
// chunk bytes — on the new model's clock only, and re-attaching the first
// model prices the calls after that on its clock again.
func TestReattachedCostPricesOnNewClockOnly(t *testing.T) {
	const g = 4
	c, primary := newCostComm(g)
	device := c.Cost()
	// The payload became ready at 3 ms on the lane clock; the charge
	// advances it from there.
	lane := new(vclock.Clock)
	lane.AdvanceTo(3e-3)
	c.AttachCost(&CostModel{Link: testLink, Clock: lane})

	shapes := []int{1000, 10, 7}
	tensors, _ := makeTensors(g, shapes, 3)
	c.AllReduceRanks(tensors, nil)
	var chunkBytes int64
	for _, n := range shapes {
		chunkBytes += int64(4 * ((n + g - 1) / g))
	}
	want := 3e-3 + testLink.RingAllReduceSeconds(g, chunkBytes)
	if !eqTime(lane.Now(), want) {
		t.Errorf("lane clock %v, want %v", lane.Now(), want)
	}
	if primary.Now() != 0 {
		t.Errorf("a call priced on the lane clock moved the first clock to %v", primary.Now())
	}

	c.AttachCost(device)
	runRanks(g, func(rank int) { c.AllReduce(rank, make([]float32, 100), nil) })
	if !eqTime(lane.Now(), want) {
		t.Errorf("a call after re-attaching moved the lane clock to %v", lane.Now())
	}
	if primary.Now() <= 0 {
		t.Error("the re-attached clock did not advance")
	}
}
