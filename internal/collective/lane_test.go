package collective

import (
	"sync"
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

// TestFusedPartsOnSideLaneMatchPerTensorOnPrimary is the equivalence the
// trainer's overlap mode rests on: one fused AllReduceParts pass on the
// side lane changes neither the reduced values (bit for bit, FP16 rounding
// points included) nor the per-rank Stats relative to one AllReduce per
// tensor on the primary lane.
func TestFusedPartsOnSideLaneMatchPerTensorOnPrimary(t *testing.T) {
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
			runRanks(g, func(rank int) {
				fc.Side().AllReduceParts(rank, fused[rank], wire)
			})
			for r := 0; r < g; r++ {
				for i := range shapes {
					for j := range perTensor[r][i] {
						if perTensor[r][i][j] != fused[r][i][j] {
							t.Fatalf("g=%d fp16=%v: rank %d tensor %d elem %d: per-tensor %v fused %v",
								g, wire != nil, r, i, j, perTensor[r][i][j], fused[r][i][j])
						}
					}
				}
				if pc.RankStats(r) != fc.RankStats(r) {
					t.Fatalf("g=%d fp16=%v: rank %d stats diverge: per-tensor %+v fused %+v",
						g, wire != nil, r, pc.RankStats(r), fc.RankStats(r))
				}
				if got := fc.LaneStats(r); got != (Stats{}) {
					t.Fatalf("g=%d: side-lane traffic leaked into the primary's LaneStats: %+v", g, got)
				}
				if fc.Side().LaneStats(r) != fc.RankStats(r) {
					t.Fatalf("g=%d: rank %d side LaneStats %+v != merged RankStats %+v",
						g, r, fc.Side().LaneStats(r), fc.RankStats(r))
				}
			}
		}
	}
}

// TestLanesRunConcurrentlyWithoutInterleaving drives both lanes at once,
// every rank running one goroutine per lane for many rounds: blackboard
// gathers and the compressed all-reduce on the side lane while the primary
// runs a ring all-reduce and a float gather. Were any ring channel,
// barrier generation or blackboard slot shared between the lanes, a round
// would deliver the wrong payload or hang; -race additionally checks the
// counters and pools.
func TestLanesRunConcurrentlyWithoutInterleaving(t *testing.T) {
	const g, rounds, n = 4, 40, 96
	c := New(g)
	side := c.Side()
	runRanks(g, func(rank int) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			acc := make([]float32, n)
			for round := 0; round < rounds; round++ {
				got := side.AllGatherInts(rank, []int{rank, round})
				for r := range got {
					if len(got[r]) != 2 || got[r][0] != r || got[r][1] != round {
						t.Errorf("round %d rank %d: side gather slot %d = %v", round, rank, r, got[r])
					}
				}
				payload := encodePairs(map[int]float32{rank: float32(round + 1)}, []int{rank})
				if err := side.AllReduceCompressed(rank, acc, payload, rawF32Decoder{}); err != nil {
					t.Errorf("round %d rank %d: %v", round, rank, err)
				}
				for i, v := range acc {
					want := float32(0)
					if i < g {
						want = float32(round + 1)
					}
					if v != want {
						t.Errorf("round %d rank %d: compressed sum[%d] = %v, want %v", round, rank, i, v, want)
					}
				}
			}
		}()
		x := make([]float32, n)
		for round := 0; round < rounds; round++ {
			for i := range x {
				x[i] = float32(rank + i)
			}
			c.AllReduce(rank, x, nil)
			for i, v := range x {
				if want := float32(g*i + g*(g-1)/2); v != want {
					t.Errorf("round %d rank %d: primary sum[%d] = %v, want %v", round, rank, i, v, want)
				}
			}
			rows := c.AllGatherFloats(rank, []float32{float32(rank), float32(round)}, nil)
			for r := range rows {
				if len(rows[r]) != 2 || rows[r][0] != float32(r) || rows[r][1] != float32(round) {
					t.Errorf("round %d rank %d: primary gather slot %d = %v", round, rank, r, rows[r])
				}
			}
		}
		wg.Wait()
	})

	// RankStats and MaxStats on the primary are the sum of the lanes.
	var wantMax Stats
	for r := 0; r < g; r++ {
		sum := c.LaneStats(r)
		sum.Add(side.LaneStats(r))
		if c.RankStats(r) != sum {
			t.Fatalf("rank %d: RankStats %+v != primary+side %+v", r, c.RankStats(r), sum)
		}
		if side.RankStats(r) != side.LaneStats(r) {
			t.Fatalf("rank %d: the side lane's RankStats must be its own lane only", r)
		}
		if sum.AllReduceCalls != 2*rounds || sum.AllGatherCalls != 2*rounds {
			t.Fatalf("rank %d: %d all-reduce and %d all-gather calls, want %d each",
				r, sum.AllReduceCalls, sum.AllGatherCalls, 2*rounds)
		}
		wantMax.AllReduceCalls = max(wantMax.AllReduceCalls, sum.AllReduceCalls)
		wantMax.AllReduceBytes = max(wantMax.AllReduceBytes, sum.AllReduceBytes)
		wantMax.AllGatherCalls = max(wantMax.AllGatherCalls, sum.AllGatherCalls)
		wantMax.AllGatherBytes = max(wantMax.AllGatherBytes, sum.AllGatherBytes)
	}
	if c.MaxStats() != wantMax {
		t.Fatalf("MaxStats %+v, want the max over ranks of both lanes %+v", c.MaxStats(), wantMax)
	}
}

// TestPricedSideLaneChargesOnlyItsOwnClocks: a cost model attached to the
// side lane prices side-lane collectives — the fused pass as one ring over
// the tensors' summed chunk bytes — onto the lane's own clocks, and neither
// lane's operations ever move the other's.
func TestPricedSideLaneChargesOnlyItsOwnClocks(t *testing.T) {
	const g = 4
	c, primary := newCostComm(g)
	lane := make([]*vclock.Clock, g)
	for i := range lane {
		lane[i] = new(vclock.Clock)
	}
	c.Side().AttachCost(&CostModel{Link: testLink, Clocks: lane})

	shapes := []int{1000, 10, 7}
	tensors, _ := makeTensors(g, shapes, 3)
	runRanks(g, func(rank int) {
		// The payload became ready at a rank-dependent time; the charge
		// max-syncs the lane clocks before advancing them.
		lane[rank].AdvanceTo(float64(rank) * 1e-3)
		c.Side().AllReduceParts(rank, tensors[rank], nil)
	})
	var chunkBytes int64
	for _, n := range shapes {
		chunkBytes += int64(4 * ((n + g - 1) / g))
	}
	want := float64(g-1)*1e-3 + testLink.RingAllReduceSecondsBytes(g, chunkBytes)
	for r := 0; r < g; r++ {
		if !eqTime(lane[r].Now(), want) {
			t.Errorf("rank %d lane clock %v, want %v", r, lane[r].Now(), want)
		}
		if primary[r].Now() != 0 {
			t.Errorf("rank %d: side-lane collective moved the primary clock to %v", r, primary[r].Now())
		}
	}

	runRanks(g, func(rank int) { c.AllReduce(rank, make([]float32, 100), nil) })
	for r := 0; r < g; r++ {
		if !eqTime(lane[r].Now(), want) {
			t.Errorf("rank %d: primary-lane collective moved the side clock to %v", r, lane[r].Now())
		}
		if primary[r].Now() <= 0 {
			t.Errorf("rank %d: primary clock did not advance", r)
		}
	}
}
