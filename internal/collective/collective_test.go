package collective

import (
	"math"
	"sync"
	"testing"

	"zipflm/internal/half"
	"zipflm/internal/rng"
)

// runRanks executes fn on g goroutines (one per rank) and waits.
func runRanks(g int, fn func(rank int)) {
	var wg sync.WaitGroup
	for r := 0; r < g; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			fn(rank)
		}(r)
	}
	wg.Wait()
}

func TestAllReduceMatchesSerialSum(t *testing.T) {
	for _, g := range []int{1, 2, 3, 5, 8} {
		for _, n := range []int{0, 1, 3, 7, 64, 100} {
			c := New(g)
			r := rng.New(uint64(g*1000 + n))
			inputs := make([][]float32, g)
			want := make([]float64, n)
			for rank := range inputs {
				inputs[rank] = make([]float32, n)
				for i := range inputs[rank] {
					inputs[rank][i] = float32(r.NormFloat64())
					want[i] += float64(inputs[rank][i])
				}
			}
			outputs := make([][]float32, g)
			runRanks(g, func(rank int) {
				buf := make([]float32, n)
				copy(buf, inputs[rank])
				c.AllReduce(rank, buf, nil)
				outputs[rank] = buf
			})
			for rank := 0; rank < g; rank++ {
				for i := 0; i < n; i++ {
					if math.Abs(float64(outputs[rank][i])-want[i]) > 1e-4 {
						t.Fatalf("g=%d n=%d rank=%d elem %d: got %v, want %v",
							g, n, rank, i, outputs[rank][i], want[i])
					}
				}
			}
			// All ranks must agree exactly (same reduction order per chunk).
			for rank := 1; rank < g; rank++ {
				for i := 0; i < n; i++ {
					if outputs[rank][i] != outputs[0][i] {
						t.Fatalf("g=%d n=%d: ranks disagree at %d", g, n, i)
					}
				}
			}
		}
	}
}

func TestAllReduceFP16Wire(t *testing.T) {
	const g, n = 4, 32
	c := New(g)
	inputs := make([][]float32, g)
	want := make([]float64, n)
	r := rng.New(5)
	for rank := range inputs {
		inputs[rank] = make([]float32, n)
		for i := range inputs[rank] {
			inputs[rank][i] = float32(r.NormFloat64())
			want[i] += float64(inputs[rank][i])
		}
	}
	scaler := half.NewScaler(512)
	outputs := make([][]float32, g)
	runRanks(g, func(rank int) {
		buf := make([]float32, n)
		copy(buf, inputs[rank])
		c.AllReduce(rank, buf, scaler)
		outputs[rank] = buf
	})
	for i := 0; i < n; i++ {
		// FP16 per-hop rounding: tolerance scales with magnitude.
		tol := math.Abs(want[i])*0.01 + 0.01
		if math.Abs(float64(outputs[0][i])-want[i]) > tol {
			t.Errorf("elem %d: got %v, want %v (±%v)", i, outputs[0][i], want[i], tol)
		}
	}
}

// TestAllReduceFP16RanksBitIdentical is the §II-B synchronization invariant
// under compression: every rank must end with *bit-identical* values, or
// data-parallel replicas silently diverge (regression test for the chunk-
// owner rounding bug).
func TestAllReduceFP16RanksBitIdentical(t *testing.T) {
	for _, g := range []int{2, 3, 4, 8} {
		const n = 37 // deliberately not divisible by g
		c := New(g)
		r := rng.New(uint64(g))
		inputs := make([][]float32, g)
		for rank := range inputs {
			inputs[rank] = make([]float32, n)
			for i := range inputs[rank] {
				inputs[rank][i] = float32(r.NormFloat64())
			}
		}
		outputs := make([][]float32, g)
		runRanks(g, func(rank int) {
			buf := make([]float32, n)
			copy(buf, inputs[rank])
			c.AllReduce(rank, buf, half.NewScaler(512))
			outputs[rank] = buf
		})
		for rank := 1; rank < g; rank++ {
			for i := 0; i < n; i++ {
				if outputs[rank][i] != outputs[0][i] {
					t.Fatalf("g=%d: rank %d diverged at %d: %v vs %v",
						g, rank, i, outputs[rank][i], outputs[0][i])
				}
			}
		}
	}
}

// TestAllReduceTrafficVolume verifies the measured wire volume matches the
// ring all-reduce bound 2·(G−1)/G·bytes per rank.
func TestAllReduceTrafficVolume(t *testing.T) {
	const g, n = 4, 64 // n divisible by g for exact chunking
	c := New(g)
	runRanks(g, func(rank int) {
		buf := make([]float32, n)
		c.AllReduce(rank, buf, nil)
	})
	wantBytes := int64(2 * (g - 1) * (n / g) * 4)
	for rank := 0; rank < g; rank++ {
		s := c.RankStats(rank)
		if s.AllReduceBytes != wantBytes {
			t.Errorf("rank %d: AllReduceBytes = %d, want %d", rank, s.AllReduceBytes, wantBytes)
		}
		if s.AllReduceCalls != 1 {
			t.Errorf("rank %d: calls = %d, want 1", rank, s.AllReduceCalls)
		}
	}
	// FP16 wire must halve the volume.
	c2 := New(g)
	runRanks(g, func(rank int) {
		buf := make([]float32, n)
		c2.AllReduce(rank, buf, half.NewScaler(1))
	})
	if got := c2.RankStats(0).AllReduceBytes; got != wantBytes/2 {
		t.Errorf("FP16 AllReduceBytes = %d, want %d", got, wantBytes/2)
	}
}

func TestAllGatherInts(t *testing.T) {
	for _, g := range []int{1, 3, 6} {
		c := New(g)
		results := make([][][]int, g)
		runRanks(g, func(rank int) {
			local := make([]int, rank+1) // variable lengths
			for i := range local {
				local[i] = rank*100 + i
			}
			results[rank] = c.AllGatherInts(rank, local)
		})
		for rank := 0; rank < g; rank++ {
			got := results[rank]
			if len(got) != g {
				t.Fatalf("g=%d rank=%d: %d slices", g, rank, len(got))
			}
			for r := 0; r < g; r++ {
				if len(got[r]) != r+1 {
					t.Fatalf("g=%d rank=%d: slice %d has len %d, want %d", g, rank, r, len(got[r]), r+1)
				}
				for i, v := range got[r] {
					if v != r*100+i {
						t.Fatalf("g=%d rank=%d: slice %d elem %d = %d", g, rank, r, i, v)
					}
				}
			}
		}
	}
}

func TestAllGatherIntsReuseAcrossRounds(t *testing.T) {
	const g = 3
	c := New(g)
	for round := 0; round < 5; round++ {
		results := make([][][]int, g)
		runRanks(g, func(rank int) {
			results[rank] = c.AllGatherInts(rank, []int{round*10 + rank})
		})
		for rank := 0; rank < g; rank++ {
			for r := 0; r < g; r++ {
				if results[rank][r][0] != round*10+r {
					t.Fatalf("round %d rank %d: got %v", round, rank, results[rank])
				}
			}
		}
	}
}

func TestAllGatherFloats(t *testing.T) {
	const g = 4
	c := New(g)
	results := make([][][]float32, g)
	runRanks(g, func(rank int) {
		local := []float32{float32(rank), float32(rank) * 2}
		results[rank] = c.AllGatherFloats(rank, local, nil)
	})
	for rank := 0; rank < g; rank++ {
		for r := 0; r < g; r++ {
			if results[rank][r][0] != float32(r) || results[rank][r][1] != float32(r)*2 {
				t.Fatalf("rank %d slice %d = %v", rank, r, results[rank][r])
			}
		}
	}
	// Returned slices must be caller-owned copies.
	results[0][1][0] = 999
	if results[1][1][0] == 999 {
		t.Error("AllGatherFloats returned shared storage")
	}
}

func TestAllGatherFloatsFP16HalvesBytes(t *testing.T) {
	const g, n = 4, 100
	run := func(wire Wire) int64 {
		c := New(g)
		runRanks(g, func(rank int) {
			c.AllGatherFloats(rank, make([]float32, n), wire)
		})
		return c.RankStats(0).AllGatherBytes
	}
	fp32 := run(nil)
	fp16 := run(half.NewScaler(1))
	if fp16*2 != fp32 {
		t.Errorf("FP16 gather bytes %d, FP32 %d; want exactly half", fp16, fp32)
	}
}

func TestBroadcast(t *testing.T) {
	const g = 5
	c := New(g)
	results := make([][]float32, g)
	root := []float32{7, 8, 9}
	runRanks(g, func(rank int) {
		var buf []float32 // only the root's slice travels
		if rank == 2 {
			buf = root
		}
		results[rank] = c.BroadcastFloatsVar(rank, 2, buf)
	})
	for rank := 0; rank < g; rank++ {
		if len(results[rank]) != 3 || results[rank][0] != 7 || results[rank][2] != 9 {
			t.Fatalf("rank %d got %v", rank, results[rank])
		}
	}
	// Every rank, the root included, owns its copy.
	results[2][0] = 0
	if root[0] != 7 || results[0][0] != 7 {
		t.Fatal("BroadcastFloatsVar returned shared storage")
	}
	if got := c.RankStats(2).BroadcastBytes; got != 12 {
		t.Fatalf("root accounted %d broadcast bytes, want 12", got)
	}
}

func TestAgreeAllOK(t *testing.T) {
	const g = 4
	for _, badRank := range []int{-1, 0, 2} { // -1 = all ok
		c := New(g)
		results := make([]bool, g)
		runRanks(g, func(rank int) {
			results[rank] = c.AgreeAllOK(rank, rank != badRank)
		})
		want := badRank == -1
		for rank := 0; rank < g; rank++ {
			if results[rank] != want {
				t.Errorf("badRank=%d rank=%d: got %v, want %v", badRank, rank, results[rank], want)
			}
		}
		// Control plane must not count as data traffic.
		if c.RankStats(0).Total() != 0 {
			t.Error("AgreeAllOK added data-plane bytes")
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	b := NewBarrier(4)
	counter := 0
	var mu sync.Mutex
	runRanks(4, func(rank int) {
		for round := 0; round < 10; round++ {
			mu.Lock()
			counter++
			mu.Unlock()
			b.Wait()
			// After the barrier, all 4 increments of this round must
			// be visible.
			mu.Lock()
			if counter < (round+1)*4 {
				t.Errorf("barrier leaked: counter=%d in round %d", counter, round)
			}
			mu.Unlock()
			b.Wait()
		}
	})
	if counter != 40 {
		t.Fatalf("counter = %d, want 40", counter)
	}
}

func TestStatsArithmetic(t *testing.T) {
	a := Stats{AllReduceBytes: 100, AllGatherBytes: 50, BroadcastBytes: 10, AllReduceCalls: 2}
	b := Stats{AllReduceBytes: 40, AllGatherBytes: 20, BroadcastBytes: 10, AllReduceCalls: 1}
	d := a.Sub(b)
	if d.AllReduceBytes != 60 || d.AllGatherBytes != 30 || d.BroadcastBytes != 0 || d.AllReduceCalls != 1 {
		t.Errorf("Sub = %+v", d)
	}
	if a.Total() != 160 {
		t.Errorf("Total = %d, want 160", a.Total())
	}
	var acc Stats
	acc.Add(a)
	acc.Add(b)
	if acc.AllReduceBytes != 140 {
		t.Errorf("Add = %+v", acc)
	}
}

func TestSingleRankShortCircuits(t *testing.T) {
	c := New(1)
	buf := []float32{1, 2, 3}
	c.AllReduce(0, buf, nil)
	if buf[0] != 1 || buf[2] != 3 {
		t.Error("single-rank AllReduce must be identity")
	}
	if c.RankStats(0).AllReduceBytes != 0 {
		t.Error("single-rank AllReduce must move no bytes")
	}
}

func TestNewPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0) },
		func() { NewBarrier(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func BenchmarkAllReduce8x4096(b *testing.B) {
	const g, n = 8, 4096
	c := New(g)
	bufs := make([][]float32, g)
	for i := range bufs {
		bufs[i] = make([]float32, n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runRanks(g, func(rank int) {
			c.AllReduce(rank, bufs[rank], nil)
		})
	}
}
