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
		wire := half.NewScaler(512)
		runRanks(g, func(rank int) {
			buf := make([]float32, n)
			copy(buf, inputs[rank])
			c.AllReduce(rank, buf, wire)
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
	c2, fp16 := New(g), half.NewScaler(1)
	runRanks(g, func(rank int) {
		buf := make([]float32, n)
		c2.AllReduce(rank, buf, fp16)
	})
	if got := c2.RankStats(0).AllReduceBytes; got != wantBytes/2 {
		t.Errorf("FP16 AllReduceBytes = %d, want %d", got, wantBytes/2)
	}
}

// TestAllGatherInts: the batched index gather accounts the ring all-gather
// volume of ragged payloads, int32 on the wire, on every rank, and leaves
// the payloads alone.
func TestAllGatherInts(t *testing.T) {
	for _, g := range []int{1, 3, 6} {
		c := New(g)
		payloads := make([][]int, g)
		var total int64
		for r := range payloads {
			payloads[r] = make([]int, r+1) // variable lengths
			for i := range payloads[r] {
				payloads[r][i] = r*100 + i
			}
			total += int64(4 * (r + 1))
		}
		c.AllGatherIntsRanks(payloads)
		for r := 0; r < g; r++ {
			for i, v := range payloads[r] {
				if v != r*100+i {
					t.Fatalf("g=%d: payload %d elem %d rewritten to %d", g, r, i, v)
				}
			}
			want := Stats{AllGatherCalls: 1, AllGatherBytes: total * int64(g-1) / int64(g)}
			if s := c.RankStats(r); s != want {
				t.Fatalf("g=%d rank %d: stats %+v, want %+v", g, r, s, want)
			}
		}
	}
}

// TestAllGatherIntsReuseAcrossRounds: counts accumulate call by call.
func TestAllGatherIntsReuseAcrossRounds(t *testing.T) {
	const g = 3
	c := New(g)
	for round := 1; round <= 5; round++ {
		payloads := make([][]int, g)
		for r := range payloads {
			payloads[r] = []int{round*10 + r}
		}
		c.AllGatherIntsRanks(payloads)
		for r := 0; r < g; r++ {
			if s := c.RankStats(r); s.AllGatherCalls != int64(round) || s.AllGatherBytes != int64(round*8) {
				t.Fatalf("round %d rank %d: stats %+v", round, r, s)
			}
		}
	}
}

// TestAllGatherFloats: every payload crosses the wire once, in place;
// without a wire it is left alone.
func TestAllGatherFloats(t *testing.T) {
	const g = 4
	for _, wire := range []Wire{nil, half.NewScaler(512)} {
		c := New(g)
		payloads := make([][]float32, g)
		for r := range payloads {
			payloads[r] = []float32{float32(r) + 1.0/3, float32(r) * 2}
		}
		c.AllGatherFloatsRanks(payloads, wire)
		for r := 0; r < g; r++ {
			want := []float32{float32(r) + 1.0/3, float32(r) * 2}
			if wire != nil {
				half.NewScaler(512).RoundTrip(want)
			}
			if payloads[r][0] != want[0] || payloads[r][1] != want[1] {
				t.Fatalf("fp16=%v: rank %d payload %v, want %v", wire != nil, r, payloads[r], want)
			}
		}
	}
}

func TestAllGatherFloatsFP16HalvesBytes(t *testing.T) {
	const g, n = 4, 100
	run := func(wire Wire) int64 {
		c := New(g)
		payloads := make([][]float32, g)
		for r := range payloads {
			payloads[r] = make([]float32, n)
		}
		c.AllGatherFloatsRanks(payloads, wire)
		return c.RankStats(0).AllGatherBytes
	}
	fp32 := run(nil)
	fp16 := run(half.NewScaler(1))
	if fp16*2 != fp32 {
		t.Errorf("FP16 gather bytes %d, FP32 %d; want exactly half", fp16, fp32)
	}
}

func TestAgreeRanks(t *testing.T) {
	const g = 4
	for _, badRank := range []int{-1, 0, 2} { // -1 = all ok
		c := New(g)
		votes := make([]bool, g)
		for rank := range votes {
			votes[rank] = rank != badRank
		}
		if got, want := c.AgreeRanks(votes), badRank == -1; got != want {
			t.Errorf("badRank=%d: got %v, want %v", badRank, got, want)
		}
		// Control plane must not count as data traffic.
		if c.RankStats(0).Total() != 0 {
			t.Error("AgreeRanks added data-plane bytes")
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
	parts := make([][][]float32, g)
	for i := range parts {
		parts[i] = [][]float32{make([]float32, n)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AllReduceRanks(parts, nil)
	}
}
