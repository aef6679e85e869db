package collective

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// rawF32Decoder is the simplest possible payload format — packed little
// endian float32 (index, value) pairs — standing in for the real
// compressors, which live a layer up in internal/compress.
type rawF32Decoder struct{}

func (rawF32Decoder) DecodeAdd(acc []float32, payload []byte) error {
	if len(payload)%8 != 0 {
		return fmt.Errorf("ragged payload of %d bytes", len(payload))
	}
	for o := 0; o < len(payload); o += 8 {
		i := int(binary.LittleEndian.Uint32(payload[o:]))
		if i >= len(acc) {
			return fmt.Errorf("index %d out of range %d", i, len(acc))
		}
		acc[i] += math.Float32frombits(binary.LittleEndian.Uint32(payload[o+4:]))
	}
	return nil
}

func encodePairs(pairs map[int]float32, order []int) []byte {
	var b []byte
	for _, i := range order {
		b = binary.LittleEndian.AppendUint32(b, uint32(i))
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(pairs[i]))
	}
	return b
}

func TestAllReduceCompressedIdenticalAcrossRanks(t *testing.T) {
	const g, n = 4, 32
	c := New(g)
	results := make([][]float32, g)
	runRanks(g, func(rank int) {
		x := make([]float32, n)
		// Each rank "compresses away" everything but two entries.
		payload := encodePairs(map[int]float32{
			rank:             float32(rank + 1),
			(2*rank + 1) % n: 0.5,
		}, []int{rank, (2*rank + 1) % n})
		if err := c.AllReduceCompressed(rank, x, payload, rawF32Decoder{}); err != nil {
			t.Error(err)
		}
		results[rank] = x
	})
	for r := 1; r < g; r++ {
		for i := range results[0] {
			if results[r][i] != results[0][i] {
				t.Fatalf("rank %d diverges at %d: %v vs %v", r, i, results[r][i], results[0][i])
			}
		}
	}
	// Spot-check the sum semantics against a scalar reference.
	for i := 0; i < n; i++ {
		var sum float32
		for peer := 0; peer < g; peer++ {
			if peer == i {
				sum += float32(peer + 1)
			}
			if (2*peer+1)%n == i {
				sum += 0.5
			}
		}
		if results[0][i] != sum {
			t.Fatalf("index %d holds %v, want %v", i, results[0][i], sum)
		}
	}
}

func TestAllReduceCompressedOverwritesDestination(t *testing.T) {
	c := New(1)
	x := []float32{7, 7, 7, 7}
	payload := encodePairs(map[int]float32{2: 1.5}, []int{2})
	if err := c.AllReduceCompressed(0, x, payload, rawF32Decoder{}); err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 0, 1.5, 0}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("x = %v, want %v (previous contents must be discarded)", x, want)
		}
	}
}

func TestAllReduceCompressedAccountsCompressedBytes(t *testing.T) {
	const g, n = 4, 1000
	// Dense ring reference.
	dense := New(g)
	runRanks(g, func(rank int) {
		dense.AllReduce(rank, make([]float32, n), nil)
	})
	denseBytes := dense.MaxStats().AllReduceBytes

	// Compressed: 10 pairs of 8 bytes per rank.
	comp := New(g)
	runRanks(g, func(rank int) {
		pairs := map[int]float32{}
		var order []int
		for i := 0; i < 10; i++ {
			pairs[i*7] = 1
			order = append(order, i*7)
		}
		x := make([]float32, n)
		if err := comp.AllReduceCompressed(rank, x, encodePairs(pairs, order), rawF32Decoder{}); err != nil {
			t.Error(err)
		}
	})
	st := comp.MaxStats()
	wantBytes := int64(g*10*8) * (g - 1) / g
	if st.AllReduceBytes != wantBytes {
		t.Fatalf("compressed bytes %d, want ring all-gather volume %d", st.AllReduceBytes, wantBytes)
	}
	if st.AllReduceCalls != 1 {
		t.Fatalf("compressed call count %d, want 1", st.AllReduceCalls)
	}
	if st.AllReduceBytes >= denseBytes {
		t.Fatalf("compressed %d bytes not below dense %d", st.AllReduceBytes, denseBytes)
	}
}

func TestAllReduceCompressedChargesCostModel(t *testing.T) {
	const g = 4
	run := func() float64 {
		c, clocks := newCostComm(g)
		runRanks(g, func(rank int) {
			x := make([]float32, 64)
			payload := encodePairs(map[int]float32{rank: 1}, []int{rank})
			if err := c.AllReduceCompressed(rank, x, payload, rawF32Decoder{}); err != nil {
				t.Error(err)
			}
		})
		max := 0.0
		for _, cl := range clocks {
			if cl.Now() > max {
				max = cl.Now()
			}
		}
		return max
	}
	first := run()
	want := testLink.RingAllGatherSeconds(g, 8)
	if !eqTime(first, want) {
		t.Fatalf("charged %v, want all-gather of the max payload %v", first, want)
	}
	if again := run(); again != first {
		t.Fatalf("cost not deterministic: %v vs %v", again, first)
	}
}

func TestAllReduceCompressedDecodeErrorPropagates(t *testing.T) {
	const g = 2
	c := New(g)
	errs := make([]error, g)
	runRanks(g, func(rank int) {
		x := make([]float32, 4)
		// 5 bytes: ragged on every rank, so all ranks fail together and
		// nobody deadlocks in a half-abandoned collective.
		errs[rank] = c.AllReduceCompressed(rank, x, []byte{1, 2, 3, 4, 5}, rawF32Decoder{})
	})
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d decoded a ragged payload", r)
		}
	}
	// The communicator must remain usable after the failed collective.
	runRanks(g, func(rank int) {
		c.AllReduce(rank, make([]float32, 8), nil)
	})
}
