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

// TestAllReduceCompressedSumsIntoRankZero: the destination receives every
// rank's payload decoded, in rank order, against a scalar reference.
func TestAllReduceCompressedSumsIntoRankZero(t *testing.T) {
	const g, n = 4, 32
	c := New(g)
	payloads := make([][]byte, g)
	for rank := range payloads {
		// Each rank "compresses away" everything but two entries.
		payloads[rank] = encodePairs(map[int]float32{
			rank:             float32(rank + 1),
			(2*rank + 1) % n: 0.5,
		}, []int{rank, (2*rank + 1) % n})
	}
	x := make([]float32, n)
	if err := c.AllReduceCompressedRanks(x, payloads, rawF32Decoder{}); err != nil {
		t.Fatal(err)
	}
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
		if x[i] != sum {
			t.Fatalf("index %d holds %v, want %v", i, x[i], sum)
		}
	}
}

func TestAllReduceCompressedOverwritesDestination(t *testing.T) {
	c := New(1)
	x := []float32{7, 7, 7, 7}
	payload := encodePairs(map[int]float32{2: 1.5}, []int{2})
	if err := c.AllReduceCompressedRanks(x, [][]byte{payload}, rawF32Decoder{}); err != nil {
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
	pairs := map[int]float32{}
	var order []int
	for i := 0; i < 10; i++ {
		pairs[i*7] = 1
		order = append(order, i*7)
	}
	payloads := make([][]byte, g)
	for r := range payloads {
		payloads[r] = encodePairs(pairs, order)
	}
	if err := comp.AllReduceCompressedRanks(make([]float32, n), payloads, rawF32Decoder{}); err != nil {
		t.Fatal(err)
	}
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
		payloads := make([][]byte, g)
		for rank := range payloads {
			payloads[rank] = encodePairs(map[int]float32{rank: 1}, []int{rank})
		}
		if err := c.AllReduceCompressedRanks(make([]float32, 64), payloads, rawF32Decoder{}); err != nil {
			t.Fatal(err)
		}
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

// TestAllReduceCompressedDecodeErrorPropagates: a payload that does not
// decode is an error naming its rank, and the communicator stays usable.
func TestAllReduceCompressedDecodeErrorPropagates(t *testing.T) {
	const g = 2
	c := New(g)
	good := encodePairs(map[int]float32{1: 1}, []int{1})
	err := c.AllReduceCompressedRanks(make([]float32, 4), [][]byte{good, {1, 2, 3, 4, 5}}, rawF32Decoder{})
	if err == nil {
		t.Fatal("decoded a ragged payload")
	}
	if want := "collective: compressed all-reduce: rank 1 payload: ragged payload of 5 bytes"; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
	runRanks(g, func(rank int) {
		c.AllReduce(rank, make([]float32, 8), nil)
	})
}
