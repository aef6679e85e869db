package tensor

import (
	"fmt"
	"math"
	"testing"

	"zipflm/internal/israce"
	"zipflm/internal/rng"
)

// dequantize expands the codes back to float32 — the reference the quantized
// kernels are tested against, and the error-bound property's subject.
func (q *QMatrix) dequantize() *Matrix {
	out := NewMatrix(q.Rows, q.Cols)
	for r := 0; r < q.Rows; r++ {
		codes := q.Row(r)
		scales := q.RowScales(r)
		dst := out.Row(r)
		for i, c := range codes {
			dst[i] = float32(c) * scales[i/q.Chunk]
		}
	}
	return out
}

// TestQuantizeErrorBound is the quantized-storage property: round-to-nearest
// onto the per-chunk grid puts every dequantized element within half its
// chunk's scale of the original (a hair of slack covers float32 rounding of
// the scale and the product).
func TestQuantizeErrorBound(t *testing.T) {
	r := rng.New(41)
	for _, shape := range [][2]int{{1, 5}, {3, 64}, {7, 65}, {19, 200}, {33, 1}} {
		for _, chunk := range []int{1, 3, 64, DefaultQChunk} {
			m := randMatrix(r, shape[0], shape[1])
			q := QuantizeMatrix(m, chunk)
			deq := q.dequantize()
			for row := 0; row < m.Rows; row++ {
				scales := q.RowScales(row)
				for c := 0; c < m.Cols; c++ {
					scale := float64(scales[c/chunk])
					err := math.Abs(float64(deq.At(row, c)) - float64(m.At(row, c)))
					if bound := scale/2*(1+1e-5) + 1e-30; err > bound {
						t.Fatalf("%dx%d chunk %d: |deq-orig| = %g at (%d,%d) exceeds scale/2 = %g",
							shape[0], shape[1], chunk, err, row, c, scale/2)
					}
				}
			}
		}
	}
}

// TestQuantizeDeterministic: quantization is a pure function of the weights —
// two quantizations of equal matrices produce identical codes and scales.
func TestQuantizeDeterministic(t *testing.T) {
	r := rng.New(43)
	m := randMatrix(r, 17, 130)
	q1 := QuantizeMatrix(m, 0)
	q2 := QuantizeMatrix(m.Clone(), 0)
	if q1.Chunk != DefaultQChunk {
		t.Fatalf("default chunk = %d, want %d", q1.Chunk, DefaultQChunk)
	}
	for i := range q1.Data {
		if q1.Data[i] != q2.Data[i] {
			t.Fatalf("code %d differs across quantizations: %d vs %d", i, q1.Data[i], q2.Data[i])
		}
	}
	for i := range q1.Scales {
		if math.Float32bits(q1.Scales[i]) != math.Float32bits(q2.Scales[i]) {
			t.Fatalf("scale %d differs across quantizations", i)
		}
	}
}

// TestQuantizeSanitizes: ±Inf saturates to the finite grid extreme and NaN
// drops to zero, so a non-finite weight cannot poison its chunk's scale.
func TestQuantizeSanitizes(t *testing.T) {
	m := NewMatrixFrom(1, 4, []float32{float32(math.Inf(1)), float32(math.NaN()), -2, float32(math.Inf(-1))})
	q := QuantizeMatrix(m, 4)
	if q.Row(0)[0] != 127 || q.Row(0)[1] != 0 || q.Row(0)[3] != -127 {
		t.Fatalf("sanitized codes = %v, want [127 0 * -127]", q.Row(0))
	}
	deq := q.dequantize()
	for i, v := range deq.Row(0) {
		if math.IsNaN(float64(v)) {
			t.Fatalf("dequantized element %d is NaN", i)
		}
	}
}

// TestQ8KernelBitIdentity is the quantized half of the backend contract:
// MatMulABTStreamQ8 produces the serial reference's exact bits at every worker
// count and shape (including the batch-1 column-tiled decode shape, row tiles
// that cut a group of four, and extents that straddle chunk boundaries), and
// a row computes the same bits alone as in any batch — which is what lets the
// model send a one-row step through the same entry point — and on the
// portable path as on the assembly one.
func TestQ8KernelBitIdentity(t *testing.T) {
	r := rng.New(47)
	shapes := [][3]int{ // (batch rows, inner, quantized rows)
		{1, 7, 5},
		{2, 64, 33},
		{3, 65, 29},
		{1, 64, 512},
		{5, 130, 47},
		{8, 96, 600},
		{9, 128, 300},
		{40, 64, 13},
	}
	for _, shape := range shapes {
		m, k, n := shape[0], shape[1], shape[2]
		a := randMatrix(r, m, k)
		b := QuantizeMatrix(randMatrix(r, n, k), 0)

		want := NewMatrix(m, n)
		MatMulABTStreamQ8(want, a, b)
		portable := NewMatrix(m, n)
		withQdotAsm(false, func() { MatMulABTStreamQ8(portable, a, b) })
		bitsEqual(t, fmt.Sprintf("(%d,%d,%d) portable path vs this host's", m, k, n), portable, want)

		// The per-chunk scaling orders the sums differently from the FP32
		// kernel over dequantized weights, so that comparison is only a loose
		// sanity check here (TestQ8KernelsAgainstFloat64 has the real bound).
		deq := b.dequantize()
		loose := NewMatrix(m, n)
		MatMulABT(loose, a, deq)
		for i := range want.Data {
			d := math.Abs(float64(want.Data[i]) - float64(loose.Data[i]))
			if d > 1e-2*(1+math.Abs(float64(loose.Data[i]))) {
				t.Fatalf("(%d,%d,%d): q8 kernel diverges from dequantized reference: %v vs %v",
					m, k, n, want.Data[i], loose.Data[i])
			}
		}

		for _, workers := range backendWorkerCounts {
			be := New(workers)
			ctx := fmt.Sprintf("(%d,%d,%d) workers=%d", m, k, n, workers)
			got := NewMatrix(m, n)
			be.MatMulABTStreamQ8(got, a, b)
			bitsEqual(t, ctx+" MatMulABTStreamQ8", got, want)

			one := NewMatrix(1, n)
			for i := 0; i < m; i++ {
				be.MatMulABTStreamQ8(one, NewMatrixFrom(1, k, a.Row(i)), b)
				bitsEqual(t, fmt.Sprintf("%s row %d alone", ctx, i), one, NewMatrixFrom(1, n, want.Row(i)))
			}
			if p, ok := be.(*Parallel); ok {
				p.Close()
			}
		}
	}
}

// TestQ8DispatchZeroAlloc extends the zero-allocation guarantee to the
// quantized dispatch path — the serving hot loop must stay allocation-free
// when it switches to int8 weights, at batch 1 (column tiles) and above.
func TestQ8DispatchZeroAlloc(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	p := NewParallel(4)
	defer p.Close()
	r := rng.New(7)
	q := QuantizeMatrix(randMatrix(r, 600, 64), 0)
	for _, m := range []int{1, 8} {
		a, dst := randMatrix(r, m, 64), NewMatrix(m, 600)
		if allocs := testing.AllocsPerRun(50, func() { p.MatMulABTStreamQ8(dst, a, q) }); allocs != 0 {
			t.Errorf("batch %d: %v allocations per call through the parallel backend, want 0", m, allocs)
		}
	}
}
