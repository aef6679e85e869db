// Package tensor provides the dense float32 linear-algebra kernels the
// language-model layers are built on: row-major matrices, matmul with
// optional transposes, row gather/scatter-add (the embedding forward and
// backward primitives of §II-A), and the transcendentals the LSTM/RHN gates
// and every softmax are made of. It builds offline from the standard library
// alone — no external BLAS, and no libm on any hot path.
//
// Every kernel is defined by a portable Go loop, and that loop fixes the
// arithmetic: which products are formed, in which order they are added, and
// that each multiply and each add is rounded on its own (never fused into an
// FMA, which would change the rounding). The repository's contracts — the
// tiled decoder vs the serial one, checkpoint resume, served vs sequential
// decode — are stated in exact bits and rest on that definition:
//
//   - axpy family (axpyGo, axpyRunGo, addGo; behind MatMul, MatMulATBAcc,
//     Axpy, AddInPlace, ScatterAddRows): elementwise dst[i] += alpha·src[i],
//     rows added in ascending k. A zero multiplier's row is skipped only if
//     the whole row is finite, so NaN/Inf still propagate and signed zeros
//     survive.
//   - Dot family (dotGo, dot2Go; behind Dot and MatMulABT):
//     four strided partials (partial j sums the products at indices i ≡ j
//     mod 4), combined as (s0+s1)+(s2+s3), then a sequential tail.
//   - qdot (qdotGo; behind the int8 kernel of qmatrix.go): sixteen strided
//     partials per chunk, a fixed combine tree, one scale per chunk.
//   - exp, tanh, sigmoid (exp32, tanh32, sigmoid32 of trans.go; behind Tanh,
//     Sigmoid, ExpSumRow, SoftmaxRow, LogSumExpRow): float32 throughout, a
//     Cody–Waite range reduction and a fixed polynomial, with stated error
//     bounds against float64 and defined results at ±Inf, NaN, overflow and
//     underflow. These are this package's own functions, not libm's: the
//     values differ from math.Exp's in the last place or two, and are the
//     same on every architecture and at every vector width. The softmax sum
//     (expSum) runs over eight strided partials, a fixed combine tree and a
//     sequential tail; the maximum it shifts by (maxGo) is the first of the
//     largest, which a vector pass finds in any order except for the sign
//     of a zero.
//
// On amd64 each of these has an assembly twin, chosen once at start-up from
// CPUID (AVX with OS-enabled YMM state for the FP32 kernels of
// fp32_amd64.s, AVX2 for the int8 kernels of qdot_amd64.s and the
// transcendentals of trans_amd64.s; an older amd64 runs the Go loops), that
// performs the same operations in the same order: axpy, Scale and the
// transcendentals go eight lanes wide because they are elementwise; the Dot
// family keeps its four partials as the four lanes of one 128-bit
// accumulator, qdot its sixteen as two YMM accumulators (p[0..7] and
// p[8..15]), or one ZMM accumulator where AVX-512 is there (gate
// useQdotAVX512), and expSum its eight as one; Dot and qdot get their speed from
// computing several outputs per pass instead (Dot: eight b rows per pass
// against one a row or two, two outputs to a YMM register, one per 128-bit
// lane). Where CPUID also reports AVX-512 F, BW and VL with OS-enabled ZMM
// state (cpu.AVX512), a ZMM tier, gated by useFP32AVX512, takes the two hot
// routines with the same bits as the AVX ones: axpyRun sixteen lanes wide
// for whole blocks of 64 columns, and a Dot pass of four a rows, one per
// 128-bit lane, against eight b rows (dotRows4). The softmax maximum is one
// VMAXPS pass (maxAVX), rescanned by the Go loop when it comes out ±0.
// TestFP32AsmMatchesGo, TestQ8AsmMatchesGo, TestTransAsmMatchesGo and
// TestRowMaxMatchesGo hold the twins to the Go definitions bit for bit, and
// the ZMM tier to the AVX one; other architectures run the Go loops.
package tensor

import (
	"fmt"
	"math"

	"zipflm/internal/rng"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	// Data holds Rows*Cols values; element (r, c) is Data[r*Cols+c].
	Data []float32
}

// NewMatrix returns a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// NewMatrixFrom wraps an existing slice as a matrix. The slice is used
// directly (not copied); len(data) must equal rows*cols.
func NewMatrixFrom(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d x %d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Row returns a view (not a copy) of row r.
func (m *Matrix) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// RandomizeNormal fills the matrix with N(0, std) values from r.
func (m *Matrix) RandomizeNormal(r *rng.RNG, std float64) {
	for i := range m.Data {
		m.Data[i] = float32(r.NormFloat64() * std)
	}
}

// RandomizeUniform fills the matrix with U(-bound, bound) values.
func (m *Matrix) RandomizeUniform(r *rng.RNG, bound float64) {
	for i := range m.Data {
		m.Data[i] = float32((2*r.Float64() - 1) * bound)
	}
}

// MatMul computes dst = a @ b. Shapes: a is m x k, b is k x n, dst is m x n.
// dst must not alias a or b. Each dst row is built by adding a's multipliers
// times b's rows in ascending k, so b and dst are both read along rows.
func MatMul(dst, a, b *Matrix) {
	checkMatMul(dst, a, b)
	for i := 0; i < dst.Rows; i++ {
		dr := dst.Row(i)
		clear(dr)
		mulAddRows(dr, a.Data, i*a.Cols, 1, b)
	}
}

// span is a block of an output matrix, rows [rlo, rhi) × columns [clo, chi):
// what one call of a range kernel computes. The package functions pass the
// whole matrix, the Parallel backend one tile each.
type span struct{ rlo, rhi, clo, chi int }

func whole(m *Matrix) span { return span{0, m.Rows, 0, m.Cols} }

func checkMatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%dx%d)@(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
}

// mulAddRows is the inner product-by-rows loop MatMul and MatMulATBAcc share:
// dr[j] += Σ_k m[m0+k·ms] · b[k][j] for k ascending over b's rows.
//
// A zero multiplier's step is skipped, which saves the axpy for sparse
// multipliers (dropout-masked gradients), but IEEE 0×Inf and 0×NaN are NaN,
// not 0 — skipping a poisoned b row would silently erase a diverged
// activation. The skip therefore also requires the b row to be finite; the
// finiteness scan only runs when a multiplier is zero, so fully dense inputs
// pay nothing.
func mulAddRows(dr, m []float32, m0, ms int, b *Matrix) {
	if len(dr) == 0 {
		return
	}
	for k := 0; k < b.Rows; k++ {
		k += axpyRun(dr, m[m0+k*ms:], ms, b.Data[k*b.Cols:], b.Cols, b.Rows-k)
		if k == b.Rows {
			return
		}
		if br := b.Row(k); !AllFinite(br) {
			axpy(m[m0+k*ms], dr, br)
		}
	}
}

// MatMulATB computes dst = aᵀ @ b. Shapes: a is k x m, b is k x n,
// dst is m x n. Used by backward passes (weight gradients).
func MatMulATB(dst, a, b *Matrix) {
	checkMatMulATB(dst, a, b)
	dst.Zero()
	MatMulATBAcc(dst, a, b)
}

// MatMulATBAcc computes dst += aᵀ @ b without any scratch: the fused
// gradient-accumulation kernel of the backward passes. Compared with
// MatMulATB into a scratch matrix followed by AddInPlace, it touches dst
// once instead of writing, re-reading, and adding a full scratch matrix —
// the dominant memory traffic of weight-gradient accumulation.
//
// dst row i accumulates a[k][i]·b.Row(k) for k in ascending order, so one call
// over row-stacked operands performs exactly the adds of one call per block in
// block order — what the model's sequence-level backward rests on.
func MatMulATBAcc(dst, a, b *Matrix) {
	checkMatMulATB(dst, a, b)
	for i := 0; i < dst.Rows; i++ {
		mulAddRows(dst.Row(i), a.Data, i, a.Cols, b)
	}
}

func checkMatMulATB(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulATB shape mismatch (%dx%d)T@(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
}

// AllFinite reports whether every element is finite (no NaN or ±Inf). It is
// the scan mulAddRows runs over a whole b row for every zero multiplier, and
// the one model.Unmarshal runs over every weight it loads, so whole blocks
// of eight go to the vector kernel; being a predicate, any implementation
// that returns allFiniteGo's boolean changes no bit.
func AllFinite(x []float32) bool {
	if useFP32Asm && len(x) >= 8 {
		n := len(x) &^ 7
		if !allFiniteAVX(&x[0], n) {
			return false
		}
		x = x[n:]
	}
	return allFiniteGo(x)
}

// allFiniteGo is the portable scan and the definition. The trick: v−v is ±0
// for finite v and NaN otherwise, and a sum of signed zeros compares equal to
// 0 while any NaN poisons it — one branch for the whole slice.
func allFiniteGo(x []float32) bool {
	var s0, s1, s2, s3 float32
	n := len(x) &^ 3
	for i := 0; i < n; i += 4 {
		s0 += x[i] - x[i]
		s1 += x[i+1] - x[i+1]
		s2 += x[i+2] - x[i+2]
		s3 += x[i+3] - x[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for i := n; i < len(x); i++ {
		s += x[i] - x[i]
	}
	return s == 0
}

// MatMulABT computes dst = a @ bᵀ. Shapes: a is m x k, b is n x k,
// dst is m x n. Used by backward passes (input gradients) and by the
// output-embedding logits (hidden @ embeddingᵀ).
func MatMulABT(dst, a, b *Matrix) {
	checkMatMulABT(dst, a, b)
	matMulABTRange(dst, a, b, whole(dst))
}

func checkMatMulABT(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulABT shape mismatch (%dx%d)@(%dx%d)T->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
}

// matMulABTRange is the MatMulABT kernel over one span of dst (dst columns
// are b's rows). Every element is an independent full-length Dot, so any
// partition of rows or columns is trivially bit-identical to the serial
// pass. a's rows are taken four at a time (dotRows4: on the ZMM tier one
// loaded b element feeds four outputs, elsewhere two dotRows2 calls), then
// two (dotRows2: each loaded b element feeds two outputs); the grouping never
// changes a value (dot2Go computes each row exactly as dotGo would), only how
// fast it arrives. A lone or odd last row goes to dotRows1, which fills both
// lanes of its registers with b rows instead. All take eight b rows per
// pass, so a block of b rows is a multiple of four: the last four of a block
// are one pass of four (rounding blocks down to a multiple of eight measured
// no faster on the AVX tier).
func matMulABTRange(dst, a, b *Matrix, s span) {
	k, n := a.Cols, dst.Cols
	// All of a's rows visit one block of b rows before the next block is
	// touched, so a tall b (the V×D embedding) streams from memory once per
	// call instead of once per pair of a rows. One pair needs no blocks.
	block := s.chi - s.clo
	if s.rhi-s.rlo > 2 {
		block = abtBlockFloats / (k + 1) &^ 3
	}
	if block < 4 {
		block = 4
	}
	for c := s.clo; c < s.chi; c += block {
		ce := c + block
		if ce > s.chi {
			ce = s.chi
		}
		bb := b.Data[c*k : ce*k]
		i := s.rlo
		for ; i+4 <= s.rhi; i += 4 {
			dotRows4(dst.Data[i*n+c:(i+3)*n+ce], n, a.Data[i*k:(i+4)*k], bb)
		}
		for ; i+2 <= s.rhi; i += 2 {
			dotRows2(dst.Data[i*n+c:i*n+ce], dst.Data[(i+1)*n+c:(i+1)*n+ce],
				a.Data[i*k:(i+1)*k], a.Data[(i+1)*k:(i+2)*k], bb)
		}
		if i < s.rhi {
			dotRows1(dst.Data[i*n+c:i*n+ce], a.Data[i*k:(i+1)*k], bb)
		}
	}
}

// abtBlockFloats sizes matMulABTRange's block of b rows: 16 KiB of float32,
// a third of a 48 KiB L1 data cache, leaving room for a's rows and dst.
const abtBlockFloats = 4096

// dotRows1 computes d[j] = Dot(a, row j of b), b holding len(d) rows of
// len(a) elements back to back. The assembly computes eight outputs per
// pass, two to a YMM register, one per 128-bit lane: a's four partials
// against b row j in the lower lane and against row j+4 in the upper.
func dotRows1(d, a, b []float32) {
	k := len(a)
	b = b[:len(d)*k]
	if useFP32Asm && len(b) > 0 {
		dotRows1AVX(&d[0], len(d), &a[0], &b[0], k)
		return
	}
	for j := range d {
		d[j] = dotGo(a, b[j*k:(j+1)*k])
	}
}

// dotRows2 is dotRows1 for two a rows at once: d0[j] = Dot(a0, row j of b),
// d1[j] = Dot(a1, row j of b). The assembly computes sixteen outputs per pass,
// eight b rows against both a rows: a0's partials in the lower lane of each
// YMM register, a1's in the upper.
func dotRows2(d0, d1, a0, a1, b []float32) {
	k := len(a0)
	d1 = d1[:len(d0)]
	a1 = a1[:k]
	b = b[:len(d0)*k]
	if useFP32Asm && len(b) > 0 {
		dotRows2AVX(&d0[0], &d1[0], len(d0), &a0[0], &a1[0], &b[0], k)
		return
	}
	for j := range d0 {
		d0[j], d1[j] = dot2Go(a0, a1, b[j*k:(j+1)*k])
	}
}

// dotRows4 is dotRows1 for four a rows at once, a holding them back to
// back: d[r·ds+j] = Dot(a row r, row j of b) for r < 4, d spanning the four
// rows at stride ds and len(d) − 3·ds columns. The ZMM tier computes 32
// outputs per pass, eight b rows against all four a rows, one a row to each
// 128-bit lane of a register; elsewhere, and for the last 1–7 columns, it is
// two dotRows2 calls.
func dotRows4(d []float32, ds int, a, b []float32) {
	k := len(a) / 4
	cols := len(d) - 3*ds
	a = a[:4*k]
	b = b[:cols*k]
	m := 0
	if useFP32Asm && useFP32AVX512 && cols >= 8 && k > 0 {
		m = cols &^ 7
		dotRows4AVX512(&d[0], ds, m, &a[0], &b[0], k)
		if m == cols {
			return
		}
	}
	b = b[m*k:]
	dotRows2(d[m:cols], d[ds+m:ds+cols], a[:k], a[k:2*k], b)
	dotRows2(d[2*ds+m:2*ds+cols], d[3*ds+m:], a[2*k:3*k], a[3*k:], b)
}

// dot2Go computes two inner products against one shared vector, loading each
// b element once for both rows. Per row the arithmetic is exactly dotGo's —
// same four strided accumulators, same combine, same tail order — so each
// result is bit-identical to calling Dot on that row alone. It is the
// portable definition dotRows2AVX is held to.
func dot2Go(a0, a1, b []float32) (r0, r1 float32) {
	a0 = a0[:len(b)]
	a1 = a1[:len(b)]
	var s00, s01, s02, s03 float32
	var s10, s11, s12, s13 float32
	n := len(b) &^ 3
	for i := 0; i < n; i += 4 {
		b0, b1, b2, b3 := b[i], b[i+1], b[i+2], b[i+3]
		s00 += a0[i] * b0
		s01 += a0[i+1] * b1
		s02 += a0[i+2] * b2
		s03 += a0[i+3] * b3
		s10 += a1[i] * b0
		s11 += a1[i+1] * b1
		s12 += a1[i+2] * b2
		s13 += a1[i+3] * b3
	}
	r0 = (s00 + s01) + (s02 + s03)
	r1 = (s10 + s11) + (s12 + s13)
	for i := n; i < len(b); i++ {
		r0 += a0[i] * b[i]
		r1 += a1[i] * b[i]
	}
	return r0, r1
}

// AddInPlace computes dst += src elementwise.
func AddInPlace(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: AddInPlace length mismatch")
	}
	if useFP32Asm && len(dst) > 0 {
		addAVX(&dst[0], &src[0], len(dst))
		return
	}
	addGo(dst, src)
}

// addGo is the portable AddInPlace kernel.
func addGo(dst, src []float32) {
	for i, v := range src {
		dst[i] += v
	}
}

// Axpy computes dst += alpha * src.
func Axpy(alpha float32, dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Axpy length mismatch")
	}
	axpy(alpha, dst, src)
}

// axpy is the unchecked kernel behind Axpy and the matmul zero-multiplier
// path: dst[i] += alpha·src[i], one multiply and one add per element, each
// rounded (never fused). src must be at least as long as dst.
func axpy(alpha float32, dst, src []float32) {
	src = src[:len(dst)]
	if useFP32Asm && len(dst) > 0 {
		axpyAVX(alpha, &dst[0], &src[0], len(dst))
		return
	}
	axpyGo(alpha, dst, src)
}

// axpyGo is the portable axpy kernel, 4-way unrolled. Elementwise, so the
// vector kernel's width changes nothing.
func axpyGo(alpha float32, dst, src []float32) {
	n := len(dst) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] += alpha * src[i]
		dst[i+1] += alpha * src[i+1]
		dst[i+2] += alpha * src[i+2]
		dst[i+3] += alpha * src[i+3]
	}
	for i := n; i < len(dst); i++ {
		dst[i] += alpha * src[i]
	}
}

// axpyRun adds a run of scaled rows into dst: for kk = 0, 1, … < k it stops
// at the first multiplier a[kk·as] that is ±0 and otherwise does
// dst += a[kk·as] · b[kk·bs : kk·bs+len(dst)]. It returns the number of rows
// added, so the caller can judge the zero step and resume after it. One call
// per run instead of one axpy per row is what lets the vector kernel keep
// dst in registers across the run. The ZMM tier takes the columns in whole
// blocks of 64 and the AVX kernel the rest, over the steps the first took.
func axpyRun(dst, a []float32, as int, b []float32, bs, k int) int {
	if useFP32Asm && len(dst) > 0 && k > 0 {
		_ = a[(k-1)*as]
		_ = b[(k-1)*bs+len(dst)-1]
		n, m := len(dst), 0
		if useFP32AVX512 && n >= 64 {
			m = n &^ 63
			k = axpyRunAVX512(&dst[0], m, &a[0], as, &b[0], bs, k)
			if m == n || k == 0 {
				return k
			}
		}
		return axpyRunAVX(&dst[m], n-m, &a[0], as, &b[m], bs, k)
	}
	return axpyRunGo(dst, a, as, b, bs, k)
}

// axpyRunGo is the portable axpyRun kernel: per element of dst, the same
// multiplies and adds as axpyRunAVX in the same ascending order.
func axpyRunGo(dst, a []float32, as int, b []float32, bs, k int) int {
	for kk := 0; kk < k; kk++ {
		alpha := a[kk*as]
		if alpha == 0 {
			return kk
		}
		axpyGo(alpha, dst, b[kk*bs:kk*bs+len(dst)])
	}
	return k
}

// Scale multiplies every element by alpha.
func Scale(x []float32, alpha float32) {
	if useFP32Asm && len(x) > 0 {
		scaleAVX(&x[0], len(x), alpha)
		return
	}
	scaleGo(x, alpha)
}

// scaleGo is the portable Scale kernel.
func scaleGo(x []float32, alpha float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// dotGo is the portable Dot kernel and the canonical definition of the
// accumulation order: four strided partials (partial j sums the products at
// indices i ≡ j mod 4 — the four lanes of one 128-bit register), combined as
// (s0+s1)+(s2+s3), then a sequential tail over the last len%4 products. The
// four independent partials break the floating-point add latency chain that
// serializes the naive loop.
func dotGo(a, b []float32) float32 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float32
	n := len(a) &^ 3
	for i := 0; i < n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for i := n; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// L2Norm returns the Euclidean norm of x (accumulated in float64 for
// stability).
func L2Norm(x []float32) float64 {
	var sum float64
	for _, v := range x {
		sum += float64(v) * float64(v)
	}
	return math.Sqrt(sum)
}

// GatherRows copies src rows indexed by idx into dst: dst.Row(i) =
// src.Row(idx[i]). This is the embedding lookup of §II-A (the K x D dense
// activation matrix built from the |V| x D embedding matrix).
func GatherRows(dst, src *Matrix, idx []int) {
	if dst.Cols != src.Cols || dst.Rows != len(idx) {
		panic("tensor: GatherRows shape mismatch")
	}
	for i, j := range idx {
		copy(dst.Row(i), src.Row(j))
	}
}

// ScatterAddRows accumulates src rows into dst rows selected by idx:
// dst.Row(idx[i]) += src.Row(i). This is the embedding gradient update of
// §II-A — multiple tokens of the same word accumulate into one row, which is
// exactly the operation the paper's uniqueness technique reorganizes.
func ScatterAddRows(dst, src *Matrix, idx []int) {
	if dst.Cols != src.Cols || src.Rows != len(idx) {
		panic("tensor: ScatterAddRows shape mismatch")
	}
	for i, j := range idx {
		AddInPlace(dst.Row(j), src.Row(i))
	}
}

// ClipL2 rescales x in place so its L2 norm does not exceed maxNorm, and
// returns the pre-clip norm. Gradient clipping keeps the scaled-down RNN
// training runs stable.
func ClipL2(x []float32, maxNorm float64) float64 {
	n := L2Norm(x)
	if n > maxNorm && n > 0 {
		Scale(x, float32(maxNorm/n))
	}
	return n
}
