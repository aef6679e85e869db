package tensor

import (
	"fmt"
	"math"
)

// Quantized weight storage for the serving hot path. Single-token RNN decode
// is memory-bandwidth bound — every generated token streams the full weight
// matrices through the core once — so storing weights as int8 with per-chunk
// scales cuts the bytes touched per token 4× against float32. Each chunk's
// scale is its maxAbs/127 and its codes lie on the symmetric grid −127…127,
// applied along matrix rows so the dot-product kernels can dequantize in registers
// chunk by chunk, and rounding is strictly round-to-nearest: a given weight
// matrix always quantizes to the same bytes, which is what lets a checkpoint
// determine its quantized serving replica exactly.

// DefaultQChunk is the scale-block width used when QuantizeMatrix is given a
// non-positive chunk. 64 elements per FP32 scale keeps the scale overhead at
// ~6% of the int8 payload while the block stays small enough that one outlier
// cannot flatten a whole row's resolution.
const DefaultQChunk = 64

// QMatrix is a row-major int8 matrix with one float32 scale per Chunk-wide
// block of each row. Element (r, c) dequantizes to
// float32(Data[r*Cols+c]) * Scales[r*ChunksPerRow() + c/Chunk].
type QMatrix struct {
	Rows, Cols int
	// Chunk is the scale-block width along a row.
	Chunk int
	// Data holds Rows*Cols int8 codes.
	Data []int8
	// Scales holds Rows*ChunksPerRow() per-block scales.
	Scales []float32
}

// ChunksPerRow returns the number of scale blocks each row carries.
func (q *QMatrix) ChunksPerRow() int { return (q.Cols + q.Chunk - 1) / q.Chunk }

// Row returns a view of row r's codes.
func (q *QMatrix) Row(r int) []int8 { return q.Data[r*q.Cols : (r+1)*q.Cols] }

// RowScales returns a view of row r's scales.
func (q *QMatrix) RowScales(r int) []float32 {
	c := q.ChunksPerRow()
	return q.Scales[r*c : (r+1)*c]
}

// QuantizeMatrix quantizes m to the per-chunk int8 grid with deterministic
// round-to-nearest (never stochastic — serving replicas must be a pure
// function of the checkpoint). Non-finite inputs are sanitized before the
// chunk's scale is taken: ±Inf saturates to ±MaxFloat32, NaN becomes 0. A non-positive chunk selects DefaultQChunk.
func QuantizeMatrix(m *Matrix, chunk int) *QMatrix {
	if chunk <= 0 {
		chunk = DefaultQChunk
	}
	q := &QMatrix{Rows: m.Rows, Cols: m.Cols, Chunk: chunk}
	q.Data = make([]int8, m.Rows*m.Cols)
	q.Scales = make([]float32, m.Rows*q.ChunksPerRow())
	for r := 0; r < m.Rows; r++ {
		src := m.Row(r)
		codes := q.Row(r)
		scales := q.RowScales(r)
		for ci, lo := 0, 0; lo < len(src); ci, lo = ci+1, lo+chunk {
			hi := lo + chunk
			if hi > len(src) {
				hi = len(src)
			}
			scales[ci] = quantizeChunk(codes[lo:hi], src[lo:hi])
		}
	}
	return q
}

// quantizeChunk fills codes with the round-to-nearest int8 grid of src and
// returns the chunk scale (0 for an all-zero chunk, whose codes are all 0).
func quantizeChunk(codes []int8, src []float32) float32 {
	var maxAbs float32
	for _, v := range src {
		if math.IsNaN(float64(v)) {
			continue
		}
		a := v
		if math.IsInf(float64(v), 0) {
			a = math.MaxFloat32
		} else if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		for i := range codes {
			codes[i] = 0
		}
		return 0
	}
	scale := maxAbs / 127
	inv := 1 / scale
	for i, v := range src {
		if math.IsNaN(float64(v)) {
			codes[i] = 0
			continue
		}
		if math.IsInf(float64(v), 0) {
			v = float32(math.Copysign(math.MaxFloat32, float64(v)))
		}
		grid := float32(math.Round(float64(v * inv)))
		if grid > 127 {
			grid = 127
		} else if grid < -127 {
			grid = -127
		}
		codes[i] = int8(grid)
	}
	return scale
}

func checkMatMulABTQ8(dst, a *Matrix, b *QMatrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulABTStreamQ8 shape mismatch (%dx%d)@(%dx%d)T->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if b.Chunk <= 0 {
		panic(fmt.Sprintf("tensor: MatMulABTStreamQ8 needs a positive chunk, got %d", b.Chunk))
	}
}

// MatMulABTStreamQ8 computes dst = a @ dequant(b)ᵀ without materializing the
// dequantized matrix: the quantized serving analogue of MatMulABT, for
// any number of a rows (a single-sequence decode step is the one-row case).
// Each output element is one qdot (see qdotGo), whose order is a pure function
// of the shapes, independent of tiling, so every backend and worker count
// computes identical bits (the same disjoint-output argument as the FP32
// stream kernel).
func MatMulABTStreamQ8(dst, a *Matrix, b *QMatrix) {
	checkMatMulABTQ8(dst, a, b)
	matMulABTQ8Range(dst, a, b, whole(dst))
}

// matMulABTQ8Range is the q8 kernel over one span of dst (dst columns are b's
// rows). Every element is an independent qdot, so any partition of rows or
// columns matches the serial pass.
func matMulABTQ8Range(dst, a *Matrix, b *QMatrix, s span) {
	k, n, cpr, rows := a.Cols, dst.Cols, b.ChunksPerRow(), s.rhi-s.rlo
	if rows == 0 {
		return
	}
	// As in matMulABTRange, all of a's rows visit one L1-sized block of b
	// rows (codes and scales) before the next block is touched, so b streams
	// from memory once per call however many passes a's rows make.
	block := s.chi - s.clo
	if rows > 1 {
		block = max(1, q8BlockBytes/(k+4*cpr+1))
	}
	for c := s.clo; c < s.chi; c += block {
		ce := min(c+block, s.chi)
		qdotRows(dst.Data[s.rlo*n+c:(s.rhi-1)*n+ce], n, a.Data[s.rlo*k:s.rhi*k], rows,
			b.Data[c*k:ce*k], b.Scales[c*cpr:ce*cpr], b.Chunk)
	}
}

// q8BlockBytes sizes matMulABTQ8Range's block of b rows: 16 KiB of codes and
// scales, the same third of L1 as abtBlockFloats.
const q8BlockBytes = 16 << 10

// qdotRows computes d[r*ds+j] = qdot(row r of a, row j of codes) for a's rows
// (≥ 1) rows and the rows of codes that fit d's last row — len(a)/rows
// elements each, their chunk scales back to back in scales. qdot is
// dot(a, dequant(codes)) chunk by chunk: one byte loaded per weight instead of
// four, one scale multiply per chunk instead of one per element. qdotGo
// defines it and is what hosts without the assembly run. On amd64 with AVX2
// the kernels of qdot_amd64.s do the same arithmetic in the same order, a
// row's sixteen partials in two YMM registers or, with AVX-512, one ZMM
// register, bit-identical by construction (TestQ8AsmMatchesGo holds them to
// that). They take a's rows four at a time so each code is converted once for
// four outputs; the two or three rows left over take one more grouped pass,
// and a single row (batch-1 decode, one left over) its own routine, which
// wastes no lanes. The grouping never changes a value, only how fast it
// arrives.
func qdotRows(d []float32, ds int, a []float32, rows int, codes []int8, scales []float32, chunk int) {
	k, n := len(a)/rows, len(d)-(rows-1)*ds
	cpr := (k + chunk - 1) / chunk
	a, codes, scales = a[:rows*k], codes[:n*k], scales[:n*cpr]
	if !useQdotAsm || len(codes) == 0 {
		for r := 0; r < rows; r++ {
			dr, ar := d[r*ds:r*ds+n], a[r*k:(r+1)*k]
			for j := range dr {
				dr[j] = qdotGo(ar, codes[j*k:(j+1)*k], scales[j*cpr:(j+1)*cpr], chunk)
			}
		}
		return
	}
	for r := 0; r < rows; r += 4 {
		g, dr, ar := min(rows-r, 4), &d[r*ds], &a[r*k]
		switch {
		case g == 1 && useQdotAVX512:
			q8Rows1AVX512(dr, ar, &codes[0], &scales[0], n, k, chunk)
		case g == 1:
			q8Rows1AVX2(dr, ar, &codes[0], &scales[0], n, k, chunk)
		case useQdotAVX512:
			q8Rows4AVX512(dr, ds, ar, g, &codes[0], &scales[0], n, k, chunk)
		default:
			q8Rows4AVX2(dr, ds, ar, g, &codes[0], &scales[0], n, k, chunk)
		}
	}
}

// qdotGo is the portable qdot kernel and the canonical definition of the
// accumulation order: within a chunk, sixteen strided partials over
// a[i]·float32(codes[i]) (partial i%16 within each 16-wide block), combined
// as c[j] = (p[j]+p[4+j]) + (p[8+j]+p[12+j]), s = (c[0]+c[1]) + (c[2]+c[3]),
// then a sequential tail; the chunk sum is scaled once and added to the
// running total in ascending chunk order.
func qdotGo(a []float32, codes []int8, scales []float32, chunk int) float32 {
	var total float32
	for ci, lo := 0, 0; lo < len(codes); ci, lo = ci+1, lo+chunk {
		hi := lo + chunk
		if hi > len(codes) {
			hi = len(codes)
		}
		total += scales[ci] * qdotChunkGo(a[lo:hi], codes[lo:hi])
	}
	return total
}

// qdotChunkGo computes one chunk's unscaled sum in the canonical order. The
// group structure (four partials per group, four groups per 16-wide block)
// mirrors the accumulators of the assembly kernels: p[0..15] are the lanes of
// one ZMM register, or p[0..7] of one YMM register and p[8..15] of another,
// and c[j] adds the four 128-bit quarters.
func qdotChunkGo(ac []float32, qc []int8) float32 {
	var p [16]float32
	n := len(qc) &^ 15
	for i := 0; i < n; i += 16 {
		p[0] += ac[i] * float32(qc[i])
		p[1] += ac[i+1] * float32(qc[i+1])
		p[2] += ac[i+2] * float32(qc[i+2])
		p[3] += ac[i+3] * float32(qc[i+3])
		p[4] += ac[i+4] * float32(qc[i+4])
		p[5] += ac[i+5] * float32(qc[i+5])
		p[6] += ac[i+6] * float32(qc[i+6])
		p[7] += ac[i+7] * float32(qc[i+7])
		p[8] += ac[i+8] * float32(qc[i+8])
		p[9] += ac[i+9] * float32(qc[i+9])
		p[10] += ac[i+10] * float32(qc[i+10])
		p[11] += ac[i+11] * float32(qc[i+11])
		p[12] += ac[i+12] * float32(qc[i+12])
		p[13] += ac[i+13] * float32(qc[i+13])
		p[14] += ac[i+14] * float32(qc[i+14])
		p[15] += ac[i+15] * float32(qc[i+15])
	}
	c0 := (p[0] + p[4]) + (p[8] + p[12])
	c1 := (p[1] + p[5]) + (p[9] + p[13])
	c2 := (p[2] + p[6]) + (p[10] + p[14])
	c3 := (p[3] + p[7]) + (p[11] + p[15])
	s := (c0 + c1) + (c2 + c3)
	for i := n; i < len(qc); i++ {
		s += ac[i] * float32(qc[i])
	}
	return s
}
