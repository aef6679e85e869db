package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"zipflm/internal/cpu"
	"zipflm/internal/rng"
)

// q8Tier is one instruction tier of the int8 kernels: qdotGo, which defines
// them, the AVX2 assembly, or the same routines with one ZMM accumulator per
// activation row.
type q8Tier int

const (
	q8Go q8Tier = iota
	q8AVX2
	q8ZMM
)

var q8Tiers = []q8Tier{q8ZMM, q8AVX2, q8Go}

func (tier q8Tier) String() string { return [...]string{"go", "avx2", "zmm"}[tier] }

// available reports whether this build and host run the tier's kernels.
func (tier q8Tier) available() bool {
	return tier == q8Go || tier == q8AVX2 && cpu.AVX2 || tier == q8ZMM && cpu.AVX512
}

// set switches the int8 kernels to the tier, never above what CPUID allows;
// the caller restores the gates (with and forQ8Twins do).
func (tier q8Tier) set() {
	useQdotAsm = tier >= q8AVX2 && cpu.AVX2
	useQdotAVX512 = tier >= q8ZMM && cpu.AVX512
}

// with runs fn with the int8 kernels at the tier, then restores the gates.
func (tier q8Tier) with(fn func()) {
	defer restoreQ8Gates()()
	tier.set()
	fn()
}

// restoreQ8Gates returns a function that puts the gates back as they are now.
func restoreQ8Gates() func() {
	asm, avx512 := useQdotAsm, useQdotAVX512
	return func() { useQdotAsm, useQdotAVX512 = asm, avx512 }
}

type q8Twin = twin[q8Tier]

// q8Twins: each assembly tier against qdotGo, and the ZMM tier against the
// AVX2 one.
var q8Twins = []q8Twin{{q8ZMM, q8Go}, {q8AVX2, q8Go}, {q8ZMM, q8AVX2}}

func forQ8Twins(t *testing.T, fn func(t *testing.T, tw q8Twin)) {
	forTwins(t, q8Twins, restoreQ8Gates, fn)
}

// q8Rows returns n rows of k hand-built codes and their chunk scales, harsher
// than anything QuantizeMatrix emits: codes span [-127, 127] with both
// extremes forced in, about one chunk in five is all zero with scale 0 (what
// an all-zero weight chunk quantizes to), one in five has a denormal scale.
func q8Rows(r *rng.RNG, n, k, chunk int) ([]int8, []float32) {
	cpr := (k + chunk - 1) / chunk
	codes, scales := make([]int8, n*k), make([]float32, n*cpr)
	for i := range codes {
		codes[i] = int8(r.Intn(255) - 127)
		switch r.Intn(16) {
		case 0:
			codes[i] = 127
		case 1:
			codes[i] = -127
		}
	}
	for i := range scales {
		scales[i] = r.Float32()*0.02 + 1e-4
		switch r.Intn(5) {
		case 0:
			scales[i] = 0
			row, c := i/cpr, i%cpr
			for e := c * chunk; e < min((c+1)*chunk, k); e++ {
				codes[row*k+e] = 0
			}
		case 1:
			scales[i] = 3e-41
		}
	}
	return codes, scales
}

// TestQ8AsmMatchesGo holds the int8 tiers to one another in pairs (see
// q8Twins), output by output and bit for bit: qdotGo's bits up to NaN
// payloads, and between the two assembly tiers every bit. Every other q8 suite runs the same kernel
// on both sides, so this is the one that would catch a wrong lane, a swapped
// combine or a fused multiply-add. Extents cover pure tails (k < 16), pure
// vector chunks, straddling ones and a short last chunk; 1–9 a rows cover the
// one-row routine alone, the grouped routine at 2, 3 and 4 rows, two groups,
// and groups plus one to three leftovers; dst is a window of a wider
// sentinel-filled matrix, so a store outside the block (a row past the
// grouped routine's rows argument among them) is seen.
func TestQ8AsmMatchesGo(t *testing.T) {
	forQ8Twins(t, func(t *testing.T, tw q8Twin) {
		r := rng.New(53)
		for _, k := range []int{1, 3, 15, 16, 17, 31, 64, 65, 100, 128, 200, 256, 1000} {
			for _, chunk := range []int{1, 3, 16, 64, 100} {
				for rows := 1; rows <= 9; rows++ {
					for n := 0; n <= 5; n++ {
						for _, special := range []bool{false, true} {
							ctx := fmt.Sprintf("k=%d chunk=%d a-rows=%d b-rows=%d special=%v", k, chunk, rows, n, special)
							a := fp32Vec(r, rows*k, 1, special)
							codes, scales := q8Rows(r, n, k, chunk)
							var got, want []float32
							tw.got.with(func() { got = qdotWindow(t, ctx, a, rows, n, codes, scales, chunk) })
							tw.want.with(func() { want = qdotWindow(t, ctx, a, rows, n, codes, scales, chunk) })
							tw.sameFloats(t, ctx, got, want)
						}
					}
				}
			}
		}
	})
}

// qdotWindow runs qdotRows into the block of the first rows rows and n
// columns, two columns in, of a (rows+3) × (n+3) matrix filled with
// fp32Sentinel, fails t on a store outside the block — in the three rows
// below it too, where a grouped pass that stored past its rows argument would
// write — and returns the block row by row.
func qdotWindow(t *testing.T, ctx string, a []float32, rows, n int, codes []int8, scales []float32, chunk int) []float32 {
	t.Helper()
	const off = 2
	ds := n + 3
	buf := make([]float32, (rows+3)*ds)
	for i := range buf {
		buf[i] = fp32Sentinel
	}
	qdotRows(buf[off:(rows-1)*ds+off+n], ds, a, rows, codes, scales, chunk)
	out := make([]float32, 0, rows*n)
	for i, v := range buf {
		if j := i%ds - off; i/ds < rows && j >= 0 && j < n {
			out = append(out, v)
		} else if v != fp32Sentinel {
			t.Fatalf("%s: kernel stored outside its block, at row %d column %d", ctx, i/ds, j)
		}
	}
	return out
}

// qdotNaNOrder is qdotGo with the order of every add's and multiply's
// operands fixed as the assembly issues them — the running value first in
// every add, L0+L1 before L2+L3 in the combine, code·a in a block, a·code in
// the tail, scale·sum — and x86's rule for NaN operands made explicit: the
// first operand's NaN, quieted, else the second's. Where qdotGo's NaN
// payloads are the compiler's choice, this pins the assembly's, so an
// operand swap inside a routine that both tiers share is seen too.
func qdotNaNOrder(a []float32, codes []int8, scales []float32, chunk int) float32 {
	quiet := func(x float32) float32 { return math.Float32frombits(math.Float32bits(x) | 0x400000) }
	op := func(x, y float32, f func(x, y float32) float32) float32 {
		switch {
		case x != x:
			return quiet(x)
		case y != y:
			return quiet(y)
		}
		return f(x, y)
	}
	add := func(x, y float32) float32 { return op(x, y, func(x, y float32) float32 { return x + y }) }
	mul := func(x, y float32) float32 { return op(x, y, func(x, y float32) float32 { return x * y }) }
	var total float32
	for ci, lo := 0, 0; lo < len(codes); ci, lo = ci+1, lo+chunk {
		hi := min(lo+chunk, len(codes))
		ac, qc := a[lo:hi], codes[lo:hi]
		var p [16]float32
		n := len(qc) &^ 15
		for i := 0; i < n; i += 16 {
			for l := range p {
				p[l] = add(p[l], mul(float32(qc[i+l]), ac[i+l]))
			}
		}
		var c [4]float32
		for j := range c {
			c[j] = add(add(p[j], p[4+j]), add(p[8+j], p[12+j]))
		}
		s := add(add(c[0], c[1]), add(c[2], c[3]))
		for i := n; i < len(qc); i++ {
			s = add(s, mul(ac[i], float32(qc[i])))
		}
		total = add(total, mul(scales[ci], s))
	}
	return total
}

// FuzzQdotRowsMatchesGo holds every int8 tier this host runs to qdotGo over
// fuzzed inner extents (0–199), chunk widths (1–100), a-row counts (1–9),
// b-row counts (0–5), codes (all of int8, −128 included, which QuantizeMatrix
// never emits but the arithmetic takes), scales and activations from raw
// float bits — NaN payloads, infinities, denormals: to qdotNaNOrder on every
// bit, NaN payloads included, and through it (equal up to NaN payloads) to
// qdotGo. Its NaN seeds put a different payload in each 128-bit quarter of a
// block, or in each lane, so a combine that adds its halves in the other
// order keeps the other payload.
func FuzzQdotRowsMatchesGo(f *testing.F) {
	if !useQdotAsm {
		f.Skip("no AVX2 int8 kernels on this build or host")
	}
	if !useQdotAVX512 {
		f.Log("no AVX-512 on this host: the ZMM tier is not fuzzed")
	}
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), []byte{}, []byte{}, []byte{})
	seed := make([]byte, 4*37)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(uint8(133), uint8(63), uint8(6), uint8(3), seed[:41], seed, []byte("\x00\x00\x80\x3f\x01\x00\x00\x00"))
	// One block per chunk, each 128-bit quarter of it a different NaN
	// payload, at every group size and with a leftover single row.
	nans := []byte("\x01\x00\xc0\x7f\x01\x00\xc0\x7f\x01\x00\xc0\x7f\x01\x00\xc0\x7f" +
		"\x02\x00\xc0\x7f\x02\x00\xc0\x7f\x02\x00\xc0\x7f\x02\x00\xc0\x7f" +
		"\x03\x00\xc0\xff\x03\x00\xc0\xff\x03\x00\xc0\xff\x03\x00\xc0\xff" +
		"\x04\x00\xc0\x7f\x04\x00\xc0\x7f\x04\x00\xc0\x7f\x04\x00\xc0\x7f")
	lanes := make([]byte, 0, 64)
	for l := 0; l < 16; l++ {
		lanes = binary.LittleEndian.AppendUint32(lanes, 0x7fc00001+uint32(l))
	}
	for _, rows := range []uint8{0, 1, 2, 3, 4} {
		f.Add(uint8(32), uint8(15), rows, uint8(2), []byte{1, 255, 3}, nans, []byte("\x00\x00\x80\x3f"))
		f.Add(uint8(16), uint8(15), rows, uint8(1), []byte{1}, lanes, []byte{})
	}
	// Denormal activations and scales, and a tail of seven after two blocks.
	f.Add(uint8(39), uint8(99), uint8(4), uint8(4), seed[:13], []byte("\x01\x00\x00\x00\xff\xff\x7f\x80\x00\x00\x80\xbf"),
		[]byte("\x05\x00\x00\x00\x00\x00\x00\x3c"))
	defer restoreQ8Gates()()
	f.Fuzz(func(t *testing.T, kb, chunkb, rowsb, nb uint8, rawCodes, rawA, rawScales []byte) {
		k, chunk, rows, n := int(kb)%200, 1+int(chunkb)%100, 1+int(rowsb)%9, int(nb)%6
		cpr := (k + chunk - 1) / chunk
		a, scales, codes := make([]float32, rows*k), make([]float32, n*cpr), make([]int8, n*k)
		fill := func(x []float32, raw []byte, zero float32) {
			for i := range x {
				x[i] = zero
				if m := len(raw) / 4; m > 0 {
					x[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*(i%m):]))
				}
			}
		}
		fill(a, rawA, 0)
		fill(scales, rawScales, 1)
		for i := range codes {
			codes[i] = 1
			if len(rawCodes) > 0 {
				codes[i] = int8(rawCodes[i%len(rawCodes)])
			}
		}
		ctx := fmt.Sprintf("k=%d chunk=%d a-rows=%d b-rows=%d", k, chunk, rows, n)
		var want []float32
		q8Go.with(func() { want = qdotWindow(t, ctx, a, rows, n, codes, scales, chunk) })
		pinned := make([]float32, 0, rows*n)
		for r := 0; r < rows; r++ {
			for j := 0; j < n; j++ {
				pinned = append(pinned, qdotNaNOrder(a[r*k:(r+1)*k], codes[j*k:(j+1)*k], scales[j*cpr:(j+1)*cpr], chunk))
			}
		}
		sameFloats(t, ctx+" NaN-order oracle vs go", pinned, want)
		for _, tier := range []q8Tier{q8AVX2, q8ZMM} {
			if tier.available() {
				tier.set()
				got := qdotWindow(t, ctx, a, rows, n, codes, scales, chunk)
				sameFloatsBy(t, ctx+" "+tier.String()+" vs NaN-order oracle", got, pinned, func(x, y float32) bool {
					return math.Float32bits(x) == math.Float32bits(y)
				})
			}
		}
	})
}

// shorter drops x's last element, capacity included, so reslicing cannot
// reach it again.
func shorter[T any](x []T) []T { return x[: len(x)-1 : len(x)-1] }

// TestQ8WrapperBounds pins the asm boundary of the int8 kernel at every tier:
// an operand shorter than its shape says still panics in Go, before any
// pointer reaches the assembly, and a chunk width that would never advance is
// refused by name.
func TestQ8WrapperBounds(t *testing.T) {
	const m, k, n = 5, 70, 100 // above parallelMinWork, so Parallel tiles it
	r := rng.New(3)
	for _, tier := range q8Tiers {
		if !tier.available() {
			continue
		}
		for _, be := range []Backend{Serial{}, NewParallel(2)} {
			for name, corrupt := range map[string]func(dst, a *Matrix, q *QMatrix){
				"short a":      func(dst, a *Matrix, q *QMatrix) { a.Data = shorter(a.Data) },
				"short dst":    func(dst, a *Matrix, q *QMatrix) { dst.Data = shorter(dst.Data) },
				"short Data":   func(dst, a *Matrix, q *QMatrix) { q.Data = shorter(q.Data) },
				"short Scales": func(dst, a *Matrix, q *QMatrix) { q.Scales = shorter(q.Scales) },
				"zero Chunk":   func(dst, a *Matrix, q *QMatrix) { q.Chunk = 0 },
				"minus Chunk":  func(dst, a *Matrix, q *QMatrix) { q.Chunk = -64 },
			} {
				dst, a, q := NewMatrix(m, n), randMatrix(r, m, k), QuantizeMatrix(randMatrix(r, n, k), 0)
				corrupt(dst, a, q)
				func() {
					defer func() {
						v := recover()
						if v == nil {
							t.Errorf("%s %T %s: expected a panic", tier, be, name)
						}
						if msg, _ := v.(string); strings.HasSuffix(name, "Chunk") && !strings.HasPrefix(msg, "tensor:") {
							t.Errorf("%s %T %s: panic %v, want a tensor: message", tier, be, name, v)
						}
					}()
					tier.with(func() { be.MatMulABTStreamQ8(dst, a, q) })
				}()
			}
			if p, ok := be.(*Parallel); ok {
				p.Close()
			}
		}
	}
	// Empty operands are legal: no rows, no columns, or zero-length rows
	// (every qdot is then 0), on the tier CPUID chose.
	MatMulABTStreamQ8(NewMatrix(0, 3), NewMatrix(0, 4), QuantizeMatrix(NewMatrix(3, 4), 0))
	MatMulABTStreamQ8(NewMatrix(3, 0), NewMatrix(3, 4), QuantizeMatrix(NewMatrix(0, 4), 0))
	dst := NewMatrix(5, 2)
	dst.Fill(9)
	MatMulABTStreamQ8(dst, NewMatrix(5, 0), QuantizeMatrix(NewMatrix(2, 0), 0))
	for _, v := range dst.Data {
		if v != 0 {
			t.Fatal("qdot over zero-length rows must write 0")
		}
	}
}

// q8Shapes are the int8 products the served model issues (benchmark workload
// serve_decode_closed: V 8000, D 128, H 256, 4H = 1024, batch 8 and batch 1),
// batches of 7 and 3 whose rows past a group of four take the grouped
// routine's rows argument, and odd extents that leave every loop a
// remainder. m, k, n are dst rows, inner extent, dst columns.
var q8Shapes = [][3]int{
	{8, 128, 8000}, // logits: 8×128·(8000×128)ᵀ
	{8, 256, 1024}, // h·Whᵀ
	{8, 128, 1024}, // x·Wxᵀ
	{1, 128, 8000}, // batch-1 logits
	{7, 128, 8000}, // logits, a group of four and one of three
	{3, 256, 1024}, // h·Whᵀ, one group of three
	{7, 133, 101},  //
}

// TestQ8KernelsAgainstFloat64 checks the int8 kernel for numerical truth, not
// just determinism: against a float64 sum over the dequantized weights, at
// every tier. The bound is TestFP32KernelsAgainstFloat64's,
// |err| ≤ γ·Σ|aᵢwᵢ| with γ = t·2⁻²⁴/(1 − t·2⁻²⁴), where t = k + 4 leaves
// room for the chunk scaling, the oracle's own rounding of code·scale, and the
// sum over chunks.
func TestQ8KernelsAgainstFloat64(t *testing.T) {
	for _, tier := range q8Tiers {
		if !tier.available() {
			continue
		}
		tier.with(func() {
			r := rng.New(29)
			for _, s := range q8Shapes {
				m, k, n := s[0], s[1], s[2]
				a, q, dst := randMatrix(r, m, k), QuantizeMatrix(randMatrix(r, n, k), 0), NewMatrix(m, n)
				w := q.dequantize()
				MatMulABTStreamQ8(dst, a, q)
				terms := float64(k + 4)
				gamma := terms * 0x1p-24 / (1 - terms*0x1p-24)
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						var want, mag float64
						for e := 0; e < k; e++ {
							p := float64(a.At(i, e)) * float64(w.At(j, e))
							want += p
							mag += math.Abs(p)
						}
						if got := float64(dst.At(i, j)); math.Abs(got-want) > gamma*mag {
							t.Fatalf("%dx%dx%d %s: element (%d,%d) = %v, float64 oracle %v, error %.3g > bound %.3g",
								m, k, n, tier, i, j, got, want, math.Abs(got-want), gamma*mag)
						}
					}
				}
			}
		})
	}
}

// BenchmarkQ8Kernels times the int8 product at the shapes the served model
// issues, at each tier the host has (zmm, avx2, go), and reports GFLOP/s
// (2·m·k·n per call) beside BenchmarkFP32Kernels' FP32 numbers.
func BenchmarkQ8Kernels(b *testing.B) {
	for _, s := range q8Shapes {
		m, k, n := s[0], s[1], s[2]
		for _, tier := range q8Tiers {
			if !tier.available() {
				continue
			}
			b.Run(fmt.Sprintf("%dx%dx%d/%s", m, k, n, tier), func(b *testing.B) {
				r := rng.New(1)
				a, q, dst := randMatrix(r, m, k), QuantizeMatrix(randMatrix(r, n, k), 0), NewMatrix(m, n)
				tier.with(func() {
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						MatMulABTStreamQ8(dst, a, q)
					}
					b.StopTimer()
				})
				fp32Sink = dst.Data[0]
				flop := 2 * float64(m) * float64(k) * float64(n)
				b.ReportMetric(flop*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
			})
		}
	}
}
