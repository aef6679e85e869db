package tensor

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"zipflm/internal/rng"
)

// withQdotAsm runs fn with the int8 assembly gate forced off (on=false) or
// left as CPUID set it (on=true; a host without AVX2 stays portable).
func withQdotAsm(on bool, fn func()) {
	old := useQdotAsm
	useQdotAsm = on && old
	defer func() { useQdotAsm = old }()
	fn()
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

// TestQ8AsmMatchesGo holds the AVX2 int8 routines to the portable definition,
// output by output and bit for bit (any NaN equals any NaN, as in
// TestFP32AsmMatchesGo). Every other q8 suite runs the same kernel on both
// sides, so this is the one that would catch a wrong lane, a swapped combine
// or a fused multiply-add. Extents cover pure tails (n < 16), pure vector
// chunks, straddling ones and a short last chunk; 1–9 a rows cover the 1-row
// routine alone, the 4-row routine alone, two groups, and groups plus
// leftovers; dst is a window of a wider sentinel-filled matrix, so a store
// outside the block is seen. Skipped where the asm does not run.
func TestQ8AsmMatchesGo(t *testing.T) {
	if !useQdotAsm {
		t.Skip("no AVX2 int8 kernels on this build or host")
	}
	r := rng.New(53)
	for _, k := range []int{1, 3, 15, 16, 17, 31, 64, 65, 100, 128, 200, 256, 1000} {
		for _, chunk := range []int{1, 3, 16, 64, 100} {
			cpr := (k + chunk - 1) / chunk
			for rows := 1; rows <= 9; rows++ {
				for n := 0; n <= 5; n++ {
					for _, special := range []bool{false, true} {
						ctx := fmt.Sprintf("k=%d chunk=%d a-rows=%d b-rows=%d special=%v", k, chunk, rows, n, special)
						a := fp32Vec(r, rows*k, 1, special)
						codes, scales := q8Rows(r, n, k, chunk)
						const ds, off = 8, 2 // dst row stride, first column of the block
						buf := make([]float32, rows*ds)
						for i := range buf {
							buf[i] = fp32Sentinel
						}
						qdotRows(buf[off:(rows-1)*ds+off+n], ds, a, rows, codes, scales, chunk)
						for i, got := range buf {
							row, j := i/ds, i%ds-off
							if j < 0 || j >= n {
								if got != fp32Sentinel {
									t.Fatalf("%s: kernel stored outside its block, at row %d column %d", ctx, row, j)
								}
								continue
							}
							want := qdotGo(a[row*k:(row+1)*k], codes[j*k:(j+1)*k], scales[j*cpr:(j+1)*cpr], chunk)
							if !sameFloat(got, want) {
								t.Fatalf("%s: output (%d,%d): asm %v (%#08x) != go %v (%#08x)", ctx, row, j,
									got, math.Float32bits(got), want, math.Float32bits(want))
							}
						}
					}
				}
			}
		}
	}
}

// shorter drops x's last element, capacity included, so reslicing cannot
// reach it again.
func shorter[T any](x []T) []T { return x[: len(x)-1 : len(x)-1] }

// TestQ8WrapperBounds pins the asm boundary of the int8 kernel on both paths:
// an operand shorter than its shape says still panics in Go, before any
// pointer reaches the assembly, and a chunk width that would never advance is
// refused by name.
func TestQ8WrapperBounds(t *testing.T) {
	const m, k, n = 5, 70, 100 // above parallelMinWork, so Parallel tiles it
	r := rng.New(3)
	for _, asm := range []bool{true, false} {
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
							t.Errorf("asm=%v %T %s: expected a panic", asm, be, name)
						}
						if msg, _ := v.(string); strings.HasSuffix(name, "Chunk") && !strings.HasPrefix(msg, "tensor:") {
							t.Errorf("asm=%v %T %s: panic %v, want a tensor: message", asm, be, name, v)
						}
					}()
					withQdotAsm(asm, func() { be.MatMulABTStreamQ8(dst, a, q) })
				}()
			}
			if p, ok := be.(*Parallel); ok {
				p.Close()
			}
		}
	}
	// Empty operands are legal: no rows, no columns, or zero-length rows
	// (every qdot is then 0).
	withQdotAsm(true, func() {
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
	})
}

// q8Shapes are the int8 products the served model issues (benchmark workload
// serve_decode_closed: V 8000, D 128, H 256, 4H = 1024, batch 8 and batch 1)
// plus odd extents that leave every loop a remainder. m, k, n are dst rows,
// inner extent, dst columns.
var q8Shapes = [][3]int{
	{8, 128, 8000}, // logits: 8×128·(8000×128)ᵀ
	{8, 256, 1024}, // h·Whᵀ
	{8, 128, 1024}, // x·Wxᵀ
	{1, 128, 8000}, // batch-1 logits
	{7, 133, 101},  //
}

// TestQ8KernelsAgainstFloat64 checks the int8 kernel for numerical truth, not
// just determinism: against a float64 sum over the dequantized weights, on
// the asm and the portable path. The bound is TestFP32KernelsAgainstFloat64's,
// |err| ≤ γ·Σ|aᵢwᵢ| with γ = t·2⁻²⁴/(1 − t·2⁻²⁴), where t = k + 4 leaves
// room for the chunk scaling, the oracle's own rounding of code·scale, and the
// sum over chunks.
func TestQ8KernelsAgainstFloat64(t *testing.T) {
	for _, asm := range []bool{true, false} {
		withQdotAsm(asm, func() {
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
							t.Fatalf("%dx%dx%d asm=%v: element (%d,%d) = %v, float64 oracle %v, error %.3g > bound %.3g",
								m, k, n, useQdotAsm, i, j, got, want, math.Abs(got-want), gamma*mag)
						}
					}
				}
			}
		})
	}
}

// BenchmarkQ8Kernels times the int8 product at the shapes the served model
// issues, on the asm path and on the portable path, and reports GFLOP/s
// (2·m·k·n per call) beside BenchmarkFP32Kernels' FP32 numbers.
func BenchmarkQ8Kernels(b *testing.B) {
	for _, s := range q8Shapes {
		m, k, n := s[0], s[1], s[2]
		for _, asm := range []bool{true, false} {
			path := "go"
			if asm {
				if !useQdotAsm {
					continue
				}
				path = "asm"
			}
			b.Run(fmt.Sprintf("%dx%dx%d/%s", m, k, n, path), func(b *testing.B) {
				r := rng.New(1)
				a, q, dst := randMatrix(r, m, k), QuantizeMatrix(randMatrix(r, n, k), 0), NewMatrix(m, n)
				withQdotAsm(asm, func() {
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
