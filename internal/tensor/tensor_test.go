package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"zipflm/internal/rng"
)

func almostEq(a, b, tol float32) bool {
	return float32(math.Abs(float64(a-b))) <= tol
}

// naiveMatMul is the reference three-loop implementation the optimized
// kernels are checked against.
func naiveMatMul(a, b *Matrix, ta, tb bool) *Matrix {
	get := func(m *Matrix, t bool, r, c int) float32 {
		if t {
			return m.At(c, r)
		}
		return m.At(r, c)
	}
	rows, inner, cols := a.Rows, a.Cols, b.Cols
	if ta {
		rows, inner = a.Cols, a.Rows
	}
	if tb {
		cols = b.Rows
	}
	out := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			var sum float32
			for k := 0; k < inner; k++ {
				sum += get(a, ta, i, k) * get(b, tb, k, j)
			}
			out.Row(i)[j] = sum
		}
	}
	return out
}

func randMatrix(r *rng.RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	m.RandomizeNormal(r, 1)
	return m
}

func TestMatMulAgainstNaive(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 30; trial++ {
		m, k, n := r.Intn(8)+1, r.Intn(8)+1, r.Intn(8)+1
		a, b := randMatrix(r, m, k), randMatrix(r, k, n)
		dst := NewMatrix(m, n)
		MatMul(dst, a, b)
		want := naiveMatMul(a, b, false, false)
		for i := range dst.Data {
			if !almostEq(dst.Data[i], want.Data[i], 1e-4) {
				t.Fatalf("trial %d: MatMul[%d] = %v, want %v", trial, i, dst.Data[i], want.Data[i])
			}
		}
	}
}

func TestMatMulATBAgainstNaive(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 30; trial++ {
		m, k, n := r.Intn(8)+1, r.Intn(8)+1, r.Intn(8)+1
		a, b := randMatrix(r, k, m), randMatrix(r, k, n)
		dst := NewMatrix(m, n)
		MatMulATB(dst, a, b)
		want := naiveMatMul(a, b, true, false)
		for i := range dst.Data {
			if !almostEq(dst.Data[i], want.Data[i], 1e-4) {
				t.Fatalf("trial %d: MatMulATB[%d] = %v, want %v", trial, i, dst.Data[i], want.Data[i])
			}
		}
	}
}

func TestMatMulABTAgainstNaive(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 30; trial++ {
		m, k, n := r.Intn(8)+1, r.Intn(8)+1, r.Intn(8)+1
		a, b := randMatrix(r, m, k), randMatrix(r, n, k)
		dst := NewMatrix(m, n)
		MatMulABT(dst, a, b)
		want := naiveMatMul(a, b, false, true)
		for i := range dst.Data {
			if !almostEq(dst.Data[i], want.Data[i], 1e-4) {
				t.Fatalf("trial %d: MatMulABT[%d] = %v, want %v", trial, i, dst.Data[i], want.Data[i])
			}
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(4, 5)
	dst := NewMatrix(2, 5)
	for _, f := range []func(){
		func() { MatMul(dst, a, b) },
		func() { MatMulATB(dst, a, b) },
		func() { MatMulABT(dst, a, b) },
		func() { NewMatrixFrom(2, 2, make([]float32, 3)) },
		func() { NewMatrix(-1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected shape panic")
				}
			}()
			f()
		}()
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	r := rng.New(4)
	src := randMatrix(r, 10, 4)
	idx := []int{3, 3, 0, 9, 5}
	dst := NewMatrix(len(idx), 4)
	GatherRows(dst, src, idx)
	for i, j := range idx {
		for c := 0; c < 4; c++ {
			if dst.At(i, c) != src.At(j, c) {
				t.Fatalf("gather mismatch at (%d,%d)", i, c)
			}
		}
	}
}

// TestScatterAddAccumulatesDuplicates mirrors the paper's Figure 3 scenario:
// two tokens of the same word must accumulate into one embedding row.
func TestScatterAddAccumulatesDuplicates(t *testing.T) {
	dst := NewMatrix(5, 2)
	src := NewMatrixFrom(3, 2, []float32{1, 2, 10, 20, 100, 200})
	ScatterAddRows(dst, src, []int{1, 1, 4})
	if dst.At(1, 0) != 11 || dst.At(1, 1) != 22 {
		t.Errorf("row 1 = (%v,%v), want (11,22)", dst.At(1, 0), dst.At(1, 1))
	}
	if dst.At(4, 0) != 100 || dst.At(4, 1) != 200 {
		t.Errorf("row 4 = (%v,%v), want (100,200)", dst.At(4, 0), dst.At(4, 1))
	}
	if dst.At(0, 0) != 0 || dst.At(2, 0) != 0 || dst.At(3, 0) != 0 {
		t.Error("untouched rows must stay zero")
	}
}

func TestSoftmaxRowProperties(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) == 0 {
			return true
		}
		x := make([]float32, len(raw))
		for i, v := range raw {
			// Clamp to a sane logit range.
			x[i] = float32(math.Mod(float64(v), 30))
			if math.IsNaN(float64(x[i])) {
				x[i] = 0
			}
		}
		SoftmaxRow(x)
		var sum float64
		for _, p := range x {
			if p < 0 || p > 1 || math.IsNaN(float64(p)) {
				return false
			}
			sum += float64(p)
		}
		return math.Abs(sum-1) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxRowStability(t *testing.T) {
	x := []float32{1000, 1000, 1000}
	SoftmaxRow(x)
	for _, p := range x {
		if !almostEq(p, 1.0/3, 1e-5) {
			t.Errorf("softmax of equal large logits = %v, want 1/3", p)
		}
	}
}

func TestLogSumExp(t *testing.T) {
	x := []float32{1, 2, 3}
	want := math.Log(math.Exp(1) + math.Exp(2) + math.Exp(3))
	if got := LogSumExpRow(x); math.Abs(got-want) > 1e-6 {
		t.Errorf("LogSumExp = %v, want %v", got, want)
	}
	// Stability for huge logits.
	if got := LogSumExpRow([]float32{10000}); math.Abs(got-10000) > 1e-3 {
		t.Errorf("LogSumExp([10000]) = %v", got)
	}
	if got := LogSumExpRow(nil); !math.IsInf(got, -1) {
		t.Errorf("LogSumExp(nil) = %v, want -Inf", got)
	}
}

func TestSigmoidTanhRange(t *testing.T) {
	src := []float32{-100, -1, 0, 1, 100}
	dst := make([]float32, len(src))
	Sigmoid(dst, src)
	if !almostEq(dst[2], 0.5, 1e-6) || dst[0] > 1e-6 || dst[4] < 1-1e-6 {
		t.Errorf("sigmoid values wrong: %v", dst)
	}
	Tanh(dst, src)
	if !almostEq(dst[2], 0, 1e-6) || !almostEq(dst[0], -1, 1e-6) || !almostEq(dst[4], 1, 1e-6) {
		t.Errorf("tanh values wrong: %v", dst)
	}
}

func TestAxpyScaleDot(t *testing.T) {
	dst := []float32{1, 2, 3}
	Axpy(2, dst, []float32{10, 20, 30})
	if dst[0] != 21 || dst[1] != 42 || dst[2] != 63 {
		t.Errorf("Axpy result %v", dst)
	}
	Scale(dst, 0.5)
	if dst[0] != 10.5 {
		t.Errorf("Scale result %v", dst)
	}
	if got := dot([]float32{1, 2}, []float32{3, 4}); got != 11 {
		t.Errorf("Dot = %v, want 11", got)
	}
}

func TestClipL2(t *testing.T) {
	x := []float32{3, 4} // norm 5
	pre := ClipL2(x, 1)
	if math.Abs(pre-5) > 1e-6 {
		t.Errorf("pre-clip norm %v, want 5", pre)
	}
	if post := L2Norm(x); math.Abs(post-1) > 1e-5 {
		t.Errorf("post-clip norm %v, want 1", post)
	}
	// No-op when under the limit.
	y := []float32{0.1, 0.1}
	ClipL2(y, 10)
	if y[0] != 0.1 {
		t.Error("clip modified a vector under the limit")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Data[0] = 7
	c := m.Clone()
	c.Data[0] = 9
	if m.At(0, 0) != 7 {
		t.Error("Clone shares storage with original")
	}
}

func TestRowIsView(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Row(1)[2] = 42
	if m.At(1, 2) != 42 {
		t.Error("Row must be a mutable view")
	}
}

func BenchmarkScatterAdd(b *testing.B) {
	r := rng.New(2)
	dst := NewMatrix(1000, 64)
	src := randMatrix(r, 256, 64)
	idx := make([]int, 256)
	for i := range idx {
		idx[i] = r.Intn(1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScatterAddRows(dst, src, idx)
	}
}

// TestFloat32BytesRoundTrip: PutFloat32s writes each element's bits least
// significant byte first and GetFloat32s reads them back exactly, NaN payloads
// and signed zeros included.
func TestFloat32BytesRoundTrip(t *testing.T) {
	src := []float32{1, -2.5, 0, float32(math.Copysign(0, -1)), math.MaxFloat32, 1e-40,
		float32(math.Inf(-1)), math.Float32frombits(0x7fc00123), math.Float32frombits(0xff800001)}
	b := make([]byte, 4*len(src)+3)
	PutFloat32s(b, src)
	if b[0] != 0 || b[1] != 0 || b[2] != 0x80 || b[3] != 0x3f { // 1.0 = 0x3f800000
		t.Fatalf("1.0 encoded as % x, want 00 00 80 3f", b[:4])
	}
	if b[len(b)-1] != 0 || b[len(b)-3] != 0 {
		t.Fatal("PutFloat32s wrote past 4·len(src) bytes")
	}
	got := make([]float32, len(src))
	GetFloat32s(got, b)
	for i := range src {
		if math.Float32bits(got[i]) != math.Float32bits(src[i]) {
			t.Fatalf("element %d: %#08x came back as %#08x", i, math.Float32bits(src[i]), math.Float32bits(got[i]))
		}
	}
}
