package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams from different seeds matched %d/100 times", same)
	}
}

func TestZeroSeedIsValid(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 30} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(99)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want ~%.0f", k, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat32Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float32()
		if f < 0 || f >= 1 {
			t.Fatalf("Float32 = %v out of [0,1)", f)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(5)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		// Shuffling the identity must yield a permutation of [0, n).
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(123)
	childA := parent.Fork()
	childB := parent.Fork()
	if childA.Uint64() == childB.Uint64() {
		// A single collision is astronomically unlikely.
		t.Fatal("sibling forks produced identical first outputs")
	}
	// Forking is deterministic from the root seed.
	parent2 := New(123)
	childA2 := parent2.Fork()
	if childA2.Uint64() != New(123).Fork().Uint64() {
		t.Fatal("fork tree is not reproducible from root seed")
	}
	_ = childA
}

func TestMul128(t *testing.T) {
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul128(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul128(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestZipfRange(t *testing.T) {
	r := New(17)
	for _, n := range []int{1, 2, 100, 100000} {
		z := NewZipf(r, n, 1.0)
		for i := 0; i < 1000; i++ {
			k := z.Next()
			if k < 0 || k >= n {
				t.Fatalf("Zipf(n=%d) = %d out of range", n, k)
			}
		}
	}
}

// TestZipfSlope verifies the empirical rank-frequency distribution follows
// the configured power law: freq(rank) ~ rank^-s, the property Figure 1 of
// the paper depends on.
func TestZipfSlope(t *testing.T) {
	for _, s := range []float64{0.8, 1.0, 1.2} {
		r := New(29)
		const n, draws = 10000, 2000000
		z := NewZipf(r, n, s)
		counts := make([]float64, n)
		for i := 0; i < draws; i++ {
			counts[z.Next()]++
		}
		// Regress log(count) on log(rank+1) over the well-populated head.
		var sx, sy, sxx, sxy float64
		m := 0
		for k := 0; k < 200; k++ {
			if counts[k] < 10 {
				continue
			}
			x := math.Log(float64(k + 1))
			y := math.Log(counts[k])
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
			m++
		}
		slope := (float64(m)*sxy - sx*sy) / (float64(m)*sxx - sx*sx)
		if math.Abs(-slope-s) > 0.08 {
			t.Errorf("s=%v: empirical slope %v, want ~%v", s, -slope, -s)
		}
	}
}

func TestZipfHeadDominates(t *testing.T) {
	r := New(31)
	z := NewZipf(r, 1000, 1.0)
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[10] {
		t.Errorf("rank 0 (%d draws) not more frequent than rank 10 (%d)", counts[0], counts[10])
	}
}

func TestZipfPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewZipf(New(1), 0, 1) },
		func() { NewZipf(New(1), 10, 0) },
		func() { NewLogUniform(New(1), 0) },
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

func TestLogUniformRange(t *testing.T) {
	r := New(41)
	for _, n := range []int{1, 2, 50, 100000} {
		l := NewLogUniform(r, n)
		for i := 0; i < 2000; i++ {
			k := l.Next()
			if k < 0 || k >= n {
				t.Fatalf("LogUniform(n=%d) = %d out of range", n, k)
			}
		}
	}
}

// TestLogUniformDistribution verifies the empirical frequency matches the
// analytic Prob used by the sampled-softmax correction term.
func TestLogUniformDistribution(t *testing.T) {
	r := New(43)
	const n, draws = 1000, 500000
	l := NewLogUniform(r, n)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[l.Next()]++
	}
	for _, k := range []int{0, 1, 5, 50, 500} {
		want := l.Prob(k) * draws
		got := float64(counts[k])
		if want > 50 && math.Abs(got-want) > 6*math.Sqrt(want) {
			t.Errorf("k=%d: got %v draws, want ~%v", k, got, want)
		}
	}
}

func TestLogUniformProbSumsToOne(t *testing.T) {
	l := NewLogUniform(New(1), 5000)
	var sum float64
	for k := 0; k < 5000; k++ {
		sum += l.Prob(k)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v, want 1", sum)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkZipfNext(b *testing.B) {
	r := New(1)
	z := NewZipf(r, 1_000_000, 1.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Next()
	}
}
