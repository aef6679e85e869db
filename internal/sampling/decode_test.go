package sampling

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"zipflm/internal/rng"
	"zipflm/internal/tensor"
)

// TestTopKSelectionMatchesSort: the heap-based top-k candidate set must be
// exactly the first k of a (logit desc, id asc) full sort, including under
// heavy ties.
func TestTopKSelectionMatchesSort(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 50; trial++ {
		v := 20 + r.Intn(200)
		logits := make([]float32, v)
		for i := range logits {
			logits[i] = float32(r.Intn(12)) * 0.25 // ties everywhere
		}
		k := 1 + r.Intn(v-1)

		d := NewDecoder(v)
		d.sampleTopK(logits, DecodeOpts{Temperature: 1, TopK: k}, rng.New(1))
		got := append([]int(nil), d.idx[:k]...)
		sort.Ints(got)

		ref := make([]int, v)
		for i := range ref {
			ref[i] = i
		}
		sort.Slice(ref, func(a, b int) bool {
			if logits[ref[a]] != logits[ref[b]] {
				return logits[ref[a]] > logits[ref[b]]
			}
			return ref[a] < ref[b]
		})
		want := append([]int(nil), ref[:k]...)
		sort.Ints(want)

		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (v=%d k=%d): heap set %v != sort prefix %v", trial, v, k, got, want)
			}
		}
	}
}

// TestSampleDeterministic: equal seeds draw equal tokens across every
// decode mode; draws stay inside the candidate restriction.
func TestSampleDeterministic(t *testing.T) {
	r := rng.New(9)
	const v = 64
	logits := make([]float32, v)
	for i := range logits {
		logits[i] = float32(r.NormFloat64())
	}
	for _, opts := range []DecodeOpts{
		{Temperature: 0},
		{Temperature: 1},
		{Temperature: 0.7, TopK: 8},
		{Temperature: 0.7, TopP: 0.6},
		{Temperature: 1.2, TopK: 16, TopP: 0.9},
	} {
		d := NewDecoder(v)
		for trial := 0; trial < 20; trial++ {
			a := d.Sample(logits, opts, rng.New(uint64(trial)))
			b := NewDecoder(v).Sample(logits, opts, rng.New(uint64(trial)))
			if a != b {
				t.Fatalf("opts %+v trial %d: %d != %d across decoders", opts, trial, a, b)
			}
			if a < 0 || a >= v {
				t.Fatalf("opts %+v drew out-of-range %d", opts, a)
			}
		}
	}
}

// TestTopKRestrictsSupport: over many draws, only the top-k ids appear.
func TestTopKRestrictsSupport(t *testing.T) {
	const v, k = 32, 4
	logits := make([]float32, v)
	for i := range logits {
		logits[i] = float32(v - i) // strictly decreasing: top-k = {0..k-1}
	}
	d := NewDecoder(v)
	r := rng.New(5)
	for trial := 0; trial < 200; trial++ {
		got := d.Sample(logits, DecodeOpts{Temperature: 2, TopK: k}, r)
		if got >= k {
			t.Fatalf("top-%d draw returned id %d", k, got)
		}
	}
}

// TestTopKWiderThanVocab: k ≥ |V| restricts nothing — it must behave
// exactly like unrestricted sampling (same draws from the same RNG state),
// not panic, not skew the distribution, for both the pure top-k fast path
// and the combined top-k/top-p path.
func TestTopKWiderThanVocab(t *testing.T) {
	const v = 16
	r := rng.New(21)
	logits := make([]float32, v)
	for i := range logits {
		logits[i] = float32(r.NormFloat64())
	}
	for _, k := range []int{v, v + 1, 10 * v} {
		for trial := 0; trial < 50; trial++ {
			free := NewDecoder(v).Sample(logits, DecodeOpts{Temperature: 0.8}, rng.New(uint64(trial)))
			wide := NewDecoder(v).Sample(logits, DecodeOpts{Temperature: 0.8, TopK: k}, rng.New(uint64(trial)))
			if free != wide {
				t.Fatalf("k=%d trial %d: wide top-k drew %d, unrestricted drew %d", k, trial, wide, free)
			}
			// Combined with nucleus: the oversized k must not disturb the
			// pure top-p cut either.
			p := NewDecoder(v).Sample(logits, DecodeOpts{Temperature: 0.8, TopP: 0.7}, rng.New(uint64(trial)))
			pk := NewDecoder(v).Sample(logits, DecodeOpts{Temperature: 0.8, TopK: k, TopP: 0.7}, rng.New(uint64(trial)))
			if p != pk {
				t.Fatalf("k=%d trial %d: top-p %d vs top-p+wide-k %d", k, trial, p, pk)
			}
		}
		// Greedy with an oversized k stays argmax.
		if got := NewDecoder(v).Sample(logits, DecodeOpts{TopK: k}, rng.New(1)); got != argmax(logits) {
			t.Fatalf("k=%d greedy drew %d, argmax is %d", k, got, argmax(logits))
		}
	}
}

// TestTopPRestrictsSupport: a tiny nucleus over a peaked distribution keeps
// draws at the head.
func TestTopPRestrictsSupport(t *testing.T) {
	const v = 32
	logits := make([]float32, v)
	logits[7] = 50 // ~all mass at id 7
	d := NewDecoder(v)
	r := rng.New(6)
	for trial := 0; trial < 100; trial++ {
		if got := d.Sample(logits, DecodeOpts{Temperature: 1, TopP: 0.5}, r); got != 7 {
			t.Fatalf("nucleus draw escaped the head: %d", got)
		}
	}
}

// TestSampleTinyTemperature is the regression test for temperatures whose
// reciprocal overflows float32: the scaled logits used to become ±Inf and
// NaN, the softmax NaN, and the CDF walk fell through to the last candidate
// (the last vocabulary id on the plain and top-p paths). Such a temperature
// is greedy in the limit, on every path, and still draws its one variate;
// 1e-38, whose reciprocal is representable, takes the ordinary path to the
// same token.
func TestSampleTinyTemperature(t *testing.T) {
	logits := []float32{0.1, 2.5, -1, 0, 0.7}
	d := NewDecoder(len(logits))
	for _, temp := range []float64{1e-38, 1e-40, 1e-300} {
		for name, opts := range map[string]DecodeOpts{
			"plain": {Temperature: temp},
			"top-k": {Temperature: temp, TopK: 3},
			"top-p": {Temperature: temp, TopP: 0.9},
		} {
			r, ref := rng.New(5), rng.New(5)
			if got := d.Sample(logits, opts, r); got != 1 {
				t.Errorf("T=%g %s: sampled id %d, want the argmax 1", temp, name, got)
			}
			ref.Float64()
			if r.Uint64() != ref.Uint64() {
				t.Errorf("T=%g %s: Sample did not draw exactly one variate", temp, name)
			}
		}
	}
	// Ties go to the first index, as at temperature 0.
	if got := d.Sample([]float32{1, 3, 3, 0, 3}, DecodeOpts{Temperature: 1e-40}, rng.New(1)); got != 1 {
		t.Errorf("tied logits at T=1e-40: sampled id %d, want 1", got)
	}
}

// TestArgmax pins the one greedy rule: first index on ties, and a NaN logit
// never wins.
func TestArgmax(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, c := range []struct {
		logits []float32
		want   int
	}{
		{[]float32{0.1, 2.5, -1}, 1},
		{[]float32{1, 3, 3, 0, 3}, 1},
		{[]float32{-inf, -inf}, 0},
		{[]float32{0, inf, inf}, 1},
		{[]float32{nan, -4, 7, 7}, 2},
		{[]float32{5, nan, 2}, 0},
		{[]float32{nan, nan}, 0},
	} {
		if got := argmax(c.logits); got != c.want {
			t.Errorf("argmax(%v) = %d, want %d", c.logits, got, c.want)
		}
	}
}

// TestSampleNonFiniteLogits: logits that define no distribution (a NaN, or
// nothing but −Inf) fall back to argmax on every path and still cost the
// caller's RNG exactly one variate — they used to return the last candidate
// off the end of a NaN CDF; a +Inf logit takes the whole mass, and several
// share it.
func TestSampleNonFiniteLogits(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	paths := map[string]DecodeOpts{
		"plain": {Temperature: 0.9},
		"top-k": {Temperature: 0.9, TopK: 3},
		"top-p": {Temperature: 0.9, TopP: 0.9},
	}
	for _, c := range []struct {
		name   string
		logits []float32
		want   map[int]bool
	}{
		{"NaN", []float32{0.1, nan, 2.5, 0, 0.7}, map[int]bool{2: true}},
		{"NaN first", []float32{nan, 0.1, 2.5, 0, 0.7}, map[int]bool{2: true}},
		{"NaN last", []float32{0.1, 2.5, 0, 0.7, nan}, map[int]bool{1: true}},
		{"all -Inf", []float32{-inf, -inf, -inf, -inf, -inf}, map[int]bool{0: true}},
		{"+Inf wins", []float32{0.1, 2.5, inf, 0, 0.7}, map[int]bool{2: true}},
		{"+Infs share", []float32{inf, 2.5, -inf, inf, 0.7}, map[int]bool{0: true, 3: true}},
	} {
		for path, opts := range paths {
			d := NewDecoder(len(c.logits))
			seen := map[int]bool{}
			for trial := 0; trial < 40; trial++ {
				r, ref := rng.New(uint64(trial)), rng.New(uint64(trial))
				got := d.Sample(c.logits, opts, r)
				if !c.want[got] {
					t.Fatalf("%s %s: sampled id %d, want one of %v", c.name, path, got, c.want)
				}
				seen[got] = true
				ref.Float64()
				if r.Uint64() != ref.Uint64() {
					t.Fatalf("%s %s: Sample did not draw exactly one variate", c.name, path)
				}
			}
			if len(seen) != len(c.want) {
				t.Errorf("%s %s: 40 draws reached %v, want all of %v", c.name, path, seen, c.want)
			}
		}
	}
}

// TestSampleMatchesScalarDefinition holds Sample's distribution to the
// scalar definition bit for bit: each logit times float32(1/T), one rounded
// multiply, then the softmax of that row, whose maximum is the first of the
// largest (a NaN first kept, a NaN later skipped, the first zero's sign). The
// rows are the ones where a vector pass could disagree with the loops: a NaN
// first and later, a ±0 maximum either way round, ±Inf, all −Inf, at every
// length 1–40, so each len%8 follows zero to several blocks of eight. The
// draw that follows reads nothing else, so equal probabilities are equal
// tokens.
func TestSampleMatchesScalarDefinition(t *testing.T) {
	inf, negZero := float32(math.Inf(1)), float32(math.Copysign(0, -1))
	nan1, nan2 := math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00155)
	r := rng.New(5)
	for n := 1; n <= 40; n++ {
		base, neg, allNegInf := make([]float32, n), make([]float32, n), make([]float32, n)
		for i := range base {
			base[i] = float32(r.NormFloat64() * 3)
			neg[i] = -1 - float32(math.Abs(r.NormFloat64()))
			allNegInf[i] = -inf
		}
		rows := map[string][]float32{"random": base, "all -Inf": allNegInf}
		for p := 0; p < n; p++ {
			q := (p + n/2 + 1) % n
			set := func(x []float32, vp, vq float32) []float32 {
				x = append([]float32(nil), x...)
				x[q], x[p] = vq, vp
				return x
			}
			for name, x := range map[string][]float32{
				"NaN, NaN later": set(base, nan1, nan2),
				"+Inf":           set(base, inf, base[q]),
				"-Inf":           set(base, -inf, base[q]),
				"-0, +0":         set(neg, negZero, 0),
				"+0, -0":         set(neg, 0, negZero),
				"-0 above -Inf":  set(allNegInf, negZero, -inf),
			} {
				rows[fmt.Sprintf("%s at %d, %d", name, p, q)] = x
			}
		}
		d := NewDecoder(n)
		for name, logits := range rows {
			for _, temp := range []float64{0.8, 1, 3} {
				inv := float32(1 / temp)
				want := make([]float32, n)
				for i, v := range logits {
					want[i] = v * inv
				}
				wantMax := want[0]
				for _, v := range want {
					if v > wantMax {
						wantMax = v
					}
				}
				if gotMax, _ := tensor.ExpSumRow(nil, want); math.Float32bits(gotMax) != math.Float32bits(wantMax) {
					t.Fatalf("n=%d %s T=%v: softmax maximum %#08x, scalar %#08x", n, name, temp, math.Float32bits(gotMax), math.Float32bits(wantMax))
				}
				tensor.SoftmaxRow(want)
				d.Sample(logits, DecodeOpts{Temperature: temp}, rng.New(1))
				for i := range want {
					if math.Float32bits(d.probs[i]) != math.Float32bits(want[i]) {
						t.Fatalf("n=%d %s T=%v: probability %d is %#08x, scalar definition %#08x",
							n, name, temp, i, math.Float32bits(d.probs[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}

// BenchmarkDecoderSample times one unrestricted draw from 8 000 logits at
// temperature 0.8, the serving workloads' vocabulary: the scale, the
// softmax (maximum, exponentials and sum) and the inverse-CDF walk.
func BenchmarkDecoderSample(b *testing.B) {
	r := rng.New(1)
	logits := make([]float32, 8000)
	for i := range logits {
		logits[i] = float32(r.NormFloat64() * 2)
	}
	d := NewDecoder(len(logits))
	opts := DecodeOpts{Temperature: 0.8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Sample(logits, opts, r)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "us/token")
}
