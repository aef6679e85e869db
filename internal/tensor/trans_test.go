package tensor

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"zipflm/internal/rng"
)

// withTransAsm runs fn with the AVX2 gate forced off (on=false) or left as
// CPUID set it (on=true; a host without the kernels stays portable).
func withTransAsm(on bool, fn func()) {
	old := useTransAsm
	useTransAsm = on && old
	defer func() { useTransAsm = old }()
	fn()
}

// ulps is |got − want| in units of the float32 spacing at want (2⁻¹⁴⁹ below
// the normal range).
func ulps(got float32, want float64) float64 {
	_, e := math.Frexp(want)
	if e < -125 {
		e = -125
	}
	return math.Abs(float64(got)-want) / math.Ldexp(1, e-24)
}

// ordered maps k ∈ [0, 2³²) to a float32 so that the value ascends with k:
// negative NaNs, −Inf … −0, +0 … +Inf, positive NaNs.
func ordered(k uint64) float32 {
	if k < 1<<31 {
		return math.Float32frombits(^uint32(k))
	}
	return math.Float32frombits(uint32(k - 1<<31))
}

const minNormal = 0x1p-126

func denormal(v float32) bool { return v != 0 && v > -minNormal && v < minNormal }

// transSweep checks the definitions against the float64 oracle on
// ordered(lo), ordered(lo+stride), … below hi, and returns the largest error
// of each function in ulps. It reports the first few violations of each kind
// and gives up after that.
func transSweep(t *testing.T, lo, hi, stride uint64) (expErr, tanhErr, sigErr float64) {
	bad := 0
	fail := func(format string, args ...any) {
		if bad++; bad <= 5 {
			t.Errorf(format, args...)
		}
	}
	prevSig := float32(0)
	for k := lo; k < hi && bad <= 5; k += stride {
		x := ordered(k)
		x64 := float64(x)
		e, th, sg := exp32(x), tanh32(x), sigmoid32(x)
		if x != x {
			if e == e || th == th || sg == sg {
				fail("NaN input %#08x: exp %v tanh %v sigmoid %v, want NaN", math.Float32bits(x), e, th, sg)
			}
			continue
		}

		// exp: the two clamps sit exactly where float32 runs out, and in
		// between the result is a normal number within the bound.
		want := math.Exp(x64)
		switch {
		case x > expHi:
			if !math.IsInf(float64(e), 1) || want <= math.MaxFloat32 {
				fail("exp32(%v) = %v above expHi (float64 says %v)", x, e, want)
			}
		case x < expLo:
			if e != 0 || want >= minNormal {
				fail("exp32(%v) = %v below expLo (float64 says %v)", x, e, want)
			}
		default:
			u := ulps(e, want)
			if u > expErr {
				expErr = u
			}
			if u > expMaxULP || denormal(e) || want > math.MaxFloat32 || want < minNormal {
				fail("exp32(%v) = %v, float64 says %v: %.2f ulp", x, e, want, u)
			}
		}

		// tanh: within the bound, odd, exact at ±0, never beyond ±1.
		want = math.Tanh(x64)
		u := ulps(th, want)
		if u > tanhErr {
			tanhErr = u
		}
		if u > tanhMaxULP || th > 1 || th < -1 {
			fail("tanh32(%v) = %v, float64 says %v: %.2f ulp", x, th, want, u)
		}
		if m := tanh32(-x); math.Float32bits(m) != math.Float32bits(th)^(1<<31) {
			fail("tanh32 is not odd at %v: %v and %v", x, th, m)
		}
		if x == 0 && math.Float32bits(th) != math.Float32bits(x) {
			fail("tanh32(%v) = %v", x, th)
		}

		// sigmoid: within the bound, in [0, 1], never a denormal, and never
		// falling as x rises.
		want = 1 / (1 + math.Exp(-x64))
		if x < expLo {
			if sg != 0 || want >= minNormal {
				fail("sigmoid32(%v) = %v below expLo (float64 says %v)", x, sg, want)
			}
		} else {
			u = ulps(sg, want)
			if u > sigErr {
				sigErr = u
			}
			if u > sigmoidMaxULP || denormal(sg) || sg > 1 {
				fail("sigmoid32(%v) = %v, float64 says %v: %.2f ulp", x, sg, want, u)
			}
		}
		if sg < prevSig {
			fail("sigmoid32 falls from %v to %v at %v", prevSig, sg, x)
		}
		prevSig = sg
	}
	return expErr, tanhErr, sigErr
}

// TestTransOracle walks every 251st float32 in value order (17.1 M inputs,
// NaNs, infinities, denormals and both clamps included) and holds the three
// definitions to their stated bounds against float64 math.Exp and math.Tanh.
func TestTransOracle(t *testing.T) {
	e, th, sg := transSweep(t, 0, 1<<32, 251)
	t.Logf("max error over the strided walk: exp %.3f ulp, tanh %.3f ulp, sigmoid %.3f ulp", e, th, sg)
}

// TestTransOracleExhaustive is the same check on all 2³² inputs, adjacent
// pairs included (so the monotonicity of sigmoid32 is checked at every
// step). It takes minutes: it runs only when named by -run and never under
// -short.
func TestTransOracleExhaustive(t *testing.T) {
	if testing.Short() || !strings.Contains(flag.Lookup("test.run").Value.String(), "Exhaustive") {
		t.Skip("run with -run Exhaustive")
	}
	const chunk = 1 << 24
	var mu sync.Mutex
	var me, mth, msg float64
	var wg sync.WaitGroup
	next := make(chan uint64)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := range next {
				// Chunks overlap by one input so every adjacent pair is seen.
				start := lo
				if start > 0 {
					start--
				}
				e, th, sg := transSweep(t, start, lo+chunk, 1)
				mu.Lock()
				me, mth, msg = math.Max(me, e), math.Max(mth, th), math.Max(msg, sg)
				mu.Unlock()
			}
		}()
	}
	for lo := uint64(0); lo < 1<<32; lo += chunk {
		next <- lo
	}
	close(next)
	wg.Wait()
	t.Logf("max error over all float32: exp %.3f ulp, tanh %.3f ulp, sigmoid %.3f ulp", me, mth, msg)
}

// TestTransEdges pins the defined results at the edges of the domain.
func TestTransEdges(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	for _, c := range []struct {
		name      string
		got, want float32
	}{
		{"exp(+Inf)", exp32(inf), inf},
		{"exp(-Inf)", exp32(-inf), 0},
		{"exp(0)", exp32(0), 1},
		{"exp(-0)", exp32(negZero), 1},
		{"exp(above expHi)", exp32(math.Nextafter32(expHi, inf)), inf},
		{"exp(below expLo)", exp32(math.Nextafter32(expLo, -inf)), 0},
		{"exp(MaxFloat32)", exp32(math.MaxFloat32), inf},
		{"exp(-MaxFloat32)", exp32(-math.MaxFloat32), 0},
		{"exp(denormal)", exp32(1e-40), 1},
		{"tanh(+Inf)", tanh32(inf), 1},
		{"tanh(-Inf)", tanh32(-inf), -1},
		{"tanh(0)", tanh32(0), 0},
		{"tanh(-0)", tanh32(negZero), negZero},
		{"tanh(denormal)", tanh32(-3e-42), -3e-42},
		{"tanh(20)", tanh32(20), 1},
		{"sigmoid(+Inf)", sigmoid32(inf), 1},
		{"sigmoid(-Inf)", sigmoid32(-inf), 0},
		{"sigmoid(0)", sigmoid32(0), 0.5},
		{"sigmoid(-0)", sigmoid32(negZero), 0.5},
		{"sigmoid(100)", sigmoid32(100), 1},
		{"sigmoid(-100)", sigmoid32(-100), 0},
	} {
		if math.Float32bits(c.got) != math.Float32bits(c.want) {
			t.Errorf("%s = %v (%#08x), want %v (%#08x)", c.name, c.got, math.Float32bits(c.got), c.want, math.Float32bits(c.want))
		}
	}
	if v := exp32(expHi); v > math.MaxFloat32 || v < 3.4e38 {
		t.Errorf("exp(expHi) = %v, want just under MaxFloat32", v)
	}
	if v := exp32(expLo); v < minNormal || v > 1.18e-38 {
		t.Errorf("exp(expLo) = %v, want just over 2^-126", v)
	}
	for name, got := range map[string]float32{"exp": exp32(nan), "tanh": tanh32(nan), "sigmoid": sigmoid32(nan)} {
		if got == got {
			t.Errorf("%s(NaN) = %v, want NaN", name, got)
		}
	}
}

// TestSoftmaxEdgeRows pins the rows Inf − Inf used to turn into NaN by
// accident: what LogSumExpRow and SoftmaxRow return when a row has no finite
// maximum, on both paths and in the scalar tail as well as in whole blocks.
func TestSoftmaxEdgeRows(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	rep := func(v float32, n int) []float32 {
		x := make([]float32, n)
		for i := range x {
			x[i] = v
		}
		return x
	}
	with := func(x []float32, i int, v float32) []float32 { x[i] = v; return x }
	oneHot := func(n, i int) []float32 { return with(rep(0, n), i, 1) }
	for _, c := range []struct {
		name    string
		x       []float32
		lse     float64
		softmax []float32
	}{
		{"empty", nil, math.Inf(-1), nil},
		{"one logit", []float32{3}, 3, []float32{1}},
		{"all -Inf", rep(-inf, 3), math.Inf(-1), rep(nan, 3)},
		{"all -Inf, blocks", rep(-inf, 19), math.Inf(-1), rep(nan, 19)},
		{"-Inf beside a number", []float32{-inf, 0}, 0, []float32{0, 1}},
		{"-Inf around a number, blocks", with(rep(-inf, 21), 9, 2.5), 2.5, oneHot(21, 9)},
		{"+Inf wins", []float32{1, inf, 2}, math.Inf(1), []float32{0, 1, 0}},
		{"+Inf wins, blocks", with(rep(88, 16), 11, inf), math.Inf(1), oneHot(16, 11)},
		{"+Infs share", []float32{inf, 0, inf, -inf}, math.Inf(1), []float32{0.5, 0, 0.5, 0}},
		{"NaN", []float32{1, nan, 2}, math.NaN(), rep(nan, 3)},
		{"NaN first", []float32{nan, 1}, math.NaN(), rep(nan, 2)},
		{"NaN beside +Inf", []float32{inf, nan}, math.NaN(), rep(nan, 2)},
		{"NaN beside -Inf", []float32{-inf, nan, -inf}, math.NaN(), rep(nan, 3)},
		{"NaN in a block", with(rep(0.5, 24), 13, nan), math.NaN(), rep(nan, 24)},
	} {
		for _, asm := range []bool{true, false} {
			withTransAsm(asm, func() {
				if got := LogSumExpRow(c.x); got != c.lse && !(got != got && c.lse != c.lse) {
					t.Errorf("%s (asm=%v): LogSumExpRow = %v, want %v", c.name, asm, got, c.lse)
				}
				p := cloneVec(c.x)
				SoftmaxRow(p)
				for i := range p {
					if p[i] != c.softmax[i] && !(p[i] != p[i] && c.softmax[i] != c.softmax[i]) {
						t.Errorf("%s (asm=%v): SoftmaxRow = %v, want %v", c.name, asm, p, c.softmax)
						break
					}
				}
			})
		}
	}
}

// transInputs returns n inputs at offset off of a fresh buffer. Every lane of
// a block takes a different path through the kernels: magnitudes from
// denormal to beyond the clamps, and with special set about one value in
// four is a NaN (payload bits set: the shift that rebuilds the exponent must
// not get to turn them into a number), an infinity, a signed zero, a denormal or sits on one of the
// definitions' own thresholds.
func transInputs(r *rng.RNG, n, off int, special bool) []float32 {
	inf := float32(math.Inf(1))
	specials := []float32{
		float32(math.NaN()), math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00155),
		math.Float32frombits(0x7f800003), inf, -inf, 0, float32(math.Copysign(0, -1)), 1e-40, -3e-42,
		expHi, math.Nextafter32(expHi, inf), expLo, math.Nextafter32(expLo, -inf), -expHi, -expLo,
		tanhSmall, math.Nextafter32(tanhSmall, 0), -tanhSmall, 9.02, -9.02, 44.4, -43.7,
		0.34657359, -0.34657359, 1.0397208, 17.3, -17.3, math.MaxFloat32, -math.MaxFloat32,
	}
	x := make([]float32, n+off)[off:]
	for i := range x {
		x[i] = float32(r.NormFloat64() * math.Pow(10, float64(r.Intn(5))-2))
		if special && r.Intn(4) == 0 {
			x[i] = specials[r.Intn(len(specials))]
		}
	}
	return x
}

// TestTransAsmMatchesGo holds the AVX2 kernels to the Go definitions bit for
// bit, through the public wrappers (whole blocks in assembly, the last len%8
// elements in Go): every length from 0 to 67, unaligned heads, separate and
// aliased destinations, sentinel-guarded. Like TestFP32AsmMatchesGo it is
// the only suite that compares the two encodings — everything else runs the
// same kernel on both sides. Skipped where the asm does not run.
func TestTransAsmMatchesGo(t *testing.T) {
	if !useTransAsm {
		t.Skip("no AVX2 transcendental kernels on this build or host")
	}
	r := rng.New(97)
	for n := 0; n <= 67; n++ {
		for _, off := range []int{0, 1, 3} {
			for _, special := range []bool{false, true} {
				ctx := fmt.Sprintf("n=%d off=%d special=%v", n, off, special)
				src := transInputs(r, n, off, special)
				transAsmVsGo(t, ctx, src)
				// expSum at shifts other than the row's maximum (every clamp
				// reached), exponentials kept and dropped.
				for _, shift := range []float32{0, 0.75, -3, 80} {
					sctx := fmt.Sprintf("%s expSum shift=%v", ctx, shift)
					got, want := newGuarded(src), make([]float32, n)
					gs := expSum(got.v, src, shift)
					var ws, wn float32
					withTransAsm(false, func() { ws, wn = expSum(want, src, shift), expSum(nil, src, shift) })
					sameFloats(t, sctx, got.v, want)
					got.check(t, sctx)
					sameFloats(t, sctx+" sums (kept, dropped asm, dropped go)", []float32{gs, expSum(nil, src, shift), wn}, []float32{ws, ws, ws})
				}
			}
		}
	}
}

// transAsmVsGo runs Tanh, Sigmoid and ExpSumRow (the row's own maximum as
// the shift; the ±Inf and NaN rows) over src with the assembly on and off,
// into a separate sentinel-guarded destination and in place, and demands the
// same bits.
func transAsmVsGo(t *testing.T, ctx string, src []float32) {
	t.Helper()
	for name, f := range map[string]func(dst, src []float32) []float32{
		"Tanh":    func(dst, src []float32) []float32 { Tanh(dst, src); return nil },
		"Sigmoid": func(dst, src []float32) []float32 { Sigmoid(dst, src); return nil },
		"ExpSumRow": func(dst, src []float32) []float32 {
			m, s := ExpSumRow(dst, src)
			return []float32{m, s}
		},
	} {
		want := make([]float32, len(src))
		var wantRet []float32
		withTransAsm(false, func() { wantRet = f(want, src) })
		got := newGuarded(src)
		gotRet := f(got.v, src)
		sameFloats(t, ctx+" "+name, got.v, want)
		sameFloats(t, ctx+" "+name+" results", gotRet, wantRet)
		got.check(t, ctx+" "+name)
		got = newGuarded(src)
		gotRet = f(got.v, got.v)
		sameFloats(t, ctx+" "+name+" in place", got.v, want)
		sameFloats(t, ctx+" "+name+" in place results", gotRet, wantRet)
		got.check(t, ctx+" "+name+" in place")
	}
}

// FuzzTransMatchesGo feeds arbitrary bit patterns to the three kernels: the
// assembly must agree with the Go definitions on every one of them, and the
// definitions with the float64 oracle.
func FuzzTransMatchesGo(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x00\x80\x3f\x00\x00\xc0\x7f\x00\x00\x80\xff"))
	seed := make([]byte, 4*19)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, raw []byte) {
		src := make([]float32, len(raw)/4)
		for i := range src {
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		transAsmVsGo(t, "fuzz", src)
		for _, x := range src {
			bits := math.Float32bits(x)
			k := uint64(bits) + 1<<31 // the inverse of ordered
			if bits>>31 != 0 {
				k = uint64(^bits)
			}
			transSweep(t, k, k+1, 1)
		}
	})
}

// rowMaxVsGo holds ExpSumRow with the vector maximum to ExpSumRow with maxGo,
// both on x and in place, and rowMax to maxGo, bit for bit: the maximum, the
// sum and every exponential, NaN payloads included. It returns what differs,
// or "".
func rowMaxVsGo(x []float32) string {
	if g, w := rowMax(x), maxGo(x); math.Float32bits(g) != math.Float32bits(w) {
		return fmt.Sprintf("rowMax %v (%#08x) != maxGo %v (%#08x)", g, math.Float32bits(g), w, math.Float32bits(w))
	}
	want := make([]float32, len(x))
	var wm, ws float32
	tierGo.with(func() { wm, ws = ExpSumRow(want, x) })
	got, inPlace := newGuarded(x), newGuarded(x)
	gm, gs := ExpSumRow(got.v, x)
	pm, ps := ExpSumRow(inPlace.v, inPlace.v)
	for _, g := range []guarded{got, inPlace} {
		if g.buf[0] != fp32Sentinel || g.buf[len(g.buf)-1] != fp32Sentinel {
			return "ExpSumRow stored outside its destination"
		}
	}
	gotAll := append([]float32{gm, gs, pm, ps}, append(got.v, inPlace.v...)...)
	for i, w := range append([]float32{wm, ws, wm, ws}, append(want, want...)...) {
		if math.Float32bits(gotAll[i]) != math.Float32bits(w) {
			return fmt.Sprintf("ExpSumRow (max, sum, in-place max, in-place sum, then each e) element %d: %#08x != scalar %#08x",
				i, math.Float32bits(gotAll[i]), math.Float32bits(w))
		}
	}
	return ""
}

// TestRowMaxMatchesGo holds the vector maximum under every softmax to the
// scalar loop on the rows where lanes could disagree with it: a NaN first
// (kept, with its payload) and later (never taken), a ±0 maximum with the
// two zeros in either order and in different lanes, +Inf, all −Inf, and
// every length 0–67, so each len%8 follows zero, one and several blocks.
func TestRowMaxMatchesGo(t *testing.T) {
	inf, negZero := float32(math.Inf(1)), float32(math.Copysign(0, -1))
	nan1, nan2 := math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00155)
	r := rng.New(83)
	for n := 0; n <= 67; n++ {
		for _, off := range []int{0, 1, 3} {
			base := transInputs(r, n, off, false)
			neg := cloneVec(base)
			for i := range neg {
				neg[i] = -float32(math.Abs(float64(neg[i]))) - 1
			}
			check := func(what string, x []float32) {
				t.Helper()
				if msg := rowMaxVsGo(x); msg != "" {
					t.Fatalf("n=%d off=%d %s %v: %s", n, off, what, x, msg)
				}
			}
			check("random", base)
			check("special", transInputs(r, n, off, true))
			allNegInf := cloneVec(base)
			for i := range allNegInf {
				allNegInf[i] = -inf
			}
			check("all -Inf", allNegInf)
			for p := 0; p < n; p++ {
				q := (p + n/2 + 1) % n
				set := func(x []float32, vs ...float32) []float32 {
					x = cloneVec(x)
					x[p] = vs[0]
					if len(vs) > 1 && q != p {
						x[q] = vs[1]
					}
					return x
				}
				check("NaN, NaN", set(base, nan1, nan2))
				check("NaN", set(base, nan2))
				check("+Inf", set(base, inf))
				check("-Inf below negatives", set(neg, -inf))
				check("+Inf, NaN", set(base, inf, nan1))
				check("-0, +0 above negatives", set(neg, negZero, 0))
				check("+0, -0 above negatives", set(neg, 0, negZero))
				check("-0 above -Inf", set(allNegInf, negZero))
				check("-0, +0 above -Inf", set(allNegInf, negZero, 0))
			}
		}
	}
}

// FuzzRowMaxMatchesGo is TestRowMaxMatchesGo over arbitrary bit patterns.
// The seeds are the rows the test builds by hand: a NaN first, a NaN later,
// ±0 maxima in both orders across lanes, ±Inf, all −Inf, and a len%8 tail.
func FuzzRowMaxMatchesGo(f *testing.F) {
	row := func(vs ...uint32) []byte {
		b := make([]byte, 4*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		return b
	}
	const (
		one, minusOne, negZero, inf, negInf = 0x3f800000, 0xbf800000, 0x80000000, 0x7f800000, 0xff800000
		nan1, nan2                          = 0x7fc00001, 0xffc00155
	)
	f.Add([]byte{})
	f.Add(row(nan1, one, minusOne, one, one, one, one, one, nan2))
	f.Add(row(one, one, nan1, one, one, one, one, one, one, nan2))
	f.Add(row(minusOne, negZero, minusOne, minusOne, minusOne, 0, minusOne, minusOne, minusOne))
	f.Add(row(minusOne, 0, minusOne, minusOne, minusOne, negZero, minusOne, minusOne, negInf, 0))
	f.Add(row(negInf, negInf, negInf, negInf, negInf, negInf, negInf, negInf, negInf, negInf, negInf))
	f.Add(row(one, negInf, one, one, inf, one, one, one, one, inf, nan1, one, one, one, one, one, negInf))
	f.Fuzz(func(t *testing.T, raw []byte) {
		x := make([]float32, len(raw)/4)
		for i := range x {
			x[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		if msg := rowMaxVsGo(x); msg != "" {
			t.Fatalf("%v: %s", x, msg)
		}
	})
}

// BenchmarkTransKernels times the three kernels on the assembly and on the
// portable path at the row lengths the models issue (a gate row of the word
// LM, its candidate logits, a full 8000-word softmax) and reports ns per
// element.
func BenchmarkTransKernels(b *testing.B) {
	for _, n := range []int{128, 260, 8000} {
		src, dst := transInputs(rng.New(1), n, 0, false), make([]float32, n)
		for name, fn := range map[string]func(){
			"Tanh":      func() { Tanh(dst, src) },
			"Sigmoid":   func() { Sigmoid(dst, src) },
			"ExpSumRow": func() { fp32Sink, _ = ExpSumRow(dst, src) },
		} {
			for _, asm := range []bool{true, false} {
				path := "go"
				if asm {
					if !useTransAsm {
						continue
					}
					path = "asm"
				}
				b.Run(fmt.Sprintf("%s/%d/%s", name, n, path), func(b *testing.B) {
					withTransAsm(asm, func() {
						for i := 0; i < b.N; i++ {
							fn()
						}
					})
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
				})
			}
		}
	}
}
