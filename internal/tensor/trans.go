package tensor

import "math"

// The transcendentals. exp32, tanh32 and sigmoid32 are the definition: plain
// float32 arithmetic in a fixed order, every product rounded on its own
// (float32(a*b)+c — the conversion forbids the compiler an FMA on every
// architecture), no call into libm. The AVX2 kernels of trans_amd64.s repeat
// exactly these operations eight lanes at a time and read their constants
// from transTab, so there is one set of coefficients; TestTransAsmMatchesGo
// holds them to the functions below bit for bit.
//
// Against float64 math.Exp and math.Tanh, in units of the float32 spacing at
// the true result, over all 2³² inputs (TestTransOracleExhaustive; every
// 251st of them in TestTransOracle): exp32 is within expMaxULP wherever the
// true result is a normal float32 (measured 0.990), tanh32 within tanhMaxULP
// everywhere (1.330), sigmoid32 within sigmoidMaxULP from expLo up (2.481)
// and never decreasing from one float32 to the next.
const (
	expMaxULP     = 1
	tanhMaxULP    = 1.5
	sigmoidMaxULP = 2.5
)

const (
	// expHi is the largest x whose exp is finite in float32; above it exp32
	// is +Inf. expLo is the smallest x whose exp is a normal float32 (2⁻¹²⁶);
	// below it exp32 and sigmoid32 are 0, so neither ever returns a denormal.
	expHi = 88.72283
	expLo = -87.33654

	log2e = 1.4426950408889634
	// roundMagic is 1.5·2²³: adding it to |t| < 2²² leaves round-to-nearest-
	// even(t) in the low mantissa bits, and subtracting it again gives that
	// integer as a float — rounding without a conversion instruction, the
	// same in Go and in a vector register.
	roundMagic = 12582912.0
	// ln2Hi + ln2Lo = ln 2 (Cody–Waite): ln2Hi has nine significant bits, so
	// n·ln2Hi is exact for every |n| ≤ 2⁷ and x − n·ln2Hi loses nothing.
	ln2Hi = 0.693359375
	ln2Lo = -2.12194440e-4

	// exp(r) ≈ 1 + r + r²·(expC0 + expC1·r + … + expC5·r⁵) on |r| ≤ ln2/2.
	expC0 = 5.0000001201e-1
	expC1 = 1.6666665459e-1
	expC2 = 4.1665795894e-2
	expC3 = 8.3334519073e-3
	expC4 = 1.3981999507e-3
	expC5 = 1.9875691500e-4

	// tanhSmall splits tanh32: below it tanh(a) ≈ a + a·a²·(tanhC0 + … +
	// tanhC4·a⁸), from it on 1 − 2/(exp(2a)+1).
	tanhSmall = 0.625
	tanhC0    = -3.33332819422e-1
	tanhC1    = 1.33314422036e-1
	tanhC2    = -5.37397155531e-2
	tanhC3    = 2.06390887954e-2
	tanhC4    = -5.70498872745e-3
)

// exp32 is eˣ: +Inf above expHi, 0 below expLo, NaN for NaN.
func exp32(x float32) float32 {
	switch {
	case x != x:
		return x
	case x > expHi:
		return float32(math.Inf(1))
	case x < expLo:
		return 0
	}
	// x = n·ln2 + r with n = round(x·log₂e), |r| ≤ ln2/2 (+ a rounding).
	z := float32(x*log2e) + roundMagic
	n := z - roundMagic
	r := x - float32(n*ln2Hi)
	r = r - float32(n*ln2Lo)
	q := float32(expC5*r) + expC4
	q = float32(q*r) + expC3
	q = float32(q*r) + expC2
	q = float32(q*r) + expC1
	q = float32(q*r) + expC0
	q = float32(q*float32(r*r)) + r
	q = q + 1
	// q·2ⁿ: z's low mantissa bits are n in two's complement, so shifting
	// them onto q's exponent field adds n to it. q is in [0.7, 1.5) and the
	// clamps above keep the sum inside the normal exponents.
	return math.Float32frombits(math.Float32bits(q) + math.Float32bits(z)<<23)
}

// tanh32 is tanh x: odd, ±0 for ±0, ±1 from |x| ≈ 9 on, NaN for NaN.
func tanh32(x float32) float32 {
	if x != x {
		return x
	}
	bits := math.Float32bits(x)
	a := math.Float32frombits(bits &^ (1 << 31))
	var y float32
	if a < tanhSmall {
		s := float32(a * a)
		q := float32(tanhC4*s) + tanhC3
		q = float32(q*s) + tanhC2
		q = float32(q*s) + tanhC1
		q = float32(q*s) + tanhC0
		y = float32(float32(q*s)*a) + a
	} else {
		y = 1 - 2/(exp32(a+a)+1)
	}
	return math.Float32frombits(math.Float32bits(y) | bits&(1<<31))
}

// sigmoid32 is 1/(1+e⁻ˣ): 0 below expLo, 1 from x ≈ 17 on, NaN for NaN.
func sigmoid32(x float32) float32 {
	switch {
	case x != x:
		return x
	case x < expLo:
		return 0
	}
	return 1 / (1 + exp32(-x))
}

// transTab holds the constants of the definitions above as the AVX2 kernels
// read them: one row of eight copies each, in the order trans_amd64.s names
// its offsets.
const transTabLen = 23

var transTab = func() (tab [transTabLen][8]uint32) {
	for i, bits := range [transTabLen]uint32{
		math.Float32bits(log2e), math.Float32bits(roundMagic),
		math.Float32bits(ln2Hi), math.Float32bits(ln2Lo),
		math.Float32bits(expC5), math.Float32bits(expC4), math.Float32bits(expC3),
		math.Float32bits(expC2), math.Float32bits(expC1), math.Float32bits(expC0),
		math.Float32bits(1), math.Float32bits(expHi), math.Float32bits(expLo),
		math.Float32bits(float32(math.Inf(1))), 1<<31 - 1, 1 << 31,
		math.Float32bits(2), math.Float32bits(tanhSmall),
		math.Float32bits(tanhC4), math.Float32bits(tanhC3), math.Float32bits(tanhC2),
		math.Float32bits(tanhC1), math.Float32bits(tanhC0),
	} {
		for j := range tab[i] {
			tab[i][j] = bits
		}
	}
	return tab
}()

// Tanh computes tanh elementwise into dst (which may be src); see tanh32.
func Tanh(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Tanh length mismatch")
	}
	n := 0
	if useTransAsm && len(src) >= 8 {
		n = len(src) &^ 7
		tanhAVX2(&dst[0], &src[0], n, &transTab)
	}
	for i := n; i < len(src); i++ {
		dst[i] = tanh32(src[i])
	}
}

// Sigmoid computes 1/(1+e⁻ˣ) elementwise into dst (which may be src); see
// sigmoid32.
func Sigmoid(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Sigmoid length mismatch")
	}
	n := 0
	if useTransAsm && len(src) >= 8 {
		n = len(src) &^ 7
		sigmoidAVX2(&dst[0], &src[0], n, &transTab)
	}
	for i := n; i < len(src); i++ {
		dst[i] = sigmoid32(src[i])
	}
}

// expSum is the exp-and-sum pass under every softmax: e[i] = exp32(x[i] −
// shift), written to dst unless dst is nil, and Σ e[i] in a fixed order —
// eight partials over the whole blocks of eight (partial j sums the elements
// i ≡ j mod 8: the eight lanes of one register), combined as
// ((p0+p4)+(p1+p5)) + ((p2+p6)+(p3+p7)), then the last len%8 terms one at a
// time. dst may be x.
func expSum(dst, x []float32, shift float32) float32 {
	n := len(x) &^ 7
	if dst != nil {
		dst = dst[:len(x)]
	}
	var s float32
	switch {
	case n == 0:
	case !useTransAsm:
		s = expSumBlocksGo(dst, x[:n], shift)
	case dst == nil:
		var drop [8]float32
		s = expSumAVX2(&drop[0], &x[0], n, 0, shift, &transTab)
	default:
		s = expSumAVX2(&dst[0], &x[0], n, 32, shift, &transTab)
	}
	for i := n; i < len(x); i++ {
		e := exp32(x[i] - shift)
		if dst != nil {
			dst[i] = e
		}
		s += e
	}
	return s
}

// expSumBlocksGo is the portable twin of expSumAVX2; len(x) is a multiple
// of 8.
func expSumBlocksGo(dst, x []float32, shift float32) float32 {
	var p [8]float32
	for i := 0; i < len(x); i += 8 {
		for j := range p {
			e := exp32(x[i+j] - shift)
			if dst != nil {
				dst[i+j] = e
			}
			p[j] += e
		}
	}
	return ((p[0] + p[4]) + (p[1] + p[5])) + ((p[2] + p[6]) + (p[3] + p[7]))
}

// ExpSumRow is the stable softmax numerator and denominator of one logit
// row: it writes e[i] = exp(x[i] − max x) into dst (nil: nowhere; dst may be
// x) and returns max x and Σ e[i], summed in expSum's order. Softmax is
// e[i]/sum and log Σ exp x is max + log sum. max x is maxGo's — x[0] if it
// is NaN, else the first of the largest — found by rowMax in one vector
// pass.
//
// Rows that have no finite maximum are defined, not left to Inf − Inf: if
// the maximum is +Inf, e is 1 at every +Inf and 0 elsewhere (the infinite
// logits share the mass); if it is −Inf (every logit −Inf, or the row is
// empty), every e and the sum are 0. A NaN logit makes the sum NaN.
func ExpSumRow(dst, x []float32) (maxV, sum float32) {
	maxV = rowMax(x)
	switch {
	case math.IsInf(float64(maxV), 1):
		for i, v := range x {
			e := float32(0)
			switch {
			case v == maxV:
				e = 1
			case v != v:
				e = v
			}
			if dst != nil {
				dst[i] = e
			}
			sum += e
		}
		return maxV, sum
	case math.IsInf(float64(maxV), -1):
		return maxV, expSum(dst, x, 0)
	}
	return maxV, expSum(dst, x, maxV)
}

// maxGo is the maximum ExpSumRow shifts by: x[0] (−Inf for an empty row),
// replaced by each later element greater than it. A NaN x[0] is kept and a
// later NaN never taken, and of equal maxima the first stays, so a zero
// maximum has the sign of the first zero in the row.
func maxGo(x []float32) float32 {
	m := float32(math.Inf(-1))
	if len(x) > 0 {
		m = x[0]
	}
	for _, v := range x {
		if v > m {
			m = v
		}
	}
	return m
}

// rowMax is maxGo by one vector pass over the whole blocks of eight and
// maxGo's loop over the rest. The lanes agree with maxGo on every value; a
// zero maximum only by chance on its sign, so that row is scanned again by
// maxGo.
func rowMax(x []float32) float32 {
	n := len(x) &^ 7
	if !useFP32Asm || n == 0 {
		return maxGo(x)
	}
	m := maxAVX(&x[0], n)
	for _, v := range x[n:] {
		if v > m {
			m = v
		}
	}
	if m == 0 {
		return maxGo(x)
	}
	return m
}

// SoftmaxRow normalizes a single logit vector into a probability
// distribution in place and returns the sum it divided by (see ExpSumRow for
// its order and for rows without a finite maximum). The result is a
// distribution exactly when that sum is positive: a NaN logit makes the sum
// and every probability NaN, and a row of −Inf has sum 0 and becomes NaN.
func SoftmaxRow(x []float32) (sum float32) {
	_, sum = ExpSumRow(x, x)
	Scale(x, 1/sum)
	return sum
}

// LogSumExpRow returns log(sum(exp(x))) computed stably: −Inf for an empty
// or all −Inf row, +Inf if any logit is +Inf, NaN if any is NaN.
func LogSumExpRow(x []float32) float64 {
	maxV, sum := ExpSumRow(nil, x)
	return float64(maxV) + math.Log(float64(sum))
}
