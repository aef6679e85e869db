package core

import "math"

// This file provides closed-form per-rank cost formulas for both exchange
// engines. The formulas are the ones §II-B and §III-A derive; the unit tests
// verify them against the *measured* wire/scratch numbers of real small-scale
// exchanges, which licenses using them at paper scale (where the baseline
// would need tens of GB per rank) without materializing the buffers.

// Cost is a per-rank resource estimate for one exchange.
type Cost struct {
	// WireBytes is communication volume per rank.
	WireBytes int64
	// ScratchBytes is peak scratch memory per rank.
	ScratchBytes int64
}

// elemBytes returns the per-element payload width on the wire.
func elemBytes(fp16 bool) int64 {
	if fp16 {
		return 2
	}
	return 4
}

// BaselineCost returns the per-rank cost of BaselineAllGather for G ranks,
// K local tokens and embedding dimension D: Θ(G·K·D) in both wire volume
// and scratch.
func BaselineCost(g, k, d int, fp16 bool) Cost {
	e := elemBytes(fp16)
	gi, ki, di := int64(g), int64(k), int64(d)
	return Cost{
		// Ring all-gather of G blocks of K·D elements plus the K int32
		// indices: (G−1)/G of the total payload leaves each rank.
		WireBytes: (gi - 1) * ki * (di*e + 4),
		// All G dense blocks and index vectors are resident locally
		// (decompressed to FP32) during the scatter-add.
		ScratchBytes: gi*ki*di*4 + gi*ki*4,
	}
}

// UniqueCost returns the per-rank cost of UniqueExchange for G ranks, K
// local tokens, U_i locally unique and U_g globally unique words:
// Θ(G·K + U_g·D).
func UniqueCost(g, k, ui, ug, d int, fp16 bool) Cost {
	e := elemBytes(fp16)
	gi, ki, di := int64(g), int64(k), int64(d)
	return Cost{
		// Index all-gather (always int32) + ring all-reduce of the
		// U_g×D matrix at 2·(G−1)/G of its size.
		WireBytes: (gi-1)*ki*4 + 2*(gi-1)*int64(ug)*di*e/gi,
		// Δ̂ (U_i×D) + gathered indices (G·K) + M (U_g×D).
		ScratchBytes: int64(ui)*di*4 + gi*ki*4 + int64(ug)*di*4,
	}
}

// ExpectedUnique estimates U_g for a global batch of n tokens under the
// paper's empirical type–token law U ∝ N^alpha (Figure 1; alpha = 0.64,
// prefactor c), saturating at the vocabulary size.
func ExpectedUnique(n int, alpha, c float64, vocab int) int {
	u := int(math.Round(c * math.Pow(float64(n), alpha)))
	if u > vocab {
		u = vocab
	}
	if u > n {
		u = n
	}
	if u < 1 && n > 0 {
		u = 1
	}
	return u
}
