// Package sampling implements the sampled-softmax candidate machinery and
// the paper's controlled-seeding technique (§III-B).
//
// Sampled softmax lets each rank score only S ≪ |V| candidate words. With
// fully independent per-rank RNG seeds the candidate sets are nearly
// disjoint, so the number of unique words touched in the output embedding
// grows as G·S and the uniqueness optimization of §III-A has nothing to
// work with. With one shared seed every rank samples the same S words —
// maximal overlap but degraded accuracy (loss of sampling diversity).
//
// The paper's middle path assigns a *subset* of distinct seeds: log2(G),
// ln(G), log10(G), or — the pareto-optimal choice — a number of seeds that
// follows the same power law as word frequency, ≈ G^0.64. Ranks sharing a
// seed draw identical candidates, so the global unique candidate count is
// ≈ NumSeeds·S and the output-embedding exchange enjoys the same
// Θ(G·S + U_g·D) complexity as the input embedding.
package sampling

import (
	"fmt"
	"math"

	"zipflm/internal/rng"
)

// Strategy selects how many distinct sampled-softmax seeds G ranks share.
type Strategy int

const (
	// AllDifferent gives every rank its own seed (paper line "G"):
	// best accuracy, no overlap, worst scalability.
	AllDifferent Strategy = iota
	// AllSame gives every rank one shared seed: best overlap, degraded
	// accuracy.
	AllSame
	// Log2G uses ceil(log2 G) distinct seeds.
	Log2G
	// LogEG uses ceil(ln G) distinct seeds.
	LogEG
	// Log10G uses ceil(log10 G) distinct seeds.
	Log10G
	// ZipfFreq uses ceil(G^0.64) distinct seeds — the paper's
	// "Zipf's-freq" line, empirically matching AllDifferent accuracy
	// while preserving the power-law overlap (§V-A, Figure 7).
	ZipfFreq
)

// ZipfSeedExponent is the empirical exponent used by the ZipfFreq strategy.
const ZipfSeedExponent = 0.64

// String implements fmt.Stringer with the paper's Figure 7 labels.
func (s Strategy) String() string {
	switch s {
	case AllDifferent:
		return "G"
	case AllSame:
		return "1"
	case Log2G:
		return "log2G"
	case LogEG:
		return "logeG"
	case Log10G:
		return "log10G"
	case ZipfFreq:
		return "Zipf's-freq"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Strategies lists every policy in Figure 7 order.
func Strategies() []Strategy {
	return []Strategy{AllDifferent, ZipfFreq, Log2G, LogEG, Log10G}
}

// NumSeeds returns how many distinct seeds the strategy assigns across g
// ranks (always in [1, g]).
func (s Strategy) NumSeeds(g int) int {
	if g <= 0 {
		panic("sampling: non-positive rank count")
	}
	var n int
	switch s {
	case AllDifferent:
		n = g
	case AllSame:
		n = 1
	case Log2G:
		n = int(math.Ceil(math.Log2(float64(g))))
	case LogEG:
		n = int(math.Ceil(math.Log(float64(g))))
	case Log10G:
		n = int(math.Ceil(math.Log10(float64(g))))
	case ZipfFreq:
		n = int(math.Ceil(math.Pow(float64(g), ZipfSeedExponent)))
	default:
		panic(fmt.Sprintf("sampling: unknown strategy %d", int(s)))
	}
	if n < 1 {
		n = 1
	}
	if n > g {
		n = g
	}
	return n
}

// Assign returns the per-rank seed vector: rank r receives seed number
// r mod NumSeeds(g), each seed derived deterministically from base. Ranks
// with equal seeds draw identical candidate streams.
func Assign(s Strategy, g int, base uint64) []uint64 {
	n := s.NumSeeds(g)
	root := rng.New(base)
	distinct := make([]uint64, n)
	for i := range distinct {
		distinct[i] = root.Uint64()
	}
	out := make([]uint64, g)
	for r := range out {
		out[r] = distinct[r%n]
	}
	return out
}

// CandidateSampler abstracts a sampled-softmax candidate source: the
// log-uniform Sampler below (the paper's choice) and the exact-unigram
// UnigramSampler (alias.go) both implement it, so models can swap the
// candidate distribution without code changes.
type CandidateSampler interface {
	// Sample returns the candidate set for one step: unique ids with the
	// targets included first.
	Sample(n int, targets []int) []int
	// LogExpectedCount returns log(n·Q(w)) for the correction term.
	LogExpectedCount(n int, w int) float64
}

// Sampler draws sampled-softmax candidates from the log-uniform base
// distribution over a frequency-sorted vocabulary (§II-A: "sampled softmax
// … computes the probability over a smaller, random subset over V").
type Sampler struct {
	vocab int
	lu    *rng.LogUniform
}

// NewSampler returns a sampler over vocabulary ids [1, vocab] seeded with
// seed (id 0, <unk>, is sampled like any other id the log-uniform law
// assigns to rank 0 of the frequency table; callers using corpus ids simply
// pass vocab = v.Size()).
func NewSampler(vocab int, seed uint64) *Sampler {
	if vocab <= 0 {
		panic("sampling: non-positive vocabulary")
	}
	return &Sampler{vocab: vocab, lu: rng.NewLogUniform(rng.New(seed), vocab)}
}

// Sample returns the candidate set for one step: the union of the target
// words (always included, as the paper notes — "typically, the words in the
// input are additionally included") and n log-uniform negative draws,
// deduplicated and order-stable (targets first, then novel negatives in
// draw order). The result length is ≤ len(unique targets) + n.
func (s *Sampler) Sample(n int, targets []int) []int {
	if n < 0 {
		panic("sampling: negative sample count")
	}
	seen := make(map[int]struct{}, len(targets)+n)
	out := make([]int, 0, len(targets)+n)
	for _, t := range targets {
		if t < 0 || t >= s.vocab {
			panic(fmt.Sprintf("sampling: target %d outside vocabulary [0,%d)", t, s.vocab))
		}
		if _, ok := seen[t]; !ok {
			seen[t] = struct{}{}
			out = append(out, t)
		}
	}
	for i := 0; i < n; i++ {
		w := s.lu.Next()
		if _, ok := seen[w]; !ok {
			seen[w] = struct{}{}
			out = append(out, w)
		}
	}
	return out
}

// LogExpectedCount returns log(n · Q(w)), the log of the expected number
// of copies of w among n negatives drawn from the log-uniform
// distribution; the sampled softmax subtracts it from w's raw logit.
// Sampled softmax is biased under any such correction (Bengio & Senécal
// 2008), and for the deduplicated set Sample returns the matching term is
// log P(w included) = log(1 − (1 − Q(w))ⁿ), not this one (ROADMAP item 21).
func (s *Sampler) LogExpectedCount(n int, w int) float64 {
	return math.Log(float64(n) * s.lu.Prob(w))
}

// UniqueAcross counts the distinct candidates across per-rank candidate
// sets — the U_g the output-embedding exchange will see, and the quantity
// §III-B's seeding trade-off controls.
func UniqueAcross(sets [][]int) int {
	seen := make(map[int]struct{})
	for _, set := range sets {
		for _, w := range set {
			seen[w] = struct{}{}
		}
	}
	return len(seen)
}
