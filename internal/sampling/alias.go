package sampling

import (
	"math"

	"zipflm/internal/rng"
)

// AliasTable samples from an arbitrary discrete distribution in O(1) per
// draw using Vose's alias method. The paper's sampled softmax uses the
// log-uniform approximation of the unigram distribution; production stacks
// (and the "strategies" of Chen et al., which the paper cites) often sample
// from the *exact* empirical unigram distribution instead — the alias table
// makes that as cheap as log-uniform regardless of vocabulary size.
type AliasTable struct {
	prob  []float64
	alias []int
	probs []float64 // normalized input distribution, for Prob()
	r     *rng.RNG
}

// NewAliasTable builds a sampler over weights (unnormalized, non-negative,
// at least one positive). Draw k has probability weights[k]/sum(weights).
func NewAliasTable(weights []float64, r *rng.RNG) *AliasTable {
	n := len(weights)
	if n == 0 {
		panic("sampling: empty alias table")
	}
	var sum float64
	for _, w := range weights {
		if w < 0 {
			panic("sampling: negative weight")
		}
		sum += w
	}
	if sum <= 0 {
		panic("sampling: all-zero weights")
	}

	t := &AliasTable{
		prob:  make([]float64, n),
		alias: make([]int, n),
		probs: make([]float64, n),
		r:     r,
	}
	// Scale to mean 1 and split into small/large worklists.
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		p := w / sum
		t.probs[i] = p
		scaled[i] = p * float64(n)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Numerical leftovers are exactly 1.
	for _, i := range large {
		t.prob[i] = 1
	}
	for _, i := range small {
		t.prob[i] = 1
	}
	return t
}

// NewZipfAliasTable builds an alias table over the Zipf(s) distribution on
// [0, n) — the exact unigram law of a frequency-sorted vocabulary.
func NewZipfAliasTable(n int, s float64, r *rng.RNG) *AliasTable {
	if n <= 0 {
		panic("sampling: non-positive vocabulary")
	}
	w := make([]float64, n)
	for k := range w {
		w[k] = 1 / powf(float64(k+1), s)
	}
	return NewAliasTable(w, r)
}

func powf(x, y float64) float64 { return math.Pow(x, y) }

// Next draws one index from the distribution.
func (t *AliasTable) Next() int {
	n := len(t.prob)
	i := t.r.Intn(n)
	if t.r.Float64() < t.prob[i] {
		return i
	}
	return t.alias[i]
}

// Prob returns the exact probability of drawing k.
func (t *AliasTable) Prob(k int) float64 { return t.probs[k] }

// UnigramSampler is a drop-in alternative to Sampler that draws sampled-
// softmax candidates from an exact unigram (frequency-proportional)
// distribution instead of the log-uniform approximation.
type UnigramSampler struct {
	vocab int
	tab   *AliasTable
}

// NewUnigramSampler builds a sampler over vocabulary ids [0, vocab) with
// the given frequency weights (typically corpus counts). A nil or empty
// freq falls back to Zipf(1) pseudo-frequencies.
func NewUnigramSampler(vocab int, freq []float64, seed uint64) *UnigramSampler {
	if vocab <= 0 {
		panic("sampling: non-positive vocabulary")
	}
	r := rng.New(seed)
	var tab *AliasTable
	if len(freq) == 0 {
		tab = NewZipfAliasTable(vocab, 1.0, r)
	} else {
		if len(freq) != vocab {
			panic("sampling: freq length must equal vocab")
		}
		tab = NewAliasTable(freq, r)
	}
	return &UnigramSampler{vocab: vocab, tab: tab}
}

// Sample mirrors Sampler.Sample: targets first, then novel negatives.
func (s *UnigramSampler) Sample(n int, targets []int) []int {
	if n < 0 {
		panic("sampling: negative sample count")
	}
	seen := make(map[int]struct{}, len(targets)+n)
	out := make([]int, 0, len(targets)+n)
	for _, t := range targets {
		if t < 0 || t >= s.vocab {
			panic("sampling: target outside vocabulary")
		}
		if _, ok := seen[t]; !ok {
			seen[t] = struct{}{}
			out = append(out, t)
		}
	}
	for i := 0; i < n; i++ {
		w := s.tab.Next()
		if _, ok := seen[w]; !ok {
			seen[w] = struct{}{}
			out = append(out, w)
		}
	}
	return out
}

// LogExpectedCount mirrors Sampler.LogExpectedCount with the exact unigram
// probabilities.
func (s *UnigramSampler) LogExpectedCount(n int, w int) float64 {
	return math.Log(float64(n) * s.tab.Prob(w))
}

// Interface conformance: both samplers satisfy CandidateSampler.
var (
	_ CandidateSampler = (*Sampler)(nil)
	_ CandidateSampler = (*UnigramSampler)(nil)
)
