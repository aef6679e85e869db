package corpus

import (
	"zipflm/internal/rng"
)

// MarkovConfig describes a first-order Markov corpus generator with a
// Zipfian vocabulary. Pure i.i.d. Zipf streams have no sequential structure
// — a language model can at best learn the unigram distribution, so
// training curves plateau immediately. Real text is predictable from
// context; this generator restores that property: every word has a small
// set of Zipf-weighted successor words, giving the stream an entropy rate
// far below its unigram entropy (like English's ~1 bit/char vs ~4.1 bits of
// unigram char entropy). The accuracy experiments (Figures 5, 7, 8,
// Table V) train on these streams so validation perplexity falls across
// epochs the way the paper's curves do.
type MarkovConfig struct {
	// VocabSize is the number of distinct types (ids 1..VocabSize).
	VocabSize int
	// Branching is the successor-set size per word; entropy rate grows
	// with it. Must be ≥ 1; values ≪ VocabSize give strong structure.
	Branching int
	// ZipfExponent shapes both the successor draws (so the marginal
	// stays Zipfian) and the successor weights.
	ZipfExponent float64
	// Seed fixes the transition table and the walk.
	Seed uint64
}

// MarkovGenerator emits a reproducible token stream from a random walk over
// a deterministic sparse transition table.
type MarkovGenerator struct {
	cfg   MarkovConfig
	walk  *rng.RNG
	state int
	// successors[w] lists w's Branching successor ids; built lazily but
	// deterministically from (Seed, w) so two generators with the same
	// config produce identical corpora regardless of visit order.
	successors map[int][]int
	// pick draws a successor slot with Zipfian weights.
	pick *rng.Zipf
}

// NewMarkovGenerator returns a generator for cfg.
func NewMarkovGenerator(cfg MarkovConfig) *MarkovGenerator {
	if cfg.VocabSize <= 0 {
		panic("corpus: MarkovGenerator needs positive VocabSize")
	}
	if cfg.Branching <= 0 {
		panic("corpus: MarkovGenerator needs positive Branching")
	}
	if cfg.ZipfExponent <= 0 {
		panic("corpus: MarkovGenerator needs positive ZipfExponent")
	}
	if cfg.Branching > cfg.VocabSize {
		cfg.Branching = cfg.VocabSize
	}
	walk := rng.New(cfg.Seed ^ 0xa5a5a5a5a5a5a5a5)
	return &MarkovGenerator{
		cfg:        cfg,
		walk:       walk,
		state:      1,
		successors: make(map[int][]int),
		pick:       rng.NewZipf(walk.Fork(), cfg.Branching, cfg.ZipfExponent),
	}
}

// successorsOf returns w's successor list, building it on first use from a
// generator keyed by (Seed, w).
func (m *MarkovGenerator) successorsOf(w int) []int {
	if s, ok := m.successors[w]; ok {
		return s
	}
	// Derive a per-state RNG; the multiplier spreads consecutive ids.
	r := rng.New(m.cfg.Seed + uint64(w)*0x9e3779b97f4a7c15)
	z := rng.NewZipf(r, m.cfg.VocabSize, m.cfg.ZipfExponent)
	seen := make(map[int]struct{}, m.cfg.Branching)
	s := make([]int, 0, m.cfg.Branching)
	for len(s) < m.cfg.Branching {
		cand := z.Next() + 1
		if _, dup := seen[cand]; dup {
			// Fall back to a uniform draw when the Zipf head is
			// exhausted, so the loop terminates for large Branching.
			cand = r.Intn(m.cfg.VocabSize) + 1
			if _, dup2 := seen[cand]; dup2 {
				continue
			}
		}
		seen[cand] = struct{}{}
		s = append(s, cand)
	}
	m.successors[w] = s
	return s
}

// Next returns the next token id in [1, VocabSize].
func (m *MarkovGenerator) Next() int {
	succ := m.successorsOf(m.state)
	m.state = succ[m.pick.Next()]
	return m.state
}

// Stream generates n token ids.
func (m *MarkovGenerator) Stream(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = m.Next()
	}
	return out
}
