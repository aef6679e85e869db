// Package corpus provides the text substrate of the reproduction: frequency
// vocabularies, tokenization, synthetic Zipfian corpus generators standing in
// for the paper's four datasets (1-Billion word, Gutenberg, Amazon Review,
// Baidu Tieba — Table I), type-token curves (Figure 1) and train/validation
// splitting (§IV-A).
//
// The paper's datasets total >140 GB and one of them (Tieba) is internal to
// Baidu, so this package substitutes seeded generators whose rank-frequency
// distribution follows Zipf's law with a configurable exponent. The type-token
// exponent the paper measures (U ∝ N^0.64) is a direct consequence of that
// distribution, so every code path the optimizations exercise — duplicate
// tokens in a batch, power-law overlap across ranks — behaves as it would on
// the real corpora.
package corpus

import (
	"fmt"
	"sort"
)

// UnknownID is the vocabulary id reserved for out-of-vocabulary tokens.
const UnknownID = 0

// unknownToken is the surface form of the OOV entry.
const unknownToken = "<unk>"

// Vocabulary maps between token strings and dense integer ids. Ids are
// assigned in descending frequency order (id 1 = most frequent token), the
// layout both the paper's log-uniform sampled softmax and its Zipf's-freq
// seeding strategy assume. Id 0 is reserved for <unk>.
type Vocabulary struct {
	words []string
	index map[string]int
	freq  []int64
}

// BuildVocabulary counts token frequencies and returns a vocabulary of the
// maxSize most frequent tokens (plus <unk> at id 0). maxSize <= 0 means
// unlimited. This mirrors §IV-A: "we use the 100,000 most frequent words …
// as the vocabulary for each corpus."
func BuildVocabulary(tokens []string, maxSize int) *Vocabulary {
	counts := make(map[string]int64, 1024)
	for _, tok := range tokens {
		counts[tok]++
	}
	return buildFromCounts(counts, maxSize)
}

func buildFromCounts(counts map[string]int64, maxSize int) *Vocabulary {
	type wc struct {
		w string
		c int64
	}
	list := make([]wc, 0, len(counts))
	for w, c := range counts {
		list = append(list, wc{w, c})
	}
	// Sort by descending count, ties broken lexically for determinism.
	sort.Slice(list, func(i, j int) bool {
		if list[i].c != list[j].c {
			return list[i].c > list[j].c
		}
		return list[i].w < list[j].w
	})
	if maxSize > 0 && len(list) > maxSize {
		list = list[:maxSize]
	}
	v := &Vocabulary{
		words: make([]string, 1, len(list)+1),
		index: make(map[string]int, len(list)+1),
		freq:  make([]int64, 1, len(list)+1),
	}
	v.words[0] = unknownToken
	v.index[unknownToken] = UnknownID
	for _, e := range list {
		if e.w == unknownToken {
			v.freq[UnknownID] += e.c
			continue
		}
		v.index[e.w] = len(v.words)
		v.words = append(v.words, e.w)
		v.freq = append(v.freq, e.c)
	}
	return v
}

// SyntheticVocabulary builds a vocabulary of n synthetic word forms
// ("w0".."w<n-1>") with Zipf(1/rank) pseudo-frequencies. It is used by the
// generators, where surface forms never matter, only ids and the frequency
// ordering.
func SyntheticVocabulary(n int) *Vocabulary {
	if n <= 0 {
		panic("corpus: SyntheticVocabulary with non-positive size")
	}
	v := &Vocabulary{
		words: make([]string, n+1),
		index: make(map[string]int, n+1),
		freq:  make([]int64, n+1),
	}
	v.words[0] = unknownToken
	v.index[unknownToken] = UnknownID
	for i := 1; i <= n; i++ {
		w := fmt.Sprintf("w%d", i-1)
		v.words[i] = w
		v.index[w] = i
		v.freq[i] = int64(1_000_000_000 / i) // 1/rank pseudo-counts
	}
	return v
}

// Size returns the number of entries including <unk>.
func (v *Vocabulary) Size() int { return len(v.words) }

// ID returns the id for a token, or UnknownID when absent.
func (v *Vocabulary) ID(token string) int {
	if id, ok := v.index[token]; ok {
		return id
	}
	return UnknownID
}

// Word returns the surface form for an id. Panics on out-of-range ids.
func (v *Vocabulary) Word(id int) string { return v.words[id] }

// Encode maps tokens to ids, substituting UnknownID for OOV tokens.
func (v *Vocabulary) Encode(tokens []string) []int {
	out := make([]int, len(tokens))
	for i, tok := range tokens {
		out[i] = v.ID(tok)
	}
	return out
}

// CoverageOf reports the fraction of the token stream covered by in-vocab
// entries (the paper reports 99% coverage for its 100K vocabularies).
func (v *Vocabulary) CoverageOf(ids []int) float64 {
	if len(ids) == 0 {
		return 0
	}
	known := 0
	for _, id := range ids {
		if id != UnknownID {
			known++
		}
	}
	return float64(known) / float64(len(ids))
}
