package corpus

import (
	"math"
	"testing"
)

func TestMarkovDeterminism(t *testing.T) {
	cfg := MarkovConfig{VocabSize: 200, Branching: 8, ZipfExponent: 1.1, Seed: 5}
	a := NewMarkovGenerator(cfg).Stream(2000)
	b := NewMarkovGenerator(cfg).Stream(2000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestMarkovRange(t *testing.T) {
	g := NewMarkovGenerator(MarkovConfig{VocabSize: 50, Branching: 5, ZipfExponent: 1.0, Seed: 1})
	for _, id := range g.Stream(5000) {
		if id < 1 || id > 50 {
			t.Fatalf("id %d out of range", id)
		}
	}
}

func TestMarkovBranchingRespected(t *testing.T) {
	g := NewMarkovGenerator(MarkovConfig{VocabSize: 100, Branching: 4, ZipfExponent: 1.0, Seed: 2})
	// Record observed successors per state; none may exceed Branching.
	succ := make(map[int]map[int]bool)
	prev := 0
	for _, id := range g.Stream(50_000) {
		if prev != 0 {
			m := succ[prev]
			if m == nil {
				m = map[int]bool{}
				succ[prev] = m
			}
			m[id] = true
		}
		prev = id
	}
	for state, s := range succ {
		if len(s) > 4 {
			t.Fatalf("state %d has %d successors, branching is 4", state, len(s))
		}
	}
}

// TestMarkovIsLearnable: the stream's conditional (bigram) entropy must sit
// far below its unigram entropy — the property that makes validation
// perplexity fall during training, as in the paper's figures.
func TestMarkovIsLearnable(t *testing.T) {
	g := NewMarkovGenerator(MarkovConfig{VocabSize: 300, Branching: 6, ZipfExponent: 1.1, Seed: 3})
	stream := g.Stream(300_000)

	uni := make(map[int]float64)
	bi := make(map[[2]int]float64)
	for i, id := range stream {
		uni[id]++
		if i > 0 {
			bi[[2]int{stream[i-1], id}]++
		}
	}
	n := float64(len(stream))
	var hUni float64
	for _, c := range uni {
		p := c / n
		hUni -= p * math.Log(p)
	}
	// H(X_t | X_{t-1}) = H(bigram) − H(unigram).
	var hBi float64
	for _, c := range bi {
		p := c / (n - 1)
		hBi -= p * math.Log(p)
	}
	hCond := hBi - hUni
	if hCond > hUni*0.7 {
		t.Errorf("conditional entropy %.2f not far below unigram %.2f", hCond, hUni)
	}
	// Branching 6 bounds the conditional entropy by ln 6.
	if hCond > math.Log(6)+0.05 {
		t.Errorf("conditional entropy %.2f exceeds ln(branching) %.2f", hCond, math.Log(6))
	}
}

// TestMarkovMarginalIsSkewed: the stationary distribution must stay
// head-heavy (Zipf-like), so the uniqueness optimization still has
// duplicates to exploit on Markov streams.
func TestMarkovMarginalIsSkewed(t *testing.T) {
	g := NewMarkovGenerator(MarkovConfig{VocabSize: 500, Branching: 8, ZipfExponent: 1.2, Seed: 4})
	stream := g.Stream(200_000)
	counts := make(map[int]int)
	for _, id := range stream {
		counts[id]++
	}
	// Top 10% of observed types must carry well over half the mass.
	freqs := make([]int, 0, len(counts))
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	// Partial selection: simple sort is fine at this size.
	for i := 0; i < len(freqs); i++ {
		for j := i + 1; j < len(freqs); j++ {
			if freqs[j] > freqs[i] {
				freqs[i], freqs[j] = freqs[j], freqs[i]
			}
		}
	}
	head := len(freqs) / 10
	if head == 0 {
		head = 1
	}
	var headMass, total int
	for i, c := range freqs {
		total += c
		if i < head {
			headMass += c
		}
	}
	if float64(headMass) < 0.5*float64(total) {
		t.Errorf("head mass %.2f of total; marginal not Zipf-like", float64(headMass)/float64(total))
	}
}

func TestMarkovTypeTokenMonotone(t *testing.T) {
	g := NewMarkovGenerator(MarkovConfig{VocabSize: 400, Branching: 6, ZipfExponent: 1.1, Seed: 6})
	seen := map[int]bool{}
	var curve []int // distinct types after 100, 1000 and 10000 tokens
	for n, id := range g.Stream(10000) {
		seen[id] = true
		if n+1 == 100 || n+1 == 1000 || n+1 == 10000 {
			curve = append(curve, len(seen))
		}
	}
	// New types keep appearing, but ten times the tokens bring fewer than
	// ten times the types (Heaps' law), and never more than the vocabulary.
	if !(curve[0] < curve[1] && curve[1] < curve[2]) || curve[2] >= 10*curve[1] {
		t.Fatalf("type-token curve not growing sublinearly: %v", curve)
	}
	if curve[2] > 400 {
		t.Fatalf("types exceed vocabulary")
	}
}

func TestMarkovPanics(t *testing.T) {
	for _, cfg := range []MarkovConfig{
		{VocabSize: 0, Branching: 1, ZipfExponent: 1},
		{VocabSize: 10, Branching: 0, ZipfExponent: 1},
		{VocabSize: 10, Branching: 1, ZipfExponent: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			NewMarkovGenerator(cfg)
		}()
	}
}

func TestMarkovBranchingClampedToVocab(t *testing.T) {
	g := NewMarkovGenerator(MarkovConfig{VocabSize: 3, Branching: 10, ZipfExponent: 1, Seed: 1})
	for _, id := range g.Stream(100) {
		if id < 1 || id > 3 {
			t.Fatalf("id %d out of range", id)
		}
	}
}
