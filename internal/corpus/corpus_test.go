package corpus

import (
	"math"
	"testing"
	"testing/quick"

	"zipflm/internal/powerlaw"
)

func TestBuildVocabularyOrdering(t *testing.T) {
	tokens := []string{"a", "b", "a", "c", "a", "b"}
	v := BuildVocabulary(tokens, 0)
	if v.Size() != 4 { // <unk> + a,b,c
		t.Fatalf("size = %d, want 4", v.Size())
	}
	if v.Word(1) != "a" || v.Word(2) != "b" || v.Word(3) != "c" {
		t.Errorf("frequency ordering wrong: %q %q %q", v.Word(1), v.Word(2), v.Word(3))
	}
	if v.freq[1] != 3 || v.freq[2] != 2 || v.freq[3] != 1 {
		t.Errorf("frequencies wrong: %d %d %d", v.freq[1], v.freq[2], v.freq[3])
	}
}

func TestVocabularyMaxSize(t *testing.T) {
	tokens := []string{"a", "a", "b", "b", "c", "d"}
	v := BuildVocabulary(tokens, 2)
	if v.Size() != 3 { // <unk> + top 2
		t.Fatalf("size = %d, want 3", v.Size())
	}
	if v.ID("c") != UnknownID || v.ID("d") != UnknownID {
		t.Error("truncated words must map to <unk>")
	}
	if v.ID("a") == UnknownID || v.ID("b") == UnknownID {
		t.Error("retained words must not map to <unk>")
	}
}

func TestVocabularyDeterministicTieBreak(t *testing.T) {
	a := BuildVocabulary([]string{"x", "y", "z"}, 0)
	b := BuildVocabulary([]string{"z", "y", "x"}, 0)
	for id := 1; id < a.Size(); id++ {
		if a.Word(id) != b.Word(id) {
			t.Fatalf("tie-break not deterministic: %q vs %q at id %d", a.Word(id), b.Word(id), id)
		}
	}
}

func TestEncodeRoundTrip(t *testing.T) {
	tokens := []string{"the", "cat", "sat", "the"}
	v := BuildVocabulary(tokens, 0)
	ids := v.Encode(tokens)
	for i, id := range ids {
		if v.Word(id) != tokens[i] {
			t.Errorf("round trip of %q failed", tokens[i])
		}
	}
	if cov := v.CoverageOf(ids); cov != 1 {
		t.Errorf("coverage = %v, want 1", cov)
	}
	oov := v.Encode([]string{"zebra"})
	if oov[0] != UnknownID {
		t.Error("OOV must encode to UnknownID")
	}
}

func TestCoverageEmpty(t *testing.T) {
	v := SyntheticVocabulary(5)
	if v.CoverageOf(nil) != 0 {
		t.Error("coverage of empty stream must be 0")
	}
}

func TestSyntheticVocabulary(t *testing.T) {
	v := SyntheticVocabulary(100)
	if v.Size() != 101 {
		t.Fatalf("size = %d, want 101", v.Size())
	}
	// Frequencies must be non-increasing in id (Zipf layout).
	for id := 2; id < v.Size(); id++ {
		if v.freq[id] > v.freq[id-1] {
			t.Fatalf("freq not monotone at id %d", id)
		}
	}
	if v.ID(v.Word(50)) != 50 {
		t.Error("index inconsistent")
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("The cat, sat!  On THE mat2.")
	want := []string{"the", "cat", ",", "sat", "!", "on", "the", "mat2", "."}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestCharTokens(t *testing.T) {
	got := CharTokens("ab白")
	if len(got) != 3 || got[2] != "白" {
		t.Errorf("CharTokens = %v", got)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	cfg := GeneratorConfig{VocabSize: 1000, ZipfExponent: 1.2, Seed: 5}
	a := NewGenerator(cfg).Stream(500)
	b := NewGenerator(cfg).Stream(500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestGeneratorRange(t *testing.T) {
	g := NewGenerator(GeneratorConfig{VocabSize: 50, ZipfExponent: 1.0, Seed: 1})
	for _, id := range g.Stream(5000) {
		if id < 1 || id > 50 {
			t.Fatalf("id %d out of [1,50]", id)
		}
	}
}

func TestGeneratorPanics(t *testing.T) {
	for _, cfg := range []GeneratorConfig{
		{VocabSize: 0, ZipfExponent: 1},
		{VocabSize: 10, ZipfExponent: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			NewGenerator(cfg)
		}()
	}
}

// TestTypeTokenExponent is the reproduction of the paper's key empirical
// claim (Figure 1): the type-token curve of a Zipfian corpus follows
// U ∝ N^α with α ≈ 0.64.
func TestTypeTokenExponent(t *testing.T) {
	g := NewGenerator(GeneratorConfig{
		VocabSize:    2_000_000,
		ZipfExponent: DefaultWordExponent,
		Seed:         7,
	})
	checkpoints := []int{500, 5_000, 50_000, 500_000}
	curve := g.TypeTokenCurve(checkpoints)
	xs := make([]float64, len(curve))
	ys := make([]float64, len(curve))
	for i, p := range curve {
		xs[i] = float64(p.Tokens)
		ys[i] = float64(p.Types)
	}
	fit, err := powerlaw.FitXY(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Alpha < 0.55 || fit.Alpha > 0.75 {
		t.Errorf("type-token exponent = %v, want in [0.55, 0.75] (paper: 0.64)", fit.Alpha)
	}
	if fit.R2 < 0.99 {
		t.Errorf("R² = %v, want ≈ 1.00", fit.R2)
	}
	// U must be far below N (the gap Figure 1 highlights).
	last := curve[len(curve)-1]
	if last.Types*10 > last.Tokens {
		t.Errorf("types %d not ≪ tokens %d", last.Types, last.Tokens)
	}
}

// TestCharVocabSaturates mirrors the paper's remark that "the number of
// unique characters becomes constant as we keep increasing the batch size".
func TestCharVocabSaturates(t *testing.T) {
	d, err := DatasetByName("ar")
	if err != nil {
		t.Fatal(err)
	}
	g := d.CharGenerator(3)
	curve := g.TypeTokenCurve([]int{1000, 10_000, 100_000})
	last := curve[len(curve)-1]
	if last.Types > d.CharVocab {
		t.Fatalf("types %d exceeds char vocab %d", last.Types, d.CharVocab)
	}
	if last.Types < d.CharVocab*9/10 {
		t.Errorf("char types %d did not saturate toward %d", last.Types, d.CharVocab)
	}
	// Saturation: second half of the curve barely grows.
	if curve[2].Types-curve[1].Types > curve[1].Types/10 {
		t.Errorf("char curve still growing: %+v", curve)
	}
}

func TestTypeTokenCurveMonotone(t *testing.T) {
	g := NewGenerator(GeneratorConfig{VocabSize: 500, ZipfExponent: 1.3, Seed: 11})
	curve := g.TypeTokenCurve([]int{10, 100, 1000, 10000})
	for i := 1; i < len(curve); i++ {
		if curve[i].Types < curve[i-1].Types || curve[i].Tokens <= curve[i-1].Tokens {
			t.Fatalf("curve not monotone: %+v", curve)
		}
	}
}

func TestCountTypes(t *testing.T) {
	if got := CountTypes([]int{1, 1, 2, 3, 3, 3}); got != 3 {
		t.Errorf("CountTypes = %d, want 3", got)
	}
	if got := CountTypes(nil); got != 0 {
		t.Errorf("CountTypes(nil) = %d, want 0", got)
	}
}

func TestSplitProportions(t *testing.T) {
	ids := make([]int, 100_000)
	for i := range ids {
		ids[i] = i
	}
	train, valid := Split(ids, 100, 100, 42)
	if len(train)+len(valid) != len(ids) {
		t.Fatalf("split lost tokens: %d + %d != %d", len(train), len(valid), len(ids))
	}
	frac := float64(len(valid)) / float64(len(ids))
	if math.Abs(frac-0.01) > 0.002 {
		t.Errorf("valid fraction = %v, want ~0.01", frac)
	}
	// No token appears in both.
	seen := make(map[int]bool, len(valid))
	for _, id := range valid {
		seen[id] = true
	}
	for _, id := range train {
		if seen[id] {
			t.Fatal("token appears in both splits")
		}
	}
}

func TestSplitDeterministic(t *testing.T) {
	ids := make([]int, 10_000)
	for i := range ids {
		ids[i] = i
	}
	t1, _ := Split(ids, 10, 50, 7)
	t2, _ := Split(ids, 10, 50, 7)
	if len(t1) != len(t2) {
		t.Fatal("split not deterministic")
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatal("split not deterministic")
		}
	}
}

func TestSplitPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Split([]int{1}, 1, 10, 0) },
		func() { Split([]int{1}, 10, 0, 0) },
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

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	if len(cat) != 5 {
		t.Fatalf("catalog has %d datasets, want 5", len(cat))
	}
	names := map[string]bool{}
	for _, d := range cat {
		names[d.Name] = true
		if d.Name != "cc" && d.Name != "tieba" && d.PaperWords == 0 {
			t.Errorf("%s missing paper word count", d.Name)
		}
	}
	for _, want := range []string{"1b", "gb", "cc", "ar", "tieba"} {
		if !names[want] {
			t.Errorf("catalog missing %q", want)
		}
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Error("unknown dataset must error")
	}
}

func TestTiebaMatchesTableI(t *testing.T) {
	d, err := DatasetByName("tieba")
	if err != nil {
		t.Fatal(err)
	}
	if d.CharVocab != 15_437 {
		t.Errorf("tieba char vocab = %d, want 15437 (§V-C)", d.CharVocab)
	}
	// 93.12 GB / 34.36 B chars ≈ 2.71 bytes per char.
	got := d.BytesPerToken()
	want := float64(d.PaperBytes) / float64(d.PaperChars)
	if math.Abs(got-want) > 0.05 {
		t.Errorf("bytes/char = %v, want ~%v", got, want)
	}
}

// TestSplitProperty: any ratio/blockLen keeps all tokens exactly once.
func TestSplitProperty(t *testing.T) {
	f := func(nRaw, ratioRaw, blockRaw uint8) bool {
		n := int(nRaw)%500 + 10
		ratio := int(ratioRaw)%20 + 2
		block := int(blockRaw)%20 + 1
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		train, valid := Split(ids, ratio, block, 1)
		if len(train)+len(valid) != n {
			return false
		}
		all := append(append([]int{}, train...), valid...)
		seen := make(map[int]bool, n)
		for _, id := range all {
			if seen[id] {
				return false
			}
			seen[id] = true
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
