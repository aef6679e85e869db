package corpus

import (
	"testing"
	"unicode"
	"unicode/utf8"
)

// FuzzTokenize feeds arbitrary (including invalid) UTF-8 through the
// tokenizer and checks its contracts: no empty tokens, all letters
// lower-cased (a rune Unicode gives no lower-case form, such as ϔ, stays as
// it is), every letter/digit of the input preserved.
func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{
		"The cat sat.", "", "   ", "白日依山尽", "a\x80b", "café ÉTÉ", "x1 2y, z!", "ϔ0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		tokens := Tokenize(text)
		var letterCount int
		for _, r := range text {
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				letterCount++
			}
		}
		var gotLetters int
		for _, tok := range tokens {
			if tok == "" {
				t.Fatal("empty token")
			}
			for _, r := range tok {
				if unicode.ToLower(r) != r {
					t.Fatalf("upper-case rune in token %q", tok)
				}
				if unicode.IsLetter(r) || unicode.IsDigit(r) {
					gotLetters++
				}
			}
		}
		if gotLetters != letterCount {
			t.Fatalf("letter count changed: %d in, %d out", letterCount, gotLetters)
		}

		// Char tokenization must preserve rune count for valid UTF-8.
		if utf8.ValidString(text) {
			chars := CharTokens(text)
			want := 0
			for range text {
				want++
			}
			if len(chars) != want {
				t.Fatalf("CharTokens returned %d runes, want %d", len(chars), want)
			}
		}
	})
}

// FuzzVocabularyRoundTrip builds a vocabulary from arbitrary token streams
// and checks encode/word round trips.
func FuzzVocabularyRoundTrip(f *testing.F) {
	f.Add("a b a c", uint8(3))
	f.Add("x", uint8(0))
	f.Fuzz(func(t *testing.T, text string, capRaw uint8) {
		toks := Tokenize(text)
		if len(toks) == 0 {
			return
		}
		maxSize := int(capRaw % 16)
		v := BuildVocabulary(toks, maxSize)
		if v.Size() < 1 {
			t.Fatal("vocabulary lost <unk>")
		}
		ids := v.Encode(toks)
		for i, id := range ids {
			if id < 0 || id >= v.Size() {
				t.Fatalf("id %d out of range", id)
			}
			if id != UnknownID && v.Word(id) != toks[i] {
				t.Fatalf("round trip of %q failed", toks[i])
			}
		}
	})
}
