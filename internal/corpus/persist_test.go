package corpus

import (
	"bytes"
	"strings"
	"testing"
)

func TestVocabularySaveLoad(t *testing.T) {
	v := BuildVocabulary([]string{"the", "cat", "the", "sat", "the", "cat"}, 0)
	var buf bytes.Buffer
	if err := v.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadVocabulary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != v.Size() {
		t.Fatalf("size %d, want %d", loaded.Size(), v.Size())
	}
	for id := 0; id < v.Size(); id++ {
		if loaded.Word(id) != v.Word(id) || loaded.freq[id] != v.freq[id] {
			t.Fatalf("id %d mismatch after round trip", id)
		}
	}
	// Index rebuilt correctly.
	if loaded.ID("the") != v.ID("the") || loaded.ID("zebra") != UnknownID {
		t.Error("index not rebuilt")
	}
}

func TestLoadVocabularyRejectsGarbage(t *testing.T) {
	if _, err := LoadVocabulary(strings.NewReader("junk")); err == nil {
		t.Fatal("garbage must fail")
	}
}

func TestSyntheticVocabularySaveLoad(t *testing.T) {
	v := SyntheticVocabulary(50)
	var buf bytes.Buffer
	if err := v.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadVocabulary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Word(25) != v.Word(25) {
		t.Error("synthetic vocabulary round trip failed")
	}
}
