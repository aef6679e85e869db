package corpus

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Vocabulary persistence: a trained model is useless without the id↔word
// mapping it was trained with, so vocabularies serialize alongside model
// checkpoints (gob, versioned like model checkpoints).

const vocabVersion = 1

type vocabFile struct {
	Version int
	Words   []string
	Freq    []int64
}

// Save writes the vocabulary to w.
func (v *Vocabulary) Save(w io.Writer) error {
	f := vocabFile{Version: vocabVersion, Words: v.words, Freq: v.freq}
	if err := gob.NewEncoder(w).Encode(f); err != nil {
		return fmt.Errorf("corpus: save vocabulary: %w", err)
	}
	return nil
}

// LoadVocabulary reads a vocabulary written by Save.
func LoadVocabulary(r io.Reader) (*Vocabulary, error) {
	var f vocabFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("corpus: load vocabulary: %w", err)
	}
	if f.Version != vocabVersion {
		return nil, fmt.Errorf("corpus: vocabulary version %d, want %d", f.Version, vocabVersion)
	}
	if len(f.Words) == 0 || len(f.Words) != len(f.Freq) {
		return nil, fmt.Errorf("corpus: malformed vocabulary (%d words, %d freqs)", len(f.Words), len(f.Freq))
	}
	if f.Words[0] != unknownToken {
		return nil, fmt.Errorf("corpus: vocabulary missing <unk> at id 0")
	}
	v := &Vocabulary{
		words: f.Words,
		freq:  f.Freq,
		index: make(map[string]int, len(f.Words)),
	}
	for id, w := range f.Words {
		v.index[w] = id
	}
	return v, nil
}
