// Command zipflm-generate loads a checkpoint written by zipflm-train (plus,
// optionally, the matching vocabulary) and samples continuations, running
// its one request through the serving layer (internal/serve) on a one-slot
// server — the tokens sequential model.GenerateOpts draws.
//
// -model is a checkpoint file (zipflm-train -save) or a checkpoint
// directory (-ckpt-dir; its newest checkpoint is read), opened through
// internal/ckpt as zipflm-serve opens it.
//
// Usage:
//
//	zipflm-train -input book.txt -save model.ckpt -save-vocab vocab.ckpt ...
//	zipflm-generate -model model.ckpt -vocab vocab.ckpt -prompt "the cat" -n 30
//	zipflm-generate -model model.ckpt -prompt-ids 4,7,1 -temperature 0.8 -topk 40
//	zipflm-generate -model model.ckpt -prompt-ids 4,7,1 -topp 0.9
//	zipflm-generate -model model.ckpt -prompt-ids 4,7,1 -quantized
//
// -quantized runs inference on int8 weights (deterministic, faster on
// memory-bound models; output differs from FP32 by design). An -n below 1
// is a usage error (exit status 2).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"zipflm/internal/ckpt"
	"zipflm/internal/corpus"
	"zipflm/internal/sampling"
	"zipflm/internal/serve"
)

func main() {
	var (
		modelPath = flag.String("model", "", "checkpoint file or checkpoint directory (required)")
		vocabPath = flag.String("vocab", "", "vocabulary file (enables -prompt text)")
		prompt    = flag.String("prompt", "", "text prompt (requires -vocab)")
		promptIDs = flag.String("prompt-ids", "", "comma-separated token ids as the prompt")
		n         = flag.Int("n", 40, "tokens to generate")
		temp      = flag.Float64("temperature", 1.0, "sampling temperature (0 = greedy)")
		topK      = flag.Int("topk", 0, "restrict sampling to the K most probable tokens (0 = off)")
		topP      = flag.Float64("topp", 0, "nucleus sampling mass in (0,1) (0 = off)")
		seed      = flag.Uint64("seed", 1, "sampling seed")
		quantized = flag.Bool("quantized", false, "run inference on int8 weights")
	)
	flag.Parse()
	if *n < 1 {
		usageError("-n %d: the number of tokens to generate must be at least 1", *n)
	}

	if *modelPath == "" {
		fmt.Fprintln(os.Stderr, "zipflm-generate: -model is required")
		os.Exit(1)
	}
	st, err := ckpt.Open(*modelPath)
	if err != nil {
		fatal(err)
	}
	m, err := st.LM()
	if err != nil {
		fatal(err)
	}

	var vocab *corpus.Vocabulary
	if *vocabPath != "" {
		vf, err := os.Open(*vocabPath)
		if err != nil {
			fatal(err)
		}
		vocab, err = corpus.LoadVocabulary(vf)
		vf.Close()
		if err != nil {
			fatal(err)
		}
		if vocab.Size() != m.Cfg.Vocab {
			fatal(fmt.Errorf("vocabulary size %d does not match model vocabulary %d", vocab.Size(), m.Cfg.Vocab))
		}
	}

	ids, err := buildPrompt(*prompt, *promptIDs, vocab, m.Cfg.Vocab)
	if err != nil {
		fatal(err)
	}

	s := serve.New(m, serve.Config{MaxBatch: 1, MaxTokens: *n, MaxPromptLen: len(ids),
		Quantized: *quantized})
	defer s.Close()
	res, err := s.Submit(serve.Request{Prompt: ids, N: *n, Seed: *seed,
		Opts: sampling.DecodeOpts{Temperature: *temp, TopK: *topK, TopP: *topP}})
	if err != nil {
		fatal(err)
	}
	out := res.Tokens
	if vocab != nil {
		words := make([]string, len(out))
		for i, id := range out {
			words[i] = vocab.Word(id)
		}
		fmt.Println(strings.Join(words, " "))
		return
	}
	strs := make([]string, len(out))
	for i, id := range out {
		strs[i] = strconv.Itoa(id)
	}
	fmt.Println(strings.Join(strs, ","))
}

func buildPrompt(text, idCSV string, vocab *corpus.Vocabulary, modelVocab int) ([]int, error) {
	switch {
	case text != "" && vocab == nil:
		return nil, fmt.Errorf("-prompt needs -vocab; use -prompt-ids without one")
	case text != "":
		ids := vocab.Encode(corpus.Tokenize(text))
		if len(ids) == 0 {
			return nil, fmt.Errorf("prompt tokenized to nothing")
		}
		return ids, nil
	case idCSV != "":
		parts := strings.Split(idCSV, ",")
		ids := make([]int, 0, len(parts))
		for _, p := range parts {
			id, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return nil, fmt.Errorf("bad prompt id %q: %w", p, err)
			}
			if id < 0 || id >= modelVocab {
				return nil, fmt.Errorf("prompt id %d outside model vocabulary %d", id, modelVocab)
			}
			ids = append(ids, id)
		}
		return ids, nil
	default:
		// Default prompt: the most frequent real word (id 1).
		return []int{1 % modelVocab}, nil
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "zipflm-generate: %v\n", err)
	os.Exit(1)
}

// usageError reports a flag value the command cannot run with: one line on
// stderr and exit status 2, the flag package's status for a usage error.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "zipflm-generate: "+format+"\n", args...)
	os.Exit(2)
}
