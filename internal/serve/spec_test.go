package serve

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"zipflm/internal/core"
	"zipflm/internal/corpus"
	"zipflm/internal/model"
	"zipflm/internal/rng"
	"zipflm/internal/sampling"
	"zipflm/internal/trainer"
)

// draftFor returns a small RHN draft sharing m's vocabulary — the intended
// speculative pairing (tiny proposer, big verifier).
func draftFor(m *model.LM, seed uint64) *model.LM {
	return model.NewLM(model.Config{
		Vocab: m.Cfg.Vocab, Dim: 8, Hidden: 12,
		RNN: model.KindRHN, RHNDepth: 2, Seed: seed,
	})
}

// raggedRequests builds a mixed workload: ragged prompt lengths, varied N,
// every decoding mode.
func raggedRequests(vocab, n int, seedBase uint64) []Request {
	r := rng.New(seedBase)
	reqs := make([]Request, n)
	for i := range reqs {
		prompt := make([]int, 1+r.Intn(6))
		for j := range prompt {
			prompt[j] = r.Intn(vocab)
		}
		opts := sampling.DecodeOpts{}
		switch i % 4 {
		case 1:
			opts.Temperature = 0.9
		case 2:
			opts.Temperature = 1.1
			opts.TopK = 10
		case 3:
			opts.Temperature = 0.8
			opts.TopP = 0.9
		}
		reqs[i] = Request{Prompt: prompt, N: 1 + r.Intn(10), Opts: opts, Seed: seedBase + uint64(i)}
	}
	return reqs
}

// submitAll runs every request concurrently and checks each response
// bit-for-bit against ref.
func submitAll(t *testing.T, s *Server, ref *model.LM, reqs []Request, tag string) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(reqs))
	got := make([][]int, len(reqs))
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			res, err := s.Submit(req)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = res.Tokens
		}(i, req)
	}
	wg.Wait()
	for i, req := range reqs {
		if errs[i] != nil {
			t.Fatalf("%s req %d failed: %v", tag, i, errs[i])
		}
		want := reference(ref, req)
		if len(got[i]) != len(want) {
			t.Fatalf("%s req %d: %d tokens, want %d", tag, i, len(got[i]), len(want))
		}
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("%s req %d token %d: served %d != sequential %d", tag, i, j, got[i][j], want[j])
			}
		}
	}
}

// TestServeQuantizedBitIdentical: a Quantized server answers every request
// exactly as sequential generation on the quantized model would — the q8
// serving path inherits the full bit-identity contract, with the quantized
// model (not the FP32 source) as the reference.
func TestServeQuantizedBitIdentical(t *testing.T) {
	for name, m := range map[string]*model.LM{"lstm": lstmModel(), "rhn": rhnModel()} {
		ref := m.Quantize()
		for _, maxBatch := range []int{1, 4} {
			s := New(m, Config{Quantized: true, MaxBatch: maxBatch, QueueDepth: 64,
				CacheEntries: 16, PrefixEntries: 8})
			submitAll(t, s, ref, raggedRequests(m.Cfg.Vocab, 20, 100), name)
			if !s.Stats().Quantized {
				t.Fatalf("%s: snapshot does not report quantized serving", name)
			}
			s.Close()
		}
	}
}

// TestServeSpeculativeBitIdentical is the speculative-decoding acceptance
// contract: with a cold draft proposing (plenty of rejections), concurrent
// ragged traffic at several batch bounds — FP32 and quantized targets, serial
// and tiled backends — every response is still bit-identical to sequential
// generation on the target. The draft may only ever change the cost per
// token, never a token.
func TestServeSpeculativeBitIdentical(t *testing.T) {
	for name, m := range map[string]*model.LM{"lstm": lstmModel(), "rhn": rhnModel()} {
		for _, quantized := range []bool{false, true} {
			ref := m
			if quantized {
				ref = m.Quantize()
			}
			for _, sh := range []struct{ maxBatch, computeWorkers int }{{1, 1}, {1, 4}, {4, 1}, {4, 4}} {
				s := New(m, Config{Quantized: quantized, Draft: draftFor(m, 33), DraftK: 3, ComputeWorkers: sh.computeWorkers,
					MaxBatch: sh.maxBatch, QueueDepth: 64, CacheEntries: 16, PrefixEntries: 8})
				tag := fmt.Sprintf("%s batch=%d compute=%d", name, sh.maxBatch, sh.computeWorkers)
				if quantized {
					tag += "+q8"
				}
				submitAll(t, s, ref, raggedRequests(m.Cfg.Vocab, 24, 300), tag)
				snap := s.Stats()
				s.Close()
				if snap.DraftK != 3 {
					t.Fatalf("%s: snapshot DraftK = %d, want 3", tag, snap.DraftK)
				}
				if snap.SpecRounds == 0 || snap.DraftSteps == 0 {
					t.Fatalf("%s: speculative path never ran: %+v", tag, snap)
				}
				if snap.DraftAccepted > snap.DraftProposed {
					t.Fatalf("%s: accepted %d > proposed %d", tag, snap.DraftAccepted, snap.DraftProposed)
				}
				if r := snap.SpecAcceptanceRate(); r < 0 || r > 1 {
					t.Fatalf("%s: acceptance rate %v outside [0,1]", tag, r)
				}
			}
		}
	}
}

// TestServeSpeculativeFullAcceptance: with the draft sharing the target's
// weights and greedy requests, every proposal matches the target's own argmax
// — serving-side acceptance must be total.
func TestServeSpeculativeFullAcceptance(t *testing.T) {
	m := lstmModel()
	d := m.Clone()
	s := New(m, Config{Draft: d, DraftK: 4, MaxBatch: 2})
	defer s.Close()
	for seed := uint64(1); seed <= 4; seed++ {
		req := Request{Prompt: []int{3, 1, 4}, N: 12, Seed: seed}
		res, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		want := reference(m, req)
		for i := range want {
			if res.Tokens[i] != want[i] {
				t.Fatalf("seed %d token %d: %d != %d", seed, i, res.Tokens[i], want[i])
			}
		}
	}
	snap := s.Stats()
	if snap.DraftProposed == 0 || snap.DraftAccepted != snap.DraftProposed {
		t.Fatalf("identical draft rejected: accepted %d of %d", snap.DraftAccepted, snap.DraftProposed)
	}
	// One request at a time, its first token from a normal step, then k+1
	// tokens per round: ⌈(N−1)/(k+1)⌉ = ⌈11/5⌉ = 3 rounds per request.
	if snap.SpecRounds != 4*3 {
		t.Fatalf("%d rounds for 4 requests of 12 tokens at k=4, want 12", snap.SpecRounds)
	}
	if snap.SpecAcceptanceRate() != 1 {
		t.Fatalf("acceptance rate %v, want 1", snap.SpecAcceptanceRate())
	}
}

// TestServeTrainedDraftIsAccepted runs the pairing speculation is built for:
// an LSTM target and an RHN draft with about a third of its parameters, both
// trained on the same Markov corpus. The draft's greedy proposals must track
// the target — its acceptance rate must be above zero and above the cold
// draftFor draft's on the same requests — while every response stays
// bit-identical to sequential generation on the target.
func TestServeTrainedDraftIsAccepted(t *testing.T) {
	const seed = 42
	gen := corpus.NewMarkovGenerator(corpus.MarkovConfig{
		VocabSize: 799, Branching: 4, ZipfExponent: 1.2, Seed: seed,
	})
	train, valid := corpus.Split(gen.Stream(11_000), 10, 100, seed)
	trainOne := func(mc model.Config) *model.LM {
		tr, err := trainer.New(trainer.Config{
			Model:        mc,
			Ranks:        1,
			BatchPerRank: 4,
			SeqLen:       16,
			LR:           0.15,
			ClipNorm:     1.0,
			Exchange:     core.UniqueExchange{},
			SeedStrategy: sampling.ZipfFreq,
			BaseSeed:     seed,
		}, train, valid)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Run(1, 1); err != nil {
			t.Fatal(err)
		}
		return tr.Model(0)
	}
	target := trainOne(model.Config{Vocab: 800, Dim: 32, Hidden: 48, RNN: model.KindLSTM, Sampled: 48, Seed: seed})
	draft := trainOne(model.Config{Vocab: 800, Dim: 12, Hidden: 16, RNN: model.KindRHN, RHNDepth: 2, Sampled: 48, Seed: seed + 1})

	load := LoadConfig{Vocab: target.Cfg.Vocab, Seed: seed}
	reqs := make([]Request, 16)
	for i := range reqs {
		reqs[i] = Request{Prompt: load.PromptForRank(i), N: 24, Seed: load.SeedForRank(i)} // greedy
	}
	acceptance := func(d *model.LM, tag string) float64 {
		s := New(target, Config{Draft: d, DraftK: 4, MaxBatch: 1, QueueDepth: len(reqs)})
		defer s.Close()
		submitAll(t, s, target, reqs, tag)
		return s.Stats().SpecAcceptanceRate()
	}
	trained := acceptance(draft, "trained draft")
	cold := acceptance(draftFor(target, 33), "cold draft")
	t.Logf("acceptance: trained draft %.3f, cold draft %.3f", trained, cold)
	if trained <= 0 || trained <= cold {
		t.Fatalf("trained draft accepted at %.3f, cold draft at %.3f: training taught the draft nothing", trained, cold)
	}
}

// TestServeSpeculativePrefixCache: the prefix cache and the draft compose —
// a repeated prompt skips target prefill (the draft replays it cheaply) and
// the response stays bit-identical.
func TestServeSpeculativePrefixCache(t *testing.T) {
	m := rhnModel()
	s := New(m, Config{Draft: draftFor(m, 33), DraftK: 3, MaxBatch: 2, PrefixEntries: 8})
	defer s.Close()

	prompt := []int{9, 3, 14, 2}
	if _, err := s.Submit(Request{Prompt: prompt, N: 5, Opts: sampling.DecodeOpts{Temperature: 0.7}, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	req := Request{Prompt: prompt, N: 8, Opts: sampling.DecodeOpts{Temperature: 0.7}, Seed: 42}
	res, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PrefixHit {
		t.Fatal("repeated prompt should hit the prefix cache on a speculative server")
	}
	want := reference(m, req)
	for i := range want {
		if res.Tokens[i] != want[i] {
			t.Fatalf("token %d: prefix-cached speculative %d != sequential %d", i, res.Tokens[i], want[i])
		}
	}
}

// TestReloadWithDraft: target and draft swap as a pair with zero downtime,
// post-reload responses are bit-identical to the new target, and the draft
// change shows up only as cost (never tokens) — with two workers stepping
// the same target and draft.
func TestReloadWithDraft(t *testing.T) {
	m1, m2 := reloadModels()
	d1 := draftFor(m1, 33)
	d2 := draftFor(m1, 55)
	d2.Cfg.Seed = d1.Cfg.Seed // same architecture identity, different weights
	s := New(m1, Config{Workers: 2, Draft: d1, DraftK: 3, MaxBatch: 4, QueueDepth: 256})
	defer s.Close()

	reqs := raggedRequests(m1.Cfg.Vocab, 32, 500)
	var wg sync.WaitGroup
	results := make([]*Result, len(reqs))
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			res, err := s.Submit(req)
			if err != nil {
				t.Errorf("req %d shed during draft reload: %v", i, err)
				return
			}
			results[i] = res
		}(i, req)
	}
	time.Sleep(time.Millisecond)
	v, err := s.ReloadWithDraft(m2, d2)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("reload returned version %d", v)
	}
	wg.Wait()
	for i, res := range results {
		if res == nil {
			continue
		}
		ref := m1
		if res.WeightsVersion == 2 {
			ref = m2
		}
		want := reference(ref, reqs[i])
		for j := range want {
			if res.Tokens[j] != want[j] {
				t.Fatalf("req %d (v%d) token %d differs from sequential", i, res.WeightsVersion, j)
			}
		}
	}

	// Strictly after the reload: new target, new draft, still bit-identical.
	after := Request{Prompt: []int{7, 7, 7}, N: 10, Seed: 9}
	res, err := s.Submit(after)
	if err != nil {
		t.Fatal(err)
	}
	if res.WeightsVersion != 2 {
		t.Fatalf("post-reload request served by v%d", res.WeightsVersion)
	}
	want := reference(m2, after)
	for j := range want {
		if res.Tokens[j] != want[j] {
			t.Fatal("post-reload speculative response not bit-identical to new target")
		}
	}
}

// TestReloadWithDraftValidation: draft reloads are rejected on non-speculative
// servers and on architecture mismatch; New panics on a vocabulary mismatch.
func TestReloadWithDraftValidation(t *testing.T) {
	m1, m2 := reloadModels()

	plain := New(m1, Config{})
	if _, err := plain.ReloadWithDraft(m2, draftFor(m1, 33)); err == nil ||
		!strings.Contains(err.Error(), "without speculative decoding") {
		t.Fatalf("draft reload on plain server returned %v", err)
	}
	plain.Close()

	spec := New(m1, Config{Draft: draftFor(m1, 33), DraftK: 2})
	defer spec.Close()
	wrong := model.NewLM(model.Config{Vocab: m1.Cfg.Vocab, Dim: 8, Hidden: 16,
		RNN: model.KindRHN, RHNDepth: 2, Seed: 33})
	if _, err := spec.ReloadWithDraft(m2, wrong); err == nil {
		t.Fatal("mismatched draft architecture accepted")
	}
	// Target-only reload on a speculative server keeps working.
	if _, err := spec.Reload(m2); err != nil {
		t.Fatal(err)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("vocabulary-mismatched draft must panic at New")
		}
	}()
	bad := model.NewLM(model.Config{Vocab: m1.Cfg.Vocab + 1, Dim: 8, Hidden: 12,
		RNN: model.KindRHN, RHNDepth: 2, Seed: 33})
	New(m1, Config{Draft: bad})
}
