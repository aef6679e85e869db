package serve

import (
	"slices"
	"sync"
	"testing"

	"zipflm/internal/model"
	"zipflm/internal/rng"
	"zipflm/internal/sampling"
)

// reloadModels returns two same-architecture models with different
// weights — the "before" and "after" of a checkpoint reload.
func reloadModels() (v1, v2 *model.LM) {
	cfg := model.Config{Vocab: 120, Dim: 12, Hidden: 18, RNN: model.KindLSTM, Seed: 21}
	v1 = model.NewLM(cfg)
	cfg2 := cfg
	cfg2.Seed = 77
	v2 = model.NewLM(cfg2)
	v2.Cfg.Seed = cfg.Seed // same architecture identity, different weights
	return v1, v2
}

// TestReloadRacingRequestsStayOnOneGeneration: requests in flight while a
// Reload installs other weights are each answered on one generation alone —
// exactly as sequential generation on the weights of the version the result
// reports — and none is shed. It takes other weights because a sequence
// that crossed to the same weights would look untouched; the reload cells
// of TestServedTokensLedger cover a Reload between requests.
func TestReloadRacingRequestsStayOnOneGeneration(t *testing.T) {
	m1, m2 := reloadModels()
	s := New(m1, Config{Workers: 2, MaxBatch: 4, QueueDepth: 64})
	defer s.Close()
	reqs := raggedRequests(m1.Cfg.Vocab, 48, 1000)
	results := make([]*Result, len(reqs))
	errs := make([]error, len(reqs))
	answered := make(chan struct{}, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			results[i], errs[i] = s.Submit(req)
			answered <- struct{}{}
		}(i, req)
	}
	<-answered // the first answer is out; most requests are queued or in flight
	if _, err := s.Reload(m2); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	weights := map[uint64]*model.LM{1: m1, 2: m2}
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("req %d failed: %v", i, errs[i])
		}
		if m, ok := weights[res.WeightsVersion]; !ok || !slices.Equal(res.Tokens, reference(m, reqs[i])) {
			t.Errorf("req %d: served %v on weights v%d, not what that generation generates", i, res.Tokens, res.WeightsVersion)
		}
	}
	if snap := s.Stats(); snap.Shed != 0 || snap.Expired != 0 || snap.Reloads != 1 || snap.WeightsVersion != 2 {
		t.Errorf("stats after the reload: %d shed, %d expired, %d reloads, version %d", snap.Shed, snap.Expired, snap.Reloads, snap.WeightsVersion)
	}
}

// TestReloadInvalidatesCaches: a request answered from cache before a
// reload must be regenerated on the new weights afterwards — both the
// result cache and the prefix cache are generation-tagged.
func TestReloadInvalidatesCaches(t *testing.T) {
	m1, m2 := reloadModels()
	s := New(m1, Config{MaxBatch: 2, QueueDepth: 16, CacheEntries: 16, PrefixEntries: 8})
	defer s.Close()

	req := Request{Prompt: []int{3, 1, 4}, N: 6, Opts: sampling.DecodeOpts{Temperature: 0.8}, Seed: 5}
	first, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// Same request again: hot, and on v1.
	again, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.WeightsVersion != 1 {
		t.Fatalf("expected a v1 cache hit, got %+v", again)
	}
	if _, err := s.Reload(m2); err != nil {
		t.Fatal(err)
	}
	after, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if after.CacheHit {
		t.Fatal("post-reload request served from the stale result cache")
	}
	if after.WeightsVersion != 2 {
		t.Fatalf("post-reload request served by v%d", after.WeightsVersion)
	}
	want := m2.GenerateOpts(req.Prompt, req.N, req.Opts, rng.New(req.Seed))
	for i := range want {
		if after.Tokens[i] != want[i] {
			t.Fatal("post-reload response not bit-identical to the new weights (stale prefix state?)")
		}
	}
	_ = first
}

// TestReloadRejectsMismatchedArchitecture: a reload is a weights update,
// not a model swap.
func TestReloadRejectsMismatchedArchitecture(t *testing.T) {
	m1, _ := reloadModels()
	s := New(m1, Config{})
	defer s.Close()
	other := model.NewLM(model.Config{Vocab: 120, Dim: 12, Hidden: 20, RNN: model.KindLSTM, Seed: 1})
	if _, err := s.Reload(other); err == nil {
		t.Fatal("mismatched hidden size must be rejected")
	}
	otherV := model.NewLM(model.Config{Vocab: 90, Dim: 12, Hidden: 18, RNN: model.KindLSTM, Seed: 1})
	if _, err := s.Reload(otherV); err == nil {
		t.Fatal("mismatched vocabulary must be rejected")
	}
}
