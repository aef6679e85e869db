package serve_test

import (
	"fmt"
	"log"
	"slices"

	"zipflm/internal/model"
	"zipflm/internal/rng"
	"zipflm/internal/serve"
)

// ExampleServer_Reload serves a model, checks a response against sequential
// generation — batching and caching never change a bit — then hot-swaps in
// new weights: the caches are generation-tagged, so the same request is
// answered afresh by the new generation, and nothing is shed across the swap.
func ExampleServer_Reload() {
	cfg := model.Config{Vocab: 200, Dim: 16, Hidden: 24, RNN: model.KindLSTM, Seed: 1}
	m := model.NewLM(cfg)
	srv := serve.New(m, serve.Config{MaxBatch: 8, CacheEntries: 64})
	defer srv.Close()

	req := serve.Request{Prompt: []int{2, 5, 9}, N: 10} // greedy: untrained weights sample near-uniformly
	res, err := srv.Submit(req)
	if err != nil {
		log.Fatal(err)
	}
	want := m.GenerateOpts(req.Prompt, req.N, req.Opts, rng.New(req.Seed))
	fmt.Printf("weights v%d: %v, equal to GenerateOpts: %v\n", res.WeightsVersion, res.Tokens, slices.Equal(res.Tokens, want))

	cfg.Seed = 2
	v, err := srv.Reload(model.NewLM(cfg))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded to v%d\n", v)
	res, err = srv.Submit(req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("weights v%d: %v, shed %d\n", res.WeightsVersion, res.Tokens, srv.Stats().Shed)
	// Output:
	// weights v1: [114 114 82 82 82 82 82 82 82 82], equal to GenerateOpts: true
	// reloaded to v2
	// weights v2: [60 162 106 63 179 179 60 106 106 24], shed 0
}
