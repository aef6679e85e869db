package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"testing"
	"time"

	"zipflm/internal/model"
	"zipflm/internal/powerlaw"
	"zipflm/internal/rng"
	"zipflm/internal/sampling"
)

func lstmModel() *model.LM {
	return scaled(model.NewLM(model.Config{Vocab: 150, Dim: 16, Hidden: 24, RNN: model.KindLSTM, Seed: 9}))
}

func rhnModel() *model.LM {
	return scaled(model.NewLM(model.Config{Vocab: 110, Dim: 12, Hidden: 20, RNN: model.KindRHN, RHNDepth: 2, Seed: 10}))
}

// scaled multiplies every weight of m by 4 and returns m. At NewLM's scale
// these small models' logits are nearly flat, so a sampled token hardly
// depends on them: int8 and FP32 weights drew the same tokens at temperature
// 0.8, and a test could not tell the two paths apart.
func scaled(m *model.LM) *model.LM {
	for _, p := range m.Weights() {
		for i := range p.Value {
			p.Value[i] *= 4
		}
	}
	return m
}

// reference computes what the serving layer must return: the sequential
// single-stream generation with the request's own RNG.
func reference(m *model.LM, req Request) []int {
	return m.GenerateOpts(req.Prompt, req.N, req.Opts, rng.New(req.Seed))
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

// submitConcurrently submits every request at once, each from its own
// goroutine, and returns the responses in request order.
func submitConcurrently(t *testing.T, s *Server, reqs []Request) []*Result {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(reqs))
	results := make([]*Result, len(reqs))
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			results[i], errs[i] = s.Submit(req)
		}(i, req)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("req %d failed: %v", i, err)
		}
	}
	return results
}

// submitAll runs every request concurrently and checks each response
// bit-for-bit against ref.
func submitAll(t *testing.T, s *Server, ref *model.LM, reqs []Request, tag string) {
	t.Helper()
	for i, res := range submitConcurrently(t, s, reqs) {
		if want := reference(ref, reqs[i]); !slices.Equal(res.Tokens, want) {
			t.Fatalf("%s req %d: served %v != sequential %v", tag, i, res.Tokens, want)
		}
	}
}

// TestServeBitIdenticalToSequential is the subsystem's acceptance contract:
// many concurrent requests — ragged prompts, mixed temperatures and
// filters, both architectures, several batch bounds — each answered exactly
// as sequential model.Generate would answer it. A Quantized server inherits
// the contract with the quantized model, m.Quantize(), not the FP32 source,
// as the reference.
func TestServeBitIdenticalToSequential(t *testing.T) {
	for name, m := range map[string]*model.LM{"lstm": lstmModel(), "rhn": rhnModel()} {
		for _, quantized := range []bool{false, true} {
			ref := m
			if quantized {
				ref = m.Quantize()
			}
			for _, maxBatch := range []int{1, 3, 8} {
				tag := fmt.Sprintf("%s quantized=%v maxBatch=%d", name, quantized, maxBatch)
				s := New(m, Config{Quantized: quantized, MaxBatch: maxBatch, QueueDepth: 64, CacheEntries: 32, PrefixEntries: 16})
				submitAll(t, s, ref, raggedRequests(m.Cfg.Vocab, 24, 77), tag)
				if got := s.Stats().Quantized; got != quantized {
					t.Fatalf("%s: snapshot reports Quantized %v", tag, got)
				}
				s.Close()
			}
		}
	}
}

// TestServeKeepsItsOwnWeights: New serves a copy of the model it is given,
// so a write to the caller's model after New changes no response, FP32 or
// int8. A server built after the write answers differently, which is what
// makes the first half a test.
func TestServeKeepsItsOwnWeights(t *testing.T) {
	req := Request{Prompt: []int{3, 1, 4}, N: 12, Opts: sampling.DecodeOpts{Temperature: 0.9}, Seed: 5}
	serve := func(m *model.LM, quantized bool) (*Server, []int) {
		s := New(m, Config{Quantized: quantized})
		res, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		return s, res.Tokens
	}
	for _, quantized := range []bool{false, true} {
		m := lstmModel()
		s, before := serve(m, quantized)
		for _, p := range m.Weights() {
			for i := range p.Value {
				p.Value[i] = 2*p.Value[i] + 0.01*float32(i%13)
			}
		}
		after, err := s.Submit(req)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(before, after.Tokens) {
			t.Errorf("quantized=%v: a write to the source model changed a response: %v → %v", quantized, before, after.Tokens)
		}
		fresh, other := serve(m, quantized)
		fresh.Close()
		if slices.Equal(before, other) {
			t.Errorf("quantized=%v: rewriting every weight left the response unchanged; the check above proves nothing", quantized)
		}
	}
}

// TestResultCache: an exact repeat is a hit, returns identical tokens, and
// the LRU stays bounded.
func TestResultCache(t *testing.T) {
	m := lstmModel()
	s := New(m, Config{MaxBatch: 4, CacheEntries: 2})
	defer s.Close()

	req := Request{Prompt: []int{5, 6, 7}, N: 6, Opts: sampling.DecodeOpts{Temperature: 0.9}, Seed: 3}
	first, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first submission cannot be a cache hit")
	}
	second, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("exact repeat must hit the result cache")
	}
	for i := range first.Tokens {
		if first.Tokens[i] != second.Tokens[i] {
			t.Fatalf("cache returned different tokens at %d", i)
		}
	}

	// Mutating the returned slice must not poison the cache.
	second.Tokens[0] = -999
	third, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if third.Tokens[0] != first.Tokens[0] {
		t.Fatal("caller mutation leaked into the cache")
	}

	// Capacity 2: three distinct keys evict the oldest.
	for seed := uint64(10); seed < 13; seed++ {
		r := req
		r.Seed = seed
		if _, err := s.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Stats()
	if snap.ResultEntries > 2 {
		t.Fatalf("result cache holds %d entries, capacity 2", snap.ResultEntries)
	}
	if snap.ResultEvicted == 0 {
		t.Fatal("expected evictions past capacity")
	}
}

// TestPrefixCache: a repeated prompt with a different seed skips prefill
// (PrefixHit) and still matches the sequential reference bit for bit —
// including the N == 1 instant-completion path.
func TestPrefixCache(t *testing.T) {
	m := rhnModel()
	s := New(m, Config{MaxBatch: 4, PrefixEntries: 8})
	defer s.Close()

	prompt := []int{9, 3, 14, 2}
	warm := Request{Prompt: prompt, N: 5, Opts: sampling.DecodeOpts{Temperature: 0.7}, Seed: 1}
	if _, err := s.Submit(warm); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 7} {
		req := Request{Prompt: prompt, N: n, Opts: sampling.DecodeOpts{Temperature: 0.7}, Seed: 42}
		res, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if !res.PrefixHit {
			t.Fatalf("N=%d: repeated prompt should hit the prefix cache", n)
		}
		want := reference(m, req)
		for i := range want {
			if res.Tokens[i] != want[i] {
				t.Fatalf("N=%d token %d: prefix-cached %d != sequential %d", n, i, res.Tokens[i], want[i])
			}
		}
	}
}

// TestPrefixCacheStats: Stats reads the prefix cache's counters from the
// LRU itself, with no registry attached. Capacity 2 and the prompts A B C
// A C: four misses (A's second lookup follows its eviction by C), one hit,
// two evictions, two entries.
func TestPrefixCacheStats(t *testing.T) {
	m := lstmModel()
	s := New(m, Config{MaxBatch: 4, PrefixEntries: 2})
	defer s.Close()

	a, b, c := []int{5, 6, 7}, []int{8, 9}, []int{3, 1, 4, 1}
	for i, prompt := range [][]int{a, b, c, a, c} {
		res, err := s.Submit(Request{Prompt: prompt, N: 3, Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if want := i == 4; res.PrefixHit != want {
			t.Fatalf("request %d: prefix hit %v, want %v", i, res.PrefixHit, want)
		}
	}
	snap := s.Stats()
	if snap.PrefixHits != 1 || snap.PrefixMisses != 4 || snap.PrefixEvicted != 2 || snap.PrefixEntries != 2 {
		t.Fatalf("prefix cache: %d hits, %d misses, %d evicted, %d entries; want 1, 4, 2, 2",
			snap.PrefixHits, snap.PrefixMisses, snap.PrefixEvicted, snap.PrefixEntries)
	}
}

// TestAdmissionBackpressure: with a tiny queue and slow service, a flood of
// concurrent submissions must shed cleanly — every request gets exactly one
// outcome, nothing hangs, and accounting adds up.
func TestAdmissionBackpressure(t *testing.T) {
	m := lstmModel()
	s := New(m, Config{MaxBatch: 1, QueueDepth: 1})
	defer s.Close()

	const flood = 24
	var wg sync.WaitGroup
	var mu sync.Mutex
	completed, shed := 0, 0
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Submit(Request{Prompt: []int{1, 2}, N: 20, Seed: uint64(i)})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				completed++
			case errors.Is(err, ErrOverloaded):
				shed++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if completed+shed != flood {
		t.Fatalf("outcomes %d+%d != %d submitted", completed, shed, flood)
	}
	if completed == 0 {
		t.Fatal("nothing completed")
	}
	snap := s.Stats()
	if snap.Shed != uint64(shed) {
		t.Fatalf("stats count %d shed, loaders saw %d", snap.Shed, shed)
	}
}

// TestDeadlineShedding: an already-expired deadline is refused with
// ErrDeadlineExceeded and counted.
func TestDeadlineShedding(t *testing.T) {
	m := lstmModel()
	s := New(m, Config{MaxBatch: 2})
	defer s.Close()

	req := Request{Prompt: []int{1}, N: 4, Seed: 1, Deadline: time.Now().Add(-time.Second)}
	if _, err := s.Submit(req); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired deadline returned %v, want ErrDeadlineExceeded", err)
	}
	if snap := s.Stats(); snap.Expired != 1 {
		t.Fatalf("stats count %d expired, want 1", snap.Expired)
	}
}

// TestDeadlineBeatsCache: an expired request is shed even when its answer
// sits in the result cache — the outcome must not depend on cache state.
func TestDeadlineBeatsCache(t *testing.T) {
	m := lstmModel()
	s := New(m, Config{MaxBatch: 2, CacheEntries: 8})
	defer s.Close()

	req := Request{Prompt: []int{2, 3}, N: 5, Seed: 4}
	if _, err := s.Submit(req); err != nil {
		t.Fatal(err)
	}
	hot := req
	hot.Deadline = time.Now().Add(-time.Second)
	if _, err := s.Submit(hot); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired hot request returned %v, want ErrDeadlineExceeded", err)
	}
}

// TestDeadlineMidFlight: a deadline that passes during generation abandons
// the sequence at a step boundary instead of letting it wedge a batch slot;
// the submitter gets ErrDeadlineExceeded either way (admission or
// mid-flight, depending on timing).
func TestDeadlineMidFlight(t *testing.T) {
	m := lstmModel()
	s := New(m, Config{MaxBatch: 2})
	defer s.Close()

	req := Request{Prompt: []int{1}, N: 4096, Seed: 1, Deadline: time.Now().Add(time.Millisecond)}
	if _, err := s.Submit(req); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("mid-flight deadline returned %v, want ErrDeadlineExceeded", err)
	}
	if snap := s.Stats(); snap.Expired != 1 {
		t.Fatalf("stats count %d expired, want 1", snap.Expired)
	}
	// The slot must be free again: a normal request still completes.
	if _, err := s.Submit(Request{Prompt: []int{1}, N: 4, Seed: 2}); err != nil {
		t.Fatalf("request after expiry failed: %v", err)
	}
}

// TestRequestCaps: the per-request resource bounds reject oversized work at
// validation.
func TestRequestCaps(t *testing.T) {
	m := lstmModel()
	s := New(m, Config{MaxTokens: 8, MaxPromptLen: 3})
	defer s.Close()
	if _, err := s.Submit(Request{Prompt: []int{1}, N: 9}); err == nil {
		t.Error("n above MaxTokens accepted")
	}
	if _, err := s.Submit(Request{Prompt: []int{1, 2, 3, 4}, N: 2}); err == nil {
		t.Error("prompt above MaxPromptLen accepted")
	}
	if _, err := s.Submit(Request{Prompt: []int{1, 2, 3}, N: 8}); err != nil {
		t.Errorf("request at the caps rejected: %v", err)
	}
}

// TestLoadDeterministicHistogram: the issued rank histogram must not depend
// on goroutine scheduling — same seed, same PerRank, run to run.
func TestLoadDeterministicHistogram(t *testing.T) {
	m := lstmModel()
	cfg := LoadConfig{Clients: 6, Requests: 80, Vocab: m.Cfg.Vocab, Tokens: 3, Seed: 21}
	var prev []int
	for run := 0; run < 2; run++ {
		s := New(m, Config{MaxBatch: 4, QueueDepth: 8})
		rep := RunLoad(s, cfg)
		s.Close()
		if prev != nil {
			for r := range prev {
				if prev[r] != rep.PerRank[r] {
					t.Fatalf("rank %d issued %d times, then %d — load not deterministic", r, prev[r], rep.PerRank[r])
				}
			}
		}
		prev = rep.PerRank
	}
}

// TestLoadPromptsPinned pins what a load seed draws: the prompts and request
// seeds of ranks 0..63 at zipflm-serve -loadgen's default seed, digested, so
// a -loadgen run with a given seed replays the same requests from release to
// release.
func TestLoadPromptsPinned(t *testing.T) {
	cfg := LoadConfig{Vocab: 300, Seed: 42}
	h := fnv.New64a()
	for r := 0; r < 64; r++ {
		p := cfg.PromptForRank(r)
		if len(p) < 2 || len(p) > 8 {
			t.Fatalf("rank %d: prompt length %d outside [2, 8]", r, len(p))
		}
		fmt.Fprint(h, p, cfg.SeedForRank(r))
	}
	if got := h.Sum64(); got != 0x19743659d03e18f {
		t.Fatalf("prompt digest %#x, want 0x19743659d03e18f: a seed no longer draws the same load", got)
	}
}

// TestValidation: malformed requests are rejected before costing anything.
func TestValidation(t *testing.T) {
	m := lstmModel()
	s := New(m, Config{})
	defer s.Close()
	for _, req := range []Request{
		{Prompt: nil, N: 4},
		{Prompt: []int{1}, N: 0},
		{Prompt: []int{-1}, N: 4},
		{Prompt: []int{m.Cfg.Vocab}, N: 4},
		{Prompt: []int{1}, N: 4, Opts: sampling.DecodeOpts{Temperature: -1}},
		{Prompt: []int{1}, N: 4, Opts: sampling.DecodeOpts{TopP: 1.5}},
	} {
		if _, err := s.Submit(req); err == nil {
			t.Errorf("request %+v accepted, want validation error", req)
		}
	}
}

// TestCloseUnblocksSubmitters: Close while requests are queued or in flight
// fails them with ErrShutdown instead of hanging them, and later Submits
// are refused immediately.
func TestCloseUnblocksSubmitters(t *testing.T) {
	m := lstmModel()
	s := New(m, Config{MaxBatch: 1, QueueDepth: 8})

	var wg sync.WaitGroup
	outcome := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Submit(Request{Prompt: []int{3}, N: 50, Seed: uint64(i)})
			outcome <- err
		}(i)
	}
	time.Sleep(5 * time.Millisecond) // let some requests start
	s.Close()
	wg.Wait()
	close(outcome)
	for err := range outcome {
		if err != nil && !errors.Is(err, ErrShutdown) && !errors.Is(err, ErrOverloaded) {
			t.Fatalf("unexpected outcome at shutdown: %v", err)
		}
	}
	if _, err := s.Submit(Request{Prompt: []int{3}, N: 1, Seed: 1}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("post-close Submit returned %v, want ErrShutdown", err)
	}
	s.Close() // idempotent
}

// TestClosedLoopLoad runs the Zipf load generator end to end (the CI race
// target): multiple workers, caches on, every outcome accounted for, the
// hot ranks hitting the cache, and the issued load actually following a
// power law (the serving-side mirror of the paper's Figure 1 fit).
func TestClosedLoopLoad(t *testing.T) {
	m := lstmModel()
	s := New(m, Config{Workers: 2, MaxBatch: 4, QueueDepth: 16, CacheEntries: 128, PrefixEntries: 64})
	defer s.Close()

	cfg := LoadConfig{
		Clients:  8,
		Requests: 160,
		Vocab:    m.Cfg.Vocab,
		Tokens:   6,
		Opts:     sampling.DecodeOpts{Temperature: 0.8},
		Seed:     5,
	}
	rep := RunLoad(s, cfg)
	if rep.Issued != cfg.Requests {
		t.Fatalf("issued %d != %d requested", rep.Issued, cfg.Requests)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d requests failed unexpectedly", rep.Failed)
	}
	if rep.Completed+rep.Shed != rep.Issued {
		t.Fatalf("outcomes %d+%d != %d issued", rep.Completed, rep.Shed, rep.Issued)
	}
	if rep.Shed != 0 {
		t.Fatalf("closed-loop load with queue ≥ clients must not shed, got %d", rep.Shed)
	}
	if rep.CacheHits == 0 {
		t.Fatal("Zipf load produced zero cache hits")
	}

	// Spot-check correctness through the cache: the hottest rank must
	// still answer bit-identically.
	req := Request{Prompt: cfg.PromptForRank(0), N: cfg.Tokens, Opts: cfg.Opts, Seed: cfg.SeedForRank(0)}
	res, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	want := reference(m, req)
	for i := range want {
		if res.Tokens[i] != want[i] {
			t.Fatalf("hot-rank token %d: %d != sequential %d", i, res.Tokens[i], want[i])
		}
	}

	// The load's rank-frequency histogram should fit a power law with an
	// exponent near -ZipfS (same verification the corpus generators get).
	var xs, ys []float64
	for rank, count := range rep.PerRank {
		if count > 0 {
			xs = append(xs, float64(rank+1))
			ys = append(ys, float64(count))
		}
	}
	fit, err := powerlaw.FitXY(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Alpha > -0.5 || fit.Alpha < -2.0 {
		t.Errorf("load rank-frequency exponent %.2f implausible for Zipf s=%.1f", fit.Alpha, cfg.ZipfS)
	}
}

// TestBatchingActuallyBatches: under concurrent closed-loop load a
// MaxBatch=8 server must execute steps at batch size > 1 (the whole point
// of the subsystem).
func TestBatchingActuallyBatches(t *testing.T) {
	m := lstmModel()
	s := New(m, Config{MaxBatch: 8, QueueDepth: 32})
	defer s.Close()
	RunLoad(s, LoadConfig{Clients: 8, Requests: 64, Vocab: m.Cfg.Vocab, Tokens: 12, PromptPool: 64, Seed: 2,
		Opts: sampling.DecodeOpts{Temperature: 0.9}})
	snap := s.Stats()
	if snap.MeanBatch <= 1.05 {
		t.Fatalf("mean batch %.2f — batcher never coalesced concurrent requests", snap.MeanBatch)
	}
}
