package serve

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"zipflm/internal/israce"
	"zipflm/internal/model"
	"zipflm/internal/rng"
	"zipflm/internal/sampling"
)

// TestComputeWorkersBitIdentical extends the serving acceptance contract to
// the tiled backend: with ComputeWorkers > 1 every response must still be
// exactly what sequential model.Generate produces, across architectures and
// reloads (the reload replicas inherit the server's backend).
func TestComputeWorkersBitIdentical(t *testing.T) {
	for name, m := range map[string]*model.LM{"lstm": lstmModel(), "rhn": rhnModel()} {
		for _, computeWorkers := range []int{2, 4} {
			s := New(m, Config{MaxBatch: 4, ComputeWorkers: computeWorkers, QueueDepth: 64, PrefixEntries: 8})

			var reqs []Request
			r := rng.New(55)
			for i := 0; i < 16; i++ {
				prompt := make([]int, 1+r.Intn(5))
				for j := range prompt {
					prompt[j] = r.Intn(m.Cfg.Vocab)
				}
				opts := sampling.DecodeOpts{}
				if i%2 == 1 {
					opts.Temperature = 0.9
				}
				reqs = append(reqs, Request{Prompt: prompt, N: 1 + r.Intn(8), Opts: opts, Seed: uint64(i) + 1})
			}

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

			check := func(stage string) {
				for i, req := range reqs {
					if errs[i] != nil {
						t.Fatalf("%s compute=%d %s req %d failed: %v", name, computeWorkers, stage, i, errs[i])
					}
					want := reference(m, req)
					if len(got[i]) != len(want) {
						t.Fatalf("%s compute=%d %s req %d: %d tokens, want %d", name, computeWorkers, stage, i, len(got[i]), len(want))
					}
					for j := range want {
						if got[i][j] != want[j] {
							t.Fatalf("%s compute=%d %s req %d token %d: served %d != sequential %d",
								name, computeWorkers, stage, i, j, got[i][j], want[j])
						}
					}
				}
			}
			check("initial")

			// After a reload the fresh replicas must compute through the
			// same backend — same weights here, so same expected tokens.
			if _, err := s.Reload(m); err != nil {
				t.Fatal(err)
			}
			for i, req := range reqs {
				res, err := s.Submit(req)
				errs[i] = err
				if err == nil {
					got[i] = res.Tokens
				}
			}
			check("post-reload")
			s.Close()
		}
	}
}

// TestServeParallelSamplingBitIdentical is the contract of the sampling
// fan-out: with the batch's sequences drawing their tokens side by side on
// the backend's workers — greedy, temperature, top-k and top-p requests of
// different lengths sharing one batch — every response is still what
// sequential generation gives, on FP32 and on int8 weights, at every worker
// count; and both caches end up holding exactly what the serial batcher would
// have put there (one entry per request, each answering correctly).
func TestServeParallelSamplingBitIdentical(t *testing.T) {
	m := lstmModel()
	for _, quantized := range []bool{false, true} {
		ref := m
		if quantized {
			ref = m.Quantize()
		}
		reqs := raggedRequests(m.Cfg.Vocab, 32, 500)
		for i := range reqs {
			reqs[i].Prompt[0] = i // unique prompts: cache traffic cannot depend on timing
		}
		for _, computeWorkers := range []int{1, 2, 4} {
			tag := fmt.Sprintf("quantized=%v compute=%d", quantized, computeWorkers)
			s := New(m, Config{MaxBatch: 8, ComputeWorkers: computeWorkers, Quantized: quantized,
				QueueDepth: 64, CacheEntries: 64, PrefixEntries: 64})
			submitAll(t, s, ref, reqs, tag)
			snap := s.Stats()
			if snap.ResultEntries != len(reqs) || snap.PrefixEntries != len(reqs) || snap.PrefixHits != 0 || snap.ResultHits != 0 {
				t.Fatalf("%s: caches hold %d results and %d prefixes after %d hits and %d hits, want %d, %d, 0, 0",
					tag, snap.ResultEntries, snap.PrefixEntries, snap.ResultHits, snap.PrefixHits, len(reqs), len(reqs))
			}
			for i, req := range reqs {
				// The same request again is a result hit; under another seed
				// it restarts from the prefix snapshot the batch left.
				again, err := s.Submit(req)
				if err != nil || !again.CacheHit || !slices.Equal(again.Tokens, reference(ref, req)) {
					t.Fatalf("%s req %d: resubmission %+v (%v), want a result-cache hit with the sequential tokens", tag, i, again, err)
				}
				req.Seed += 1000
				fresh, err := s.Submit(req)
				if err != nil || !fresh.PrefixHit || !slices.Equal(fresh.Tokens, reference(ref, req)) {
					t.Fatalf("%s req %d: reseeded %+v (%v), want a prefix-cache hit with the sequential tokens", tag, i, fresh, err)
				}
			}
			s.Close()
		}
	}
}

// TestStepZeroAlloc: a steady-state step — forward, sampling fan-out, append
// — allocates nothing, on the serial and on the tiled backend, whether every
// sequence is decoding or half of the batch is still mid-prompt (only the
// other half's rows are compacted and reach the logits product).
func TestStepZeroAlloc(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	longPrompt := make([]int, 1<<12)
	for _, computeWorkers := range []int{1, 4} {
		for _, midPrompt := range []bool{false, true} {
			s := New(lstmModel(), Config{MaxBatch: 8, ComputeWorkers: computeWorkers, Quantized: true})
			s.Close() // the batcher goroutine is gone; drive its worker by hand
			w := s.workers[0]
			for i := 0; i < 8; i++ {
				opts := sampling.DecodeOpts{Temperature: 0.8, TopK: 5 * (i % 2)}
				prompt := []int{i, i + 1}
				if midPrompt && i%2 == 0 {
					prompt = longPrompt // outlasts the measured steps
				}
				w.admit(&task{req: Request{Prompt: prompt, N: 1 << 12, Opts: opts, Seed: uint64(i)}, done: make(chan taskDone, 1)})
			}
			w.step()
			w.step() // every short prompt is consumed
			if allocs := testing.AllocsPerRun(100, w.step); allocs != 0 {
				t.Errorf("compute=%d midPrompt=%v: %v allocations per step, want 0", computeWorkers, midPrompt, allocs)
			}
			if got := len(w.active[1].out); got < 100 {
				t.Fatalf("compute=%d midPrompt=%v: measured steps emitted only %d tokens", computeWorkers, midPrompt, got)
			}
			if got := len(w.active[0].out); midPrompt && got != 0 {
				t.Fatalf("compute=%d: a sequence emitted %d tokens mid-prompt", computeWorkers, got)
			}
		}
	}
}

// TestExpiredInFlightStats pins the telemetry split: a deadline that passes
// mid-generation counts as ExpiredInFlight with its partial output in
// DiscardedTokens, while a deadline that was already past at submission
// counts as Expired only.
func TestExpiredInFlightStats(t *testing.T) {
	m := lstmModel()
	s := New(m, Config{MaxBatch: 2, MaxTokens: 1 << 20})
	defer s.Close()

	// Pre-service expiry: no forward pass, no in-flight count.
	pre := Request{Prompt: []int{1}, N: 4, Seed: 1, Deadline: time.Now().Add(-time.Second)}
	if _, err := s.Submit(pre); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired deadline returned %v, want ErrDeadlineExceeded", err)
	}
	snap := s.Stats()
	if snap.Expired != 1 || snap.ExpiredInFlight != 0 || snap.DiscardedTokens != 0 {
		t.Fatalf("pre-service expiry: Expired=%d ExpiredInFlight=%d DiscardedTokens=%d, want 1/0/0",
			snap.Expired, snap.ExpiredInFlight, snap.DiscardedTokens)
	}

	// In-flight expiry: a generation far too long to finish before its
	// deadline, which is itself comfortably past admission. Steps on this
	// model take microseconds, so by the 50ms mark the sequence has
	// generated (and must discard) many tokens without nearing N.
	mid := Request{Prompt: []int{1}, N: 1 << 20, Seed: 2, Deadline: time.Now().Add(50 * time.Millisecond)}
	if _, err := s.Submit(mid); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("mid-flight deadline returned %v, want ErrDeadlineExceeded", err)
	}
	snap = s.Stats()
	if snap.Expired != 2 {
		t.Fatalf("Expired = %d, want 2", snap.Expired)
	}
	if snap.ExpiredInFlight != 1 {
		t.Fatalf("ExpiredInFlight = %d, want 1", snap.ExpiredInFlight)
	}
	if snap.DiscardedTokens == 0 {
		t.Fatal("DiscardedTokens = 0, want the abandoned partial output counted")
	}
}

// TestCoalesceLingerHonorsDeadline guards the linger fix: a worker waiting
// out BatchWindow for more arrivals must still shed an admitted sequence
// the moment its deadline passes, not BatchWindow later.
func TestCoalesceLingerHonorsDeadline(t *testing.T) {
	m := lstmModel()
	const window = 2 * time.Second
	s := New(m, Config{MaxBatch: 4, BatchWindow: window})
	defer s.Close()

	start := time.Now()
	req := Request{Prompt: []int{1}, N: 8, Seed: 3, Deadline: start.Add(30 * time.Millisecond)}
	_, err := s.Submit(req)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("lingering expired request returned %v, want ErrDeadlineExceeded", err)
	}
	if elapsed >= window {
		t.Fatalf("expiry took %v — the worker sat out the whole %v batch window", elapsed, window)
	}
	if snap := s.Stats(); snap.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", snap.Expired)
	}
}
