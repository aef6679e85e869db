package serve

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"zipflm/internal/israce"
	"zipflm/internal/sampling"
)

// TestParallelSamplingCacheContents: with the batch's sequences drawing
// their tokens side by side on the backend's workers, greedy, temperature,
// top-k and top-p requests sharing one batch are answered as sequential
// generation answers them, and both caches end up holding exactly what the
// serial batcher would have put there — one entry per request, each
// answering correctly — on FP32 and on int8 weights.
func TestParallelSamplingCacheContents(t *testing.T) {
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
		tag := fmt.Sprintf("quantized=%v", quantized)
		s := New(m, Config{MaxBatch: 8, ComputeWorkers: 4, Quantized: quantized,
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
