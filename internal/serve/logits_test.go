package serve

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"zipflm/internal/model"
	"zipflm/internal/sampling"
	"zipflm/internal/tensor"
)

// countingBackend counts the logits rows a replica computes: the rows of
// every product against a matrix with one row per vocabulary word (the
// output embedding — no other weight of the test models is that tall). A
// logits row is a V×D product, most of a step; the serving layer owes exactly
// one per token it samples from fresh logits, and none for a prompt token
// that is not the prompt's last.
type countingBackend struct {
	tensor.Backend
	vocab int
	rows  atomic.Int64
}

func (c *countingBackend) MatMulABT(dst, a, b *tensor.Matrix) {
	if b.Rows == c.vocab {
		c.rows.Add(int64(dst.Rows))
	}
	c.Backend.MatMulABT(dst, a, b)
}

func (c *countingBackend) MatMulABTStreamQ8(dst, a *tensor.Matrix, b *tensor.QMatrix) {
	if b.Rows == c.vocab {
		c.rows.Add(int64(dst.Rows))
	}
	c.Backend.MatMulABTStreamQ8(dst, a, b)
}

// countLogitsRows installs a counting backend on a replica. The caller does it
// while the replica's worker is idle or stopped.
func countLogitsRows(m *model.LM) *countingBackend {
	c := &countingBackend{Backend: m.Backend(), vocab: m.Cfg.Vocab}
	m.SetBackend(c)
	return c
}

func enqueue(w *worker, req Request) *task {
	t := &task{req: req, done: make(chan taskDone, 1)}
	w.admit(t)
	return t
}

// TestLogitsRowsPerSampledToken: a request that misses both caches costs N
// logits rows — one per generated token — however long its prompt is and
// whatever batches it rode in; a prefix-cache hit costs N−1 (its first draw
// uses the cached row), a result-cache hit none. Computing a row per fed
// token instead, as the batcher used to, would be P+N−1. FP32 and int8.
func TestLogitsRowsPerSampledToken(t *testing.T) {
	m := lstmModel()
	for _, quantized := range []bool{false, true} {
		ref := m
		if quantized {
			ref = m.Quantize()
		}
		tag := fmt.Sprintf("quantized=%v", quantized)
		s := New(m, Config{MaxBatch: 4, ComputeWorkers: 1, Quantized: quantized, QueueDepth: 64, CacheEntries: 64, PrefixEntries: 64})
		c := countLogitsRows(s.workers[0].m) // idle until the first Submit, which orders this write before the worker's reads

		reqs := raggedRequests(m.Cfg.Vocab, 24, 900)
		wantRows, fedTokens := 0, 0
		for i := range reqs {
			reqs[i].Prompt[0] = i // unique prompts: every request misses
			wantRows += reqs[i].N
			fedTokens += len(reqs[i].Prompt) + reqs[i].N - 1
		}
		submitAll(t, s, ref, reqs, tag+" miss")
		if got := int(c.rows.Load()); got != wantRows {
			t.Fatalf("%s: %d logits rows for %d cache misses, want %d (one per generated token; one per fed token would be %d)",
				tag, got, len(reqs), wantRows, fedTokens)
		}
		if snap := s.Stats(); snap.MeanBatch <= 1 {
			t.Fatalf("%s: mean batch %.2f — the requests never shared a step, so no batch mixed prefill and decode rows", tag, snap.MeanBatch)
		}

		submitAll(t, s, ref, reqs, tag+" result hit")
		if got := int(c.rows.Load()); got != wantRows {
			t.Fatalf("%s: result-cache hits computed %d logits rows, want 0", tag, got-wantRows)
		}

		for i := range reqs {
			reqs[i].Seed += 5000
		}
		before := wantRows
		for _, req := range reqs {
			wantRows += req.N - 1
		}
		submitAll(t, s, ref, reqs, tag+" prefix hit")
		if got := int(c.rows.Load()); got != wantRows {
			t.Fatalf("%s: prefix-cache hits computed %d logits rows, want %d (N−1 each)", tag, got-before, wantRows-before)
		}
		if snap := s.Stats(); int(snap.PrefixHits) != len(reqs) || int(snap.ResultHits) != len(reqs) {
			t.Fatalf("%s: %d prefix hits and %d result hits, want %d each", tag, snap.PrefixHits, snap.ResultHits, len(reqs))
		}
		s.Close()
	}
}

// TestLogitsRowsPerStep drives one worker by hand through a batch that mixes
// decoding and mid-prompt sequences: every step computes exactly as many
// logits rows as sequences emit in it — none at all while the whole batch is
// mid-prompt — and the prefix snapshot a finished prompt leaves behind holds
// the logits the sequential path computes for that prompt.
func TestLogitsRowsPerStep(t *testing.T) {
	m := lstmModel()
	for _, quantized := range []bool{false, true} {
		ref := m
		if quantized {
			ref = m.Quantize()
		}
		s := New(m, Config{MaxBatch: 4, ComputeWorkers: 1, Quantized: quantized, PrefixEntries: 8})
		s.Close() // the batcher goroutine is gone; drive its worker by hand
		w := s.workers[0]
		c := countLogitsRows(w.m)

		// emitting[i] is how many sequences step i feeds the last token of
		// their prompt or a token of their own.
		long := Request{Prompt: []int{5, 6, 7, 8, 9}, N: 3, Seed: 1}
		short := Request{Prompt: []int{3}, N: 6, Opts: sampling.DecodeOpts{Temperature: 0.9}, Seed: 2}
		late := Request{Prompt: []int{11, 12, 13}, N: 2, Seed: 3}
		tasks := []*task{enqueue(w, long)}
		for step, emitting := range []int{0, 0, 1, 1, 2, 3, 3, 1} {
			switch step {
			case 2:
				tasks = append(tasks, enqueue(w, short)) // decodes while long is mid-prompt
			case 3:
				tasks = append(tasks, enqueue(w, late)) // mid-prompt while short decodes
			}
			before := c.rows.Load()
			w.step()
			if got := int(c.rows.Load() - before); got != emitting {
				t.Fatalf("quantized=%v step %d: %d logits rows, want %d (the sequences emitting)", quantized, step, got, emitting)
			}
		}
		if len(w.active) != 0 {
			t.Fatalf("quantized=%v: %d sequences still active after the scripted steps", quantized, len(w.active))
		}
		for i, req := range []Request{long, short, late} {
			d := <-tasks[i].done
			if d.err != nil || !slices.Equal(d.tokens, reference(ref, req)) {
				t.Fatalf("quantized=%v request %d: served %v (%v), sequential %v", quantized, i, d.tokens, d.err, reference(ref, req))
			}

			// The sequential path: every prompt token through a full Step.
			st, gs := ref.NewStepper(1), ref.NewGenState()
			var want []float32
			for _, tok := range req.Prompt {
				want = st.Step([]int{tok}, []*model.GenState{gs}).Row(0)
			}
			val, ok := w.prefixLookup(req.Prompt)
			if !ok {
				t.Fatalf("quantized=%v request %d: no prefix snapshot", quantized, i)
			}
			got := val.(*prefixEntry).logits
			if len(got) != len(want) {
				t.Fatalf("quantized=%v request %d: snapshot has %d logits, want %d", quantized, i, len(got), len(want))
			}
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("quantized=%v request %d: snapshot logit %d = %v, sequential %v", quantized, i, j, got[j], want[j])
				}
			}
		}
	}
}
