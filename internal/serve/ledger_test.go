package serve

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"zipflm/internal/model"
	"zipflm/internal/sampling"
)

// servedDigest submits reqs to s concurrently and hashes the responses in
// request order: one line per request, its index and its tokens.
func servedDigest(t *testing.T, s *Server, reqs []Request) string {
	t.Helper()
	got := make([][]int, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
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
	h := sha256.New()
	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("req %d failed: %v", i, errs[i])
		}
		fmt.Fprintf(h, "%d %v\n", i, got[i])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestServedTokensLedger holds what the server answers to the SHA-256 digests
// checked in as testdata/tokens.json, one per row of {lstm, rhn} × {fp32,
// int8} × temperature {0, 0.8}. Each row serves the same 32 requests —
// raggedRequests' prompts and seeds, N 32, top-k and top-p off — at MaxBatch
// 1 and at 8, and both runs must produce
// the row's digest, at GOMAXPROCS 1, 2 and 4. A change to the batcher, the
// Stepper, the kernels or the sampler that moves one served token fails
// here. A deliberate move edits the ledger in the same commit, with the
// digests this test prints and the reason.
//
// A row's fp32 and int8 digests must differ: if they were equal, the int8
// rows would observe nothing of the int8 path.
func TestServedTokensLedger(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "tokens.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ledger map[string]string
	if err := json.Unmarshal(raw, &ledger); err != nil {
		t.Fatal(err)
	}
	archs := map[string]func() *model.LM{"lstm": lstmModel, "rhn": rhnModel}
	temps := map[string]float64{"t0": 0, "t0.8": 0.8}
	if n := len(archs) * 2 * len(temps); len(ledger) != n {
		t.Errorf("ledger has %d rows, the test builds %d", len(ledger), n)
	}
	for arch, newModel := range archs {
		m := newModel()
		for tname, temp := range temps {
			reqs := raggedRequests(m.Cfg.Vocab, 32, 4242)
			for i := range reqs {
				reqs[i].N = 32
				reqs[i].Opts = sampling.DecodeOpts{Temperature: temp}
			}
			fp32, int8 := arch+"-fp32-"+tname, arch+"-int8-"+tname
			if ledger[fp32] == ledger[int8] {
				t.Errorf("%s and %s have the same digest", fp32, int8)
			}
			for _, quantized := range []bool{false, true} {
				name := fp32
				if quantized {
					name = int8
				}
				for _, procs := range []int{1, 2, 4} {
					for _, maxBatch := range []int{1, 8} {
						t.Run(fmt.Sprintf("%s/procs=%d/batch=%d", name, procs, maxBatch), func(t *testing.T) {
							defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
							s := New(m, Config{Quantized: quantized, MaxBatch: maxBatch, QueueDepth: len(reqs)})
							defer s.Close()
							if got, want := servedDigest(t, s, reqs), ledger[name]; got != want {
								t.Errorf("served tokens moved: got %q: %q, ledger has %q", name, got, want)
							}
						})
					}
				}
			}
		}
	}
}
