package serve

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"zipflm/internal/model"
	"zipflm/internal/sampling"
	"zipflm/internal/telemetry"
)

// tokensDigest hashes responses in request order: one line per request, its
// index and its tokens.
func tokensDigest(results []*Result) string {
	h := sha256.New()
	for i, res := range results {
		fmt.Fprintf(h, "%d %v\n", i, res.Tokens)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// scrapeConcurrently renders reg's /metrics exposition from another
// goroutine every 100 µs until the returned stop is called.
func scrapeConcurrently(t *testing.T, reg *telemetry.Registry) (stop func()) {
	done, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		for {
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() { close(done); <-stopped }
}

// TestServedTokensLedger holds what the server answers to the SHA-256 digests
// checked in as testdata/tokens.json, one per row of {lstm, rhn} × {fp32,
// int8} × temperature {0, 0.8}. Each row serves the same 32 requests —
// raggedRequests' prompts and seeds, N 32, top-k and top-p off — all
// submitted at once. A change to the batcher, the Stepper, the kernels or
// the sampler that moves one served token fails here. A deliberate move
// edits the ledger in the same commit, with the digests this test prints
// and the reason.
//
// It is also the server's invariance table, and every cell must give the
// row's digest. Each row is served at MaxBatch 1 (every sequence alone) and
// 8, on the serial backend and on one tiling across 4 workers
// (ComputeWorkers 1 and 4), at GOMAXPROCS 1, 2 and 4. The base cell,
// procs=4/batch=8/compute=4, has three more columns, each changing one
// thing that must not move a token:
//   - workers=2: two batchers sharing the one tiled backend, whose calls
//     serialize on its mutex;
//   - observed: telemetry, tracing and the flight recorder on, with /metrics
//     scraped from another goroutine throughout, and the caches it reports
//     on;
//   - reload: the first half served, a Reload of the same weights, then the
//     second half, which must be served on the new generation.
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
	serve := func(t *testing.T, m *model.LM, cfg Config, reqs []Request) []*Result {
		s := New(m, cfg)
		defer s.Close()
		return submitConcurrently(t, s, reqs)
	}
	columns := []struct {
		name string
		run  func(t *testing.T, m *model.LM, cfg Config, reqs []Request) []*Result
	}{
		{"workers=2", func(t *testing.T, m *model.LM, cfg Config, reqs []Request) []*Result {
			cfg.Workers = 2
			return serve(t, m, cfg, reqs)
		}},
		{"observed", func(t *testing.T, m *model.LM, cfg Config, reqs []Request) []*Result {
			reg, tracer, flight := telemetry.NewRegistry(), telemetry.NewTracer(0), telemetry.NewFlight(64)
			flight.SetSink(io.Discard)
			cfg.Telemetry, cfg.Tracer, cfg.Flight = reg, tracer, flight
			// A scrape reads the caches' sizes and counters too.
			cfg.CacheEntries, cfg.PrefixEntries = len(reqs), len(reqs)
			stop := scrapeConcurrently(t, reg)
			results := serve(t, m, cfg, reqs)
			stop()
			if got := reg.Counter("zipflm_serve_completed_total").Value(); got != int64(len(reqs)) {
				t.Errorf("the registry counted %d completions, want %d", got, len(reqs))
			}
			if len(tracer.Events()) == 0 {
				t.Error("the tracer recorded nothing")
			}
			return results
		}},
		{"reload", func(t *testing.T, m *model.LM, cfg Config, reqs []Request) []*Result {
			s := New(m, cfg)
			defer s.Close()
			half := len(reqs) / 2
			results := submitConcurrently(t, s, reqs[:half])
			if _, err := s.Reload(m); err != nil {
				t.Fatal(err)
			}
			for i, res := range submitConcurrently(t, s, reqs[half:]) {
				if res.WeightsVersion != 2 {
					t.Errorf("req %d, submitted after the reload, was served by weights v%d", half+i, res.WeightsVersion)
				}
				results = append(results, res)
			}
			return results
		}},
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
				t.Run(name, func(t *testing.T) {
					check := func(t *testing.T, results []*Result) {
						if got, want := tokensDigest(results), ledger[name]; got != want {
							t.Errorf("served tokens moved: got %q: %q, ledger has %q", name, got, want)
						}
					}
					cfg := Config{Quantized: quantized, QueueDepth: len(reqs)}
					for _, procs := range []int{1, 2, 4} {
						for _, maxBatch := range []int{1, 8} {
							t.Run(fmt.Sprintf("procs=%d/batch=%d", procs, maxBatch), func(t *testing.T) {
								defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
								for _, compute := range []int{1, 4} {
									t.Run(fmt.Sprintf("compute=%d", compute), func(t *testing.T) {
										cfg := cfg
										cfg.MaxBatch, cfg.ComputeWorkers = maxBatch, compute
										check(t, serve(t, m, cfg, reqs))
									})
								}
							})
						}
					}
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
					cfg.MaxBatch, cfg.ComputeWorkers = 8, 4
					for _, col := range columns {
						t.Run(col.name, func(t *testing.T) { check(t, col.run(t, m, cfg, reqs)) })
					}
				})
			}
		}
	}
}
