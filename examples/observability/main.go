// Observability example: one telemetry registry shared by a training run
// and a serving instance, scraped over HTTP in Prometheus text format,
// plus a Chrome trace_event timeline of the training run carrying both
// wall time and the simulated cluster's virtual clock.
//
//	go run ./examples/observability
//
// The walkthrough demonstrates the layer's contract: telemetry is purely
// observational — the instrumented training run produces bit-identical
// weights to an uninstrumented one, and every served response stays
// bit-identical to sequential Generate.
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"zipflm/internal/core"
	"zipflm/internal/corpus"
	"zipflm/internal/model"
	"zipflm/internal/perfmodel"
	"zipflm/internal/sampling"
	"zipflm/internal/serve"
	"zipflm/internal/telemetry"
	"zipflm/internal/traceview"
	"zipflm/internal/trainer"
)

func main() {
	// One registry for everything; one tracer for the training timeline.
	// zipflm-train and zipflm-serve wire these up behind -metrics-addr /
	// -trace and /metrics; here we do it by hand to show the pieces.
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(0)

	// --- Train with telemetry on, over a virtual-clocked cluster. -------
	gen := corpus.NewGenerator(corpus.GeneratorConfig{VocabSize: 499, ZipfExponent: 1.1, Seed: 7})
	stream := gen.Stream(24000)
	train, valid := corpus.Split(stream, 10, 100, 7)
	hw := perfmodel.TitanX()
	cfg := trainer.Config{
		Model:           model.Config{Vocab: 500, Dim: 24, Hidden: 32, RNN: model.KindLSTM, Sampled: 32},
		Ranks:           4,
		BatchPerRank:    2,
		SeqLen:          10,
		LR:              0.1,
		Exchange:        core.UniqueExchange{},
		SeedStrategy:    sampling.ZipfFreq,
		BaseSeed:        7,
		Hardware:        &hw,
		SimFLOPsPerStep: 2e9,
		SimAchievedFrac: 0.4,
		Telemetry:       reg,
		Trace:           tracer,
	}
	tr, err := trainer.New(cfg, train, valid)
	if err != nil {
		log.Fatal(err)
	}
	res, err := tr.Run(1, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %d steps (final loss %.4f), virtual cluster time %.2f s\n",
		res.Stats.Steps, res.FinalLoss, tr.SimSeconds())

	// The trace's per-phase virtual durations reproduce the trainer's
	// accounting exactly — the acceptance contract of the tracer. Only the
	// aggregate "train" spans count: the per-rank spans (cat "rank") carry
	// the same names and would double-count.
	var vCompute float64
	for _, e := range tracer.Events() {
		if e.Cat == "train" && e.Name == "compute" {
			vCompute += e.VDur
		}
	}
	fmt.Printf("trace: %d events; compute vclock sum %.6f s == SimComputeSeconds %.6f s: %v\n",
		tracer.Len(), vCompute, res.Stats.SimComputeSeconds,
		vCompute == res.Stats.SimComputeSeconds)

	if err := tracer.WriteFile("trace.json"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote trace.json — open it in chrome://tracing or https://ui.perfetto.dev")

	// --- Analyze the trace we just wrote (what zipflm-trace does). -------
	parsed, err := traceview.ParseFile("trace.json")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncritical-path analysis of trace.json (zipflm-trace trace.json):")
	traceview.WriteSummary(os.Stdout, parsed, traceview.Analyze(parsed), traceview.SummaryOptions{TopN: 3, MaxSteps: 4})

	// --- Serve on the same registry and scrape /metrics. ----------------
	srv := serve.New(tr.Model(0), serve.Config{
		Workers:      1,
		MaxBatch:     8,
		CacheEntries: 64,
		Telemetry:    reg,
		// SLOs evaluate straight off the registry's latency histogram and
		// completion counters — generous targets a healthy run must meet.
		SLOTargetP99:    2 * time.Second,
		SLOAvailability: 0.99,
	})
	defer srv.Close()
	req := serve.Request{Prompt: []int{3, 1, 4}, N: 8, Opts: sampling.DecodeOpts{Temperature: 0.8}, Seed: 5}
	for i := 0; i < 5; i++ { // one generation, four result-cache hits
		if _, err := srv.Submit(req); err != nil {
			log.Fatal(err)
		}
	}

	// telemetry.Handler is what zipflm-serve mounts at /metrics; an
	// httptest server stands in for the real listener.
	ts := httptest.NewServer(telemetry.Handler(reg))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		log.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nscraped /metrics (%s), families spanning train, collective, ckpt and serve:\n",
		resp.Header.Get("Content-Type"))
	for _, line := range strings.Split(string(body), "\n") {
		for _, prefix := range []string{
			"zipflm_train_steps_total ",
			"zipflm_train_goodput_ratio ",
			"zipflm_collective_bytes_total{",
			"zipflm_serve_completed_total ",
			"zipflm_serve_result_cache_hits ",
			"zipflm_serve_latency_seconds_count ",
		} {
			if strings.HasPrefix(line, prefix) {
				fmt.Println("  " + line)
			}
		}
	}
	snap := srv.Stats()
	fmt.Printf("\nserving snapshot (same instruments): completed=%d hit rate=%.0f%% p50=%v\n",
		snap.Completed, 100*snap.HitRate(), snap.LatencyP50)
	for _, st := range snap.SLO {
		fmt.Println(st.String())
	}
}
