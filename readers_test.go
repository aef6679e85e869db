package zipflm

// The metric rule, as a test: every metric family the programs register has
// a reader. The kinds of reader:
//   - dash: a zipflm-top panel (internal/dash/dash.go names the family);
//   - ci: a CI assertion (.github/workflows/ci.yml names the family);
//   - stats: a serve.Snapshot field, and with it /v1/stats;
//   - failure: a failure count, the first thing read after an incident.
//
// A family no reader uses is deleted, not added to the table.

import (
	"bytes"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"zipflm/internal/ckpt"
	"zipflm/internal/core"
	"zipflm/internal/corpus"
	"zipflm/internal/model"
	"zipflm/internal/perfmodel"
	"zipflm/internal/sampling"
	"zipflm/internal/serve"
	"zipflm/internal/telemetry"
	"zipflm/internal/trainer"
)

// metricReaders maps every registered metric family to its reader kind.
var metricReaders = map[string]string{
	"zipflm_serve_tokens_total":            "dash",
	"zipflm_serve_completed_total":         "dash",
	"zipflm_serve_latency_seconds":         "dash",
	"zipflm_serve_queue_depth":             "dash",
	"zipflm_serve_batch_occupancy":         "dash",
	"zipflm_serve_result_cache_hits":       "dash",
	"zipflm_serve_result_cache_misses":     "dash",
	"zipflm_serve_shed_total":              "dash",
	"zipflm_serve_batch_steps_total":       "ci",
	"zipflm_serve_weights_version":         "ci",
	"zipflm_serve_accepted_total":          "stats",
	"zipflm_serve_expired_total":           "stats",
	"zipflm_serve_expired_in_flight_total": "stats",
	"zipflm_serve_discarded_tokens_total":  "stats",
	"zipflm_serve_steps_total":             "stats",
	"zipflm_serve_seq_steps_total":         "stats",
	"zipflm_serve_reload_failures_total":   "failure",
	"zipflm_train_tokens_total":            "dash",
	"zipflm_train_compute_seconds":         "dash",
	"zipflm_train_sync_seconds":            "dash",
	"zipflm_train_goodput_ratio":           "dash",
	"zipflm_train_sim_seconds":             "dash",
	"zipflm_train_faults_total":            "failure",
	"zipflm_train_lost_steps_total":        "failure",
}

// TestMetricFamiliesHaveReaders shares one registry between a trainer with
// every observed feature on (Hardware, Faults, on-disk checkpoints, a
// tracer) and a server with both caches, runs both, and lists the families
// in the parsed exposition, which is what a scraper sees. It fails on a family missing from
// metricReaders, on a row that never registers, and on a dash or ci row
// whose reader does not name the family.
func TestMetricFamiliesHaveReaders(t *testing.T) {
	reg := telemetry.NewRegistry()

	gen := corpus.NewMarkovGenerator(corpus.MarkovConfig{VocabSize: 59, Branching: 6, ZipfExponent: 1.1, Seed: 3})
	train, valid := corpus.Split(gen.Stream(6000), 10, 50, 3)
	hw := perfmodel.TitanX()
	tr, err := trainer.New(trainer.Config{
		Model:                model.Config{Vocab: 60, Dim: 8, Hidden: 10, RNN: model.KindLSTM},
		Ranks:                2,
		BatchPerRank:         2,
		SeqLen:               6,
		LR:                   0.3,
		Exchange:             core.UniqueExchange{},
		SeedStrategy:         sampling.AllDifferent,
		BaseSeed:             7,
		Hardware:             &hw,
		Faults:               ckpt.NewFaultPlan([]ckpt.Fault{{Time: 1e-9, Rank: 1}}),
		SimCheckpointSeconds: 1e-4,
		SimRestartSeconds:    1e-4,
		CheckpointEvery:      2,
		CheckpointDir:        t.TempDir(),
		Telemetry:            reg,
		Trace:                telemetry.NewTracer(0),
	}, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Steps(4); err != nil {
		t.Fatal(err)
	}

	srv := serve.New(tr.Model(0), serve.Config{
		Workers: 1, CacheEntries: 4, PrefixEntries: 4, Telemetry: reg,
	})
	defer srv.Close()
	for i := 0; i < 2; i++ { // the second is a result-cache hit
		if _, err := srv.Submit(serve.Request{Prompt: []int{3, 1, 4}, N: 3, Seed: 5}); err != nil {
			t.Fatal(err)
		}
	}

	var text bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	series, err := telemetry.ParseText(&text)
	if err != nil {
		t.Fatal(err)
	}
	// A histogram family exports _bucket, _sum and _count series.
	hists := map[string]bool{}
	for name := range series {
		family, _, _ := strings.Cut(name, "{")
		if base, ok := strings.CutSuffix(family, "_bucket"); ok && strings.HasSuffix(name, `le="+Inf"}`) {
			hists[base] = true
		}
	}
	registered := map[string]bool{}
	for name := range series {
		family, _, _ := strings.Cut(name, "{")
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(family, suffix); ok && hists[base] {
				family = base
			}
		}
		registered[family] = true
	}
	for _, family := range keys(registered) {
		if _, ok := metricReaders[family]; !ok {
			t.Errorf("metric family %s has no reader: delete it, or name its reader in metricReaders", family)
		}
	}

	readers := map[string]string{}
	for kind, path := range map[string]string{"dash": "internal/dash/dash.go", "ci": ".github/workflows/ci.yml"} {
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		readers[kind] = string(buf)
	}
	for _, family := range keys(metricReaders) {
		kind := metricReaders[family]
		if !registered[family] {
			t.Errorf("metricReaders row %s (%s) never registers", family, kind)
		}
		if text, ok := readers[kind]; ok && !strings.Contains(text, family) {
			t.Errorf("metric family %s: its %s reader does not name it", family, kind)
		}
	}
	if len(registered) != len(metricReaders) {
		t.Errorf("%d families registered, %d rows in metricReaders", len(registered), len(metricReaders))
	}
}

// TestDashNamesOnlyRegisteredFamilies is the converse of
// TestMetricFamiliesHaveReaders for zipflm-top: every metric family
// internal/dash/dash.go names is one the programs register, so no panel
// reads a family that is gone and stays blank.
func TestDashNamesOnlyRegisteredFamilies(t *testing.T) {
	buf, err := os.ReadFile("internal/dash/dash.go")
	if err != nil {
		t.Fatal(err)
	}
	named := regexp.MustCompile(`zipflm_[a-z0-9_]+`).FindAllString(string(buf), -1)
	if len(named) == 0 {
		t.Fatal("internal/dash/dash.go names no metric family")
	}
	for _, family := range named {
		if _, ok := metricReaders[family]; !ok {
			t.Errorf("internal/dash/dash.go reads %s, which no program registers", family)
		}
	}
}

// keys lists m's keys in order.
func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
