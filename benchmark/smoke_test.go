package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContractMatchesTables keeps BENCHMARK.json and the harness's metric
// and workload tables in step.
func TestContractMatchesTables(t *testing.T) {
	c := readContract(t)
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", c.RunSeconds, defaultSeconds)
	}
	names := workloadNames()
	if len(c.Workloads) != len(names) {
		t.Fatalf("%d workloads declared, harness has %d", len(c.Workloads), len(names))
	}
	for i, w := range c.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: declared %q, harness %q", i, w.Name, names[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	check := func(kind string, declared []contractMetric, table []decl, bounded bool) {
		if len(declared) != len(table) {
			t.Fatalf("%s: %d metrics declared, harness has %d", kind, len(declared), len(table))
		}
		for i, m := range declared {
			d := table[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: declared %+v, harness %+v", kind, i, m, d)
			}
			if !nameRE.MatchString(m.Name) {
				t.Errorf("%s: name %q does not match %v", kind, m.Name, nameRE)
			}
			if seen[m.Name] {
				t.Errorf("%s: name %q used twice", kind, m.Name)
			}
			seen[m.Name] = true
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s %s: bound declared %v, harness %v, want in (0, 0.25]", kind, m.Name, m.Bound, d.bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s %s: per-layer metrics have no bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd, true)
	check("per_layer", c.PerLayer, perLayer, false)
}

// tiny keeps the whole smoke pass to a few seconds: three short segments and
// one set-up.
var tiny = scale{seconds: 0.4, segments: 3, tracedSegments: 2, setupReps: 1}

func runTiny(t *testing.T, seed uint64, traced bool) map[string]*report {
	t.Helper()
	reps, err := runSet(workloadNames(), seed, tiny, traced, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*report{}
	for _, r := range reps {
		out[r.Workload] = r
	}
	return out
}

// checkEmitted asserts a report carries every declared name exactly once, in
// order, with its unit, and that no correctness gate failed. Regime
// assertions are sized for the full run and are not checked at this scale.
func checkEmitted(t *testing.T, rep *report, table []decl) {
	t.Helper()
	if len(rep.Metrics) != len(table) {
		t.Fatalf("%s: %d metrics emitted, %d declared", rep.Workload, len(rep.Metrics), len(table))
	}
	for i, m := range rep.Metrics {
		if m.Name != table[i].name || m.Unit != table[i].unit || m.Unit == "" {
			t.Errorf("%s: metric %d is %s [%s], declared %s [%s]", rep.Workload, i, m.Name, m.Unit, table[i].name, table[i].unit)
		}
	}
	for _, g := range rep.Gates {
		if !g.OK && !g.Regime {
			t.Errorf("%s: gate %s failed: %s", rep.Workload, g.Name, g.Detail)
		}
	}
	if rep.Attempted < 1 || rep.Failed != 0 {
		t.Errorf("%s: attempted %d, failed %d", rep.Workload, rep.Attempted, rep.Failed)
	}
}

func value(rep *report, name string) float64 {
	for _, m := range rep.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return -1
}

// TestSmoke runs all four workloads at tiny scale, untraced twice with one
// seed, and traced once.
func TestSmoke(t *testing.T) {
	a, b := runTiny(t, 7, false), runTiny(t, 7, false)
	for _, name := range workloadNames() {
		checkEmitted(t, a[name], endToEnd)
	}
	// Count metrics repeat exactly with the same seed; another seed draws
	// other inputs.
	for _, s := range trainSpecs {
		for _, d := range endToEnd {
			if d.fam != famTrain {
				continue
			}
			x, y := value(a[s.name], d.name), value(b[s.name], d.name)
			if x != y {
				t.Errorf("%s %s: %v then %v with the same seed", s.name, d.name, x, y)
			}
		}
		w7, w8 := newTrainWL(s, 7, tiny, false, t.TempDir()), newTrainWL(s, 8, tiny, false, t.TempDir())
		for _, w := range []*trainWL{w7, w8} {
			if _, err := w.build(nil, "ckpt"); err != nil {
				t.Fatal(err)
			}
		}
		if equalInts(w7.train, w8.train) {
			t.Errorf("%s: seeds 7 and 8 draw the same training stream", s.name)
		}
	}
	for _, s := range serveSpecs {
		if a[s.name].Attempted != b[s.name].Attempted {
			t.Errorf("%s: attempted %d then %d with the same seed", s.name, a[s.name].Attempted, b[s.name].Attempted)
		}
		w7, w8 := newServeWL(s, 7, tiny, false), newServeWL(s, 8, tiny, false)
		w7.build(nil).Close()
		w8.build(nil).Close()
		r7, r7again, r8 := w7.requests(1, 8), w7.requests(1, 8), w8.requests(1, 8)
		differ := false
		for i := range r7 {
			if !equalInts(r7[i].Prompt, r7again[i].Prompt) || r7[i].Seed != r7again[i].Seed {
				t.Errorf("%s: request %d differs between two draws of the same seed", s.name, i)
			}
			if !equalInts(r7[i].Prompt, r8[i].Prompt) {
				differ = true
			}
		}
		if !differ {
			t.Errorf("%s: seeds 7 and 8 draw the same requests", s.name)
		}
	}

	traced := runTiny(t, 7, true)
	for _, name := range workloadNames() {
		checkEmitted(t, traced[name], perLayer)
	}
}
