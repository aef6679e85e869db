// Command zipflm-perf is the bench/regression observatory: it parses
// performance numbers out of `go test -bench` output (plain text or
// `-json` test2json streams), maintains checked-in baselines stamped with host metadata, and diffs runs against
// a baseline with noise-aware thresholds — exiting nonzero on regression,
// which is what makes it a CI gate.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkStep -count 3 . > bench.txt
//	zipflm-perf -baseline BENCH_step.json bench.txt     # record a baseline
//	zipflm-perf -diff BENCH_step.json bench_new.txt     # gate a new run
//	zipflm-perf bench.txt                               # list extracted metrics
//
// A diff compares every metric present in both the baseline and the
// current inputs. Direction comes from the unit (ns/op, B/op, allocs/op
// regress upward; tok/s, req/s, MB/s regress downward; unknown units are
// reported but never gate). A current value that is not finite (NaN, ±Inf)
// regresses whatever its unit: no run measures one, so it means the
// benchmark broke. The allowed delta per metric is
// max(-threshold, 2·spread): when a benchmark ran multiple times
// (-count), the observed relative spread across runs widens the bound, so
// a noisy benchmark cannot flap the gate. Exit codes: 0 no regression,
// 2 regression, 1 usage or input error — the same convention as
// zipflm-trace -diff.
//
// Updating a baseline when a performance change is intentional is the
// same command that created it: rerun -baseline and commit the file.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"zipflm/internal/metrics"
	"zipflm/internal/telemetry"
)

// Metric is one measured quantity: the mean over however many runs the
// inputs held, with the relative spread across those runs retained so the
// diff can tell noise from signal.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
	// N is how many runs were aggregated; Spread is (max−min)/mean across
	// them (0 for a single run).
	N      int     `json:"n,omitempty"`
	Spread float64 `json:"spread,omitempty"`
}

// Baseline is the checked-in file format.
type Baseline struct {
	Created time.Time            `json:"created"`
	Host    *telemetry.BuildInfo `json:"host,omitempty"`
	Metrics map[string]Metric    `json:"metrics"`
}

// sample accumulates one metric's runs before reduction.
type sample struct {
	unit   string
	values []float64
}

// collection gathers metrics from any number of input files.
type collection struct {
	samples map[string]*sample
}

func newCollection() *collection { return &collection{samples: map[string]*sample{}} }

func (c *collection) add(name, unit string, v float64) {
	key := name + " " + unit
	s, ok := c.samples[key]
	if !ok {
		s = &sample{unit: unit}
		c.samples[key] = s
	}
	s.values = append(s.values, v)
}

// reduce folds runs into Metrics: mean value, relative spread.
func (c *collection) reduce() map[string]Metric {
	out := make(map[string]Metric, len(c.samples))
	for key, s := range c.samples {
		var sum, lo, hi float64
		for i, v := range s.values {
			sum += v
			if i == 0 || v < lo {
				lo = v
			}
			if i == 0 || v > hi {
				hi = v
			}
		}
		mean := sum / float64(len(s.values))
		m := Metric{Value: mean, Unit: s.unit, N: len(s.values)}
		if mean != 0 && len(s.values) > 1 {
			m.Spread = (hi - lo) / math.Abs(mean)
		}
		out[key] = m
	}
	return out
}

// parseFile reads one `go test -bench` output file.
func (c *collection) parseFile(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return c.parseBenchText(buf)
}

// parseBenchText reads `go test -bench` output, accepting both the plain
// text form and -json (test2json) streams whose Output lines carry the
// same text.
func (c *collection) parseBenchText(buf []byte) error {
	sc := bufio.NewScanner(strings.NewReader(string(buf)))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "{") {
			var ev struct {
				Action string `json:"action"`
				Output string `json:"output"`
			}
			// test2json uses capitalized keys; json.Unmarshal matches
			// case-insensitively.
			if err := json.Unmarshal([]byte(line), &ev); err == nil {
				line = strings.TrimSuffix(ev.Output, "\n")
			}
		}
		c.parseBenchLine(line)
	}
	return sc.Err()
}

// parseBenchLine parses one `BenchmarkName-P  N  v1 unit1  v2 unit2 …`
// line; anything else is ignored. The trailing -P GOMAXPROCS suffix is
// stripped so metric names compare across hosts (the host difference
// itself lives in the baseline metadata).
func (c *collection) parseBenchLine(line string) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return
	}
	if _, err := strconv.Atoi(fields[1]); err != nil {
		return
	}
	name := fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return
		}
		c.add(name, fields[i+1], v)
	}
}

// Direction by unit: the gate only fires on units whose better-direction
// is known; everything else is informational.
var lowerIsBetter = map[string]bool{
	"ns/op": true, "B/op": true, "allocs/op": true,
	"ms": true, "s": true, "us": true, "µs": true, "s/step": true,
	"bytes": true, "B": true, "MB": true, "GB": true, "h": true,
}
var higherIsBetter = map[string]bool{
	"MB/s": true, "tok/s": true, "req/s": true, "ops/s": true, "steps/s": true,
}

// verdicts
const (
	vOK         = "ok"
	vRegressed  = "REGRESSED"
	vImproved   = "improved"
	vInfo       = "info"
	vNoBaseline = "new"
	vGone       = "missing"
)

// diffRow is one metric's comparison.
type diffRow struct {
	name    string
	unit    string
	base    Metric
	cur     Metric
	rel     float64 // (cur-base)/base
	allowed float64 // threshold actually applied
	verdict string
}

// diff compares current metrics against a baseline with the given base
// threshold.
func diff(base *Baseline, cur map[string]Metric, threshold float64) []diffRow {
	names := make([]string, 0, len(base.Metrics))
	for name := range base.Metrics {
		names = append(names, name)
	}
	for name := range cur {
		if _, ok := base.Metrics[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	rows := make([]diffRow, 0, len(names))
	for _, name := range names {
		b, okB := base.Metrics[name]
		c, okC := cur[name]
		row := diffRow{name: name, unit: b.Unit, base: b, cur: c}
		switch {
		case !okB:
			row.unit = c.Unit
			row.verdict = vNoBaseline
		case !okC:
			row.verdict = vGone
		case math.IsNaN(c.Value) || math.IsInf(c.Value, 0):
			row.verdict = vRegressed
		case b.Value == 0:
			row.verdict = vInfo
		default:
			row.rel = (c.Value - b.Value) / math.Abs(b.Value)
			// Noise awareness: the observed run-to-run spread (of either
			// side) widens the allowed band, so a benchmark whose own
			// variance exceeds the threshold cannot flap the gate.
			spread := b.Spread
			if c.Spread > spread {
				spread = c.Spread
			}
			row.allowed = threshold
			if 2*spread > row.allowed {
				row.allowed = 2 * spread
			}
			switch {
			case lowerIsBetter[b.Unit]:
				switch {
				case row.rel > row.allowed:
					row.verdict = vRegressed
				case row.rel < -row.allowed:
					row.verdict = vImproved
				default:
					row.verdict = vOK
				}
			case higherIsBetter[b.Unit]:
				switch {
				case row.rel < -row.allowed:
					row.verdict = vRegressed
				case row.rel > row.allowed:
					row.verdict = vImproved
				default:
					row.verdict = vOK
				}
			default:
				row.verdict = vInfo
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// hostLine renders build/host metadata one-line.
func hostLine(h *telemetry.BuildInfo) string {
	if h == nil {
		return "(no host metadata)"
	}
	return fmt.Sprintf("%s %s/%s gomaxprocs=%d numcpu=%d commit=%s",
		h.Go, h.GOOS, h.GOARCH, h.GOMAXPROCS, h.NumCPU, h.Commit)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("zipflm-perf", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		baselineOut = fs.String("baseline", "", "write a baseline with host metadata to this path from the input files")
		diffBase    = fs.String("diff", "", "diff the input files against this baseline; exit 2 on regression")
		threshold   = fs.Float64("threshold", 0.15, "base allowed relative delta before a known-direction metric regresses (noise spread can widen it)")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	inputs := fs.Args()
	if len(inputs) == 0 || (*baselineOut != "" && *diffBase != "") {
		fmt.Fprintln(errOut, "usage: zipflm-perf [-baseline OUT | -diff BASELINE [-threshold 0.15]] input.txt ...")
		return 1
	}

	col := newCollection()
	for _, path := range inputs {
		if err := col.parseFile(path); err != nil {
			fmt.Fprintf(errOut, "zipflm-perf: %s: %v\n", path, err)
			return 1
		}
	}
	cur := col.reduce()
	if len(cur) == 0 {
		fmt.Fprintln(errOut, "zipflm-perf: no metrics found in inputs")
		return 1
	}

	switch {
	case *baselineOut != "":
		for _, name := range sortedNames(cur) {
			if v := cur[name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
				fmt.Fprintf(errOut, "zipflm-perf: %s is %v: a baseline records finite values only\n", name, v)
				return 1
			}
		}
		host := telemetry.CollectBuildInfo()
		b := Baseline{Created: time.Now().UTC().Truncate(time.Second), Host: &host, Metrics: cur}
		buf, err := json.MarshalIndent(&b, "", "  ")
		if err != nil {
			fmt.Fprintf(errOut, "zipflm-perf: %v\n", err)
			return 1
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*baselineOut, buf, 0o644); err != nil {
			fmt.Fprintf(errOut, "zipflm-perf: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "baseline: %d metrics → %s\n  host: %s\n", len(cur), *baselineOut, hostLine(&host))
		return 0

	case *diffBase != "":
		buf, err := os.ReadFile(*diffBase)
		if err != nil {
			fmt.Fprintf(errOut, "zipflm-perf: %v\n", err)
			return 1
		}
		var base Baseline
		if err := json.Unmarshal(buf, &base); err != nil {
			fmt.Fprintf(errOut, "zipflm-perf: %s: %v\n", *diffBase, err)
			return 1
		}
		rows := diff(&base, cur, *threshold)

		fmt.Fprintf(out, "baseline: %s (%s)\n", *diffBase, hostLine(base.Host))
		if warn := hostMismatch(base.Host); warn != "" {
			fmt.Fprintf(out, "note: %s\n", warn)
		}
		tab := metrics.NewTable("perf diff:", "metric", "unit", "baseline", "current", "delta", "allowed", "verdict")
		regressions, gated := 0, 0
		for _, r := range rows {
			switch r.verdict {
			case vRegressed:
				regressions++
				gated++
			case vOK, vImproved:
				gated++
			}
			baseS, curS, deltaS, allowedS := "-", "-", "-", "-"
			if r.verdict != vNoBaseline {
				baseS = formatMetric(r.base.Value)
			}
			if r.verdict != vGone {
				curS = formatMetric(r.cur.Value)
			}
			if r.verdict != vNoBaseline && r.verdict != vGone {
				deltaS = fmt.Sprintf("%+.1f%%", 100*r.rel)
			}
			if r.allowed > 0 {
				allowedS = fmt.Sprintf("±%.0f%%", 100*r.allowed)
			}
			tab.AddRow(r.name, r.unit, baseS, curS, deltaS, allowedS, r.verdict)
		}
		fmt.Fprint(out, tab)
		fmt.Fprintf(out, "gated %d metric(s), %d regression(s)\n", gated, regressions)
		if regressions > 0 {
			fmt.Fprintf(out, "REGRESSION: %d metric(s) beyond their allowed delta\n", regressions)
			return 2
		}
		fmt.Fprintln(out, "no regression")
		return 0

	default:
		// Extraction mode: list what the inputs contain.
		tab := metrics.NewTable("extracted metrics:", "metric", "unit", "value", "runs", "spread")
		for _, name := range sortedNames(cur) {
			m := cur[name]
			tab.AddRow(name, m.Unit, formatMetric(m.Value), strconv.Itoa(m.N), fmt.Sprintf("%.1f%%", 100*m.Spread))
		}
		fmt.Fprint(out, tab)
		return 0
	}
}

// sortedNames returns the metric names of cur in order.
func sortedNames(cur map[string]Metric) []string {
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// hostMismatch warns when the diffing host differs from the baseline's in
// a way that makes absolute numbers incomparable.
func hostMismatch(base *telemetry.BuildInfo) string {
	if base == nil {
		return ""
	}
	cur := telemetry.CollectBuildInfo()
	var diffs []string
	if base.GOMAXPROCS != cur.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("gomaxprocs %d→%d", base.GOMAXPROCS, cur.GOMAXPROCS))
	}
	if base.NumCPU != cur.NumCPU {
		diffs = append(diffs, fmt.Sprintf("numcpu %d→%d", base.NumCPU, cur.NumCPU))
	}
	if base.Go != cur.Go {
		diffs = append(diffs, fmt.Sprintf("go %s→%s", base.Go, cur.Go))
	}
	if base.GOOS != cur.GOOS || base.GOARCH != cur.GOARCH {
		diffs = append(diffs, fmt.Sprintf("platform %s/%s→%s/%s", base.GOOS, base.GOARCH, cur.GOOS, cur.GOARCH))
	}
	if len(diffs) == 0 {
		return ""
	}
	return "host differs from baseline (" + strings.Join(diffs, ", ") + "); absolute deltas may reflect the machine, not the code"
}

// formatMetric renders a value compactly without losing precision where
// it matters.
func formatMetric(v float64) string {
	switch {
	case v == float64(int64(v)) && math.Abs(v) < 1e15:
		return strconv.FormatInt(int64(v), 10)
	case math.Abs(v) >= 100:
		return strconv.FormatFloat(v, 'f', 1, 64)
	default:
		return strconv.FormatFloat(v, 'g', 6, 64)
	}
}
