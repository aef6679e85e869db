// Command benchmark is the repository's benchmark: four workloads (two
// training, two serving), the end-to-end metrics a user of the trainer or the
// server sees, and a traced run that explains them layer by layer. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	bash benchmark/run.sh --workload train_word --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload all --strict
//	bash benchmark/run.sh --workload all --selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"text/tabwriter"
	"time"

	"zipflm/internal/telemetry"
)

const (
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 20
	// outDir holds checkpoints while a run lasts and the traced run's spans;
	// relative to the repository root, where run.sh starts the binary.
	outDir = "benchmark/out"
)

// scale sizes a run. seconds is the measured time on the reference host; it
// is divided into segments of a fixed operation count each. The traced run
// alternates untraced reference and traced twin over tracedSegments. Set-up
// runs setupReps times, and on until setupBudget is spent (at most five
// times setupReps); setup_s is the median.
type scale struct {
	seconds                  float64
	segments, tracedSegments int
	setupReps                int
	setupBudget              time.Duration
}

func fullScale(seconds float64) scale {
	return scale{seconds: seconds, segments: 10, tracedSegments: 6, setupReps: 5, setupBudget: 1500 * time.Millisecond}
}

// ladderRung is one ladder rung's time budget: the whole ladder (~25 rungs)
// takes about a fifth of the run.
func (sc scale) ladderRung() time.Duration {
	return time.Duration(sc.seconds / 5 / 25 * float64(time.Second))
}

// workload is one named set of inputs. A run is setup, warmup, the segments
// in order, then finish.
type workload interface {
	name() string
	setup() error
	warmup() error
	segment(i int) error
	finish() (*report, error)
	spans() *recorder // nil on an untraced run
	close()
}

func workloadNames() []string {
	var names []string
	for _, s := range trainSpecs {
		names = append(names, s.name)
	}
	for _, s := range serveSpecs {
		names = append(names, s.name)
	}
	return names
}

func newWorkload(name string, seed uint64, sc scale, traced bool, tmp string) (workload, error) {
	for _, s := range trainSpecs {
		if s.name == name {
			return newTrainWL(s, seed, sc, traced, tmp), nil
		}
	}
	for _, s := range serveSpecs {
		if s.name == name {
			return newServeWL(s, seed, sc, traced), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// hostStamp says which binary on which host produced the numbers.
type hostStamp struct {
	telemetry.BuildInfo
	Time string `json:"time"`
}

func stamp() hostStamp {
	return hostStamp{BuildInfo: telemetry.CollectBuildInfo(), Time: time.Now().UTC().Format(time.RFC3339)}
}

// repeatSetup times build several times and appends the seconds, on the
// reference host's clock (each build is bracketed by two host probes), to
// out; the last build is the one the run uses. The first build is not timed:
// it pays the process's cold start (heap growth, page faults), which made
// setup_s 40-60% slower in a fresh process than in a warm one. The traced run
// reports no setup_s and builds once.
func (sc scale) repeatSetup(traced bool, out *[]float64, build func(i int) error) error {
	if traced {
		return build(0)
	}
	if err := build(0); err != nil {
		return err
	}
	start := time.Now()
	slow0 := hostSlowdown()
	for i := 1; i <= 5*sc.setupReps; i++ {
		t0 := time.Now()
		if err := build(i); err != nil {
			return err
		}
		d := time.Since(t0).Seconds()
		slow1 := hostSlowdown()
		*out = append(*out, d/((slow0+slow1)/2))
		slow0 = slow1
		if i >= sc.setupReps && time.Since(start) > sc.setupBudget {
			break
		}
	}
	return nil
}

// procMetrics reads the process counters at the end of a traced run.
func procMetrics(got values) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	got.set("proc.heap_sys_mb", float64(m.HeapSys)/1e6, 1)
	got.set("proc.gc_pause_ms", float64(m.PauseTotalNs)/1e6, int(m.NumGC))
	got.set("proc.gc_cycles", float64(m.NumGC), 1)
}

// runSet runs the named workloads once. With several workloads the segments
// are round-robined (A1 B1 C1 D1 A2 …), so a burst of host interference lands
// on one segment of each workload instead of on one workload.
func runSet(names []string, seed uint64, sc scale, traced bool, out string, log io.Writer) ([]*report, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(out, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var wls []workload
	defer func() {
		for _, w := range wls {
			w.close()
		}
	}()
	for _, name := range names {
		w, err := newWorkload(name, seed, sc, traced, tmp)
		if err != nil {
			return nil, err
		}
		wls = append(wls, w)
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		if err := w.warmup(); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", name, err)
		}
	}
	n := sc.segments
	if traced {
		n = sc.tracedSegments
	}
	for i := 0; i < n; i++ {
		for _, w := range wls {
			t0 := time.Now()
			if err := w.segment(i); err != nil {
				return nil, err
			}
			fmt.Fprintf(log, "# %s segment %d/%d: %.2fs\n", w.name(), i+1, n, time.Since(t0).Seconds())
		}
	}
	var reps []*report
	for _, w := range wls {
		rep, err := w.finish()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name(), err)
		}
		reps = append(reps, rep)
	}
	// Spans go to disk only now, after every measurement.
	for _, w := range wls {
		if rec := w.spans(); rec != nil {
			path, err := rec.write(out, seed)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(log, "# %s: spans written to %s\n", w.name(), path)
		}
	}
	return reps, nil
}

// printReport writes every metric by name with its unit and sample count,
// then the gates.
func printReport(w io.Writer, rep *report) {
	kind := "end-to-end (untraced)"
	if rep.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %gs  %s ==\n", rep.Workload, rep.Seed, rep.Seconds, kind)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	for _, m := range rep.Metrics {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\tn=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	for _, m := range rep.Detail {
		fmt.Fprintf(tw, "  (%s)\t%.6g\t%s\tn=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	failFrac := float64(rep.Failed) / float64(max(rep.Attempted, 1))
	fmt.Fprintf(tw, "fail_frac\t%.6g\tfrac\tattempted=%d ok=%d failed=%d\n", failFrac, rep.Attempted, rep.Attempted-rep.Failed, rep.Failed)
	tw.Flush()
	for _, g := range rep.Gates {
		verdict := "ok  "
		switch {
		case !g.OK && g.Regime:
			verdict = "WARN"
		case !g.OK:
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "%s %s: %s\n", verdict, g.Name, g.Detail)
	}
}

// resultLine is the run contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func lineOf(rep *report) resultLine {
	l := resultLine{Correct: rep.correct(), Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]resultValue{}}
	for _, m := range rep.Metrics {
		l.Metrics[m.Name] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	return l
}

// fullOutput is what --json writes.
type fullOutput struct {
	Host    hostStamp `json:"host"`
	Reports []*report `json:"reports"`
}

// selfcheck runs the untraced set twice and compares every end-to-end metric
// against its bound; count metrics must repeat exactly.
func selfcheck(names []string, seed uint64, sc scale, out, log io.Writer) (bool, error) {
	var runs [2][]*report
	for i := range runs {
		var err error
		if runs[i], err = runSet(names, seed, sc, false, outDir, log); err != nil {
			return false, err
		}
	}
	ok := true
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\trun 1\trun 2\trel diff\tbound\t\n")
	for w := range runs[0] {
		a, b := runs[0][w], runs[1][w]
		if !a.correct() || !b.correct() || !a.inRegime() || !b.inRegime() || a.Failed != b.Failed {
			ok = false
		}
		for i, d := range endToEnd {
			x, y := a.Metrics[i].Value, b.Metrics[i].Value
			diff := math.Abs(x-y) / math.Abs(x)
			bound, verdict := d.bound, "ok"
			if d.fam == famTrain {
				bound = 0 // a count: the same seed must give the same value
			}
			if diff > bound {
				verdict, ok = "BREACH", false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.4f\t%.2f\t%s\n", a.Workload, d.name, x, y, diff, bound, verdict)
		}
	}
	tw.Flush()
	return ok, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "all", "workload name, or all")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "measured seconds per run on the reference host (sets the fixed operation counts)")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	jsonPath := fs.String("json", "", "also write the full report (host stamp, details, gates) to this file")
	self := fs.Bool("selfcheck", false, "run the untraced set twice and compare against the bounds (implies --strict)")
	strict := fs.Bool("strict", false, "exit 1 when a regime assertion fails, not only when an output is wrong")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: --seconds must be positive, --trace 0 or 1, and no positional arguments")
		return 2
	}
	names := []string{*wl}
	if *wl == "all" {
		names = workloadNames()
	}
	// The program's own concurrency (rank goroutines, one batcher, tiled
	// kernels) gets at most four cores; the collector runs at its default.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	host := stamp()
	fmt.Fprintf(stdout, "# host: go %s %s/%s numcpu %d gomaxprocs %d commit %s\n",
		host.Go, host.GOOS, host.GOARCH, host.NumCPU, runtime.GOMAXPROCS(0), host.Commit)

	if *self {
		ok, err := selfcheck(names, *seed, fullScale(*seconds), stdout, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}

	reps, err := runSet(names, *seed, fullScale(*seconds), *trace == 1, outDir, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	for _, rep := range reps {
		printReport(stdout, rep)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(fullOutput{Host: host, Reports: reps}, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	code := 0
	fmt.Fprintln(stdout)
	for _, rep := range reps {
		if !rep.correct() || (*strict && !rep.inRegime()) {
			code = 1
		}
		line, err := json.Marshal(lineOf(rep))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if len(reps) > 1 {
			fmt.Fprintf(stdout, "%s\t", rep.Workload)
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}
