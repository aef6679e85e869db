// Command zipflm-trace analyzes Chrome-format traces written by zipflm's
// telemetry tracer (zipflm-train -trace, zipflm-serve -trace,
// zipflm-bench -trace) on the virtual clock: the per-step critical path
// (compute, sync, and sync's wire and update time), collective-op totals
// and the top spans.
//
// Usage:
//
//	zipflm-trace [-top N] [-steps N] trace.json
//	zipflm-trace -diff baseline.json candidate.json
//
// Because the virtual clock is deterministic for a fixed seed, -diff of
// two same-seed runs prints an exactly-zero delta; any nonzero delta is a
// real behavioral change. Exit status: 0 on success, 1 on usage or parse
// errors, 2 when -diff detects a critical-path regression.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"zipflm/internal/traceview"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("zipflm-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	diff := fs.Bool("diff", false, "compare two traces (baseline candidate); exit 2 on regression")
	topN := fs.Int("top", 10, "show the top N spans by virtual duration (0 disables)")
	steps := fs.Int("steps", 12, "bound the per-step table (negative: all steps)")
	fs.Usage = func() {
		fmt.Fprintf(stderr,
			"usage: zipflm-trace [-top N] [-steps N] trace.json\n"+
				"       zipflm-trace -diff baseline.json candidate.json\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}

	if *diff {
		if fs.NArg() != 2 {
			fs.Usage()
			return 1
		}
		a, err := traceview.AnalyzeFile(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, "zipflm-trace:", err)
			return 1
		}
		b, err := traceview.AnalyzeFile(fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "zipflm-trace:", err)
			return 1
		}
		if traceview.WriteDiff(stdout, a, b) {
			return 2
		}
		return 0
	}

	if fs.NArg() != 1 {
		fs.Usage()
		return 1
	}
	tr, err := traceview.ParseFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "zipflm-trace:", err)
		return 1
	}
	a := traceview.Analyze(tr)
	traceview.WriteSummary(stdout, tr, a, traceview.SummaryOptions{TopN: *topN, MaxSteps: *steps})
	return 0
}
