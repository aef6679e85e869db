// Command zipflm-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	zipflm-bench -list
//	zipflm-bench -exp tab3
//	zipflm-bench -exp fig6,weakscale
//	zipflm-bench -exp all [-quick] [-seed 42]
//	zipflm-bench -exp weakscale -json BENCH_weakscale.json
//
// -list prints the registered experiment ids; an unknown -exp id fails
// before anything runs and prints the same enumeration.
//
// Every experiment prints paper-reported values alongside the values this
// reproduction measures or models, so discrepancies are visible in place.
// With -json, the same reports are additionally written as machine-readable
// JSON (experiment id, table headers/rows carrying the metrics — predicted
// times, wire bytes — plus notes), so performance trajectories can be
// tracked across commits as BENCH_*.json artifacts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"zipflm/internal/experiments"
	"zipflm/internal/telemetry"
	"zipflm/internal/tensor"
)

// jsonTable is one experiment table in machine-readable form.
type jsonTable struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Units   []string   `json:"units,omitempty"`
	Rows    [][]string `json:"rows"`
}

// jsonReport mirrors experiments.Report for serialization.
type jsonReport struct {
	ID     string      `json:"id"`
	Title  string      `json:"title"`
	Tables []jsonTable `json:"tables"`
	Notes  []string    `json:"notes"`
}

// jsonOutput is the top-level -json document. Host metadata (go version,
// GOMAXPROCS, CPU count, commit) rides along so a checked-in BENCH_*.json
// records where its numbers came from — zipflm-perf reads the same shape
// when diffing runs across machines.
type jsonOutput struct {
	Seed    uint64              `json:"seed"`
	Quick   bool                `json:"quick"`
	Host    telemetry.BuildInfo `json:"host"`
	Reports []jsonReport        `json:"reports"`
}

func toJSONReport(rep *experiments.Report) jsonReport {
	out := jsonReport{ID: rep.ID, Title: rep.Title, Notes: rep.Notes}
	for _, t := range rep.Tables {
		out.Tables = append(out.Tables, jsonTable{
			Title:   t.Title,
			Headers: t.Headers(),
			Units:   t.Units(),
			Rows:    t.Rows(),
		})
	}
	return out
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id(s) to run, comma-separated, or 'all'")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		quick    = flag.Bool("quick", false, "shrink training-based experiments for a fast smoke run")
		seed     = flag.Uint64("seed", 42, "reproducibility seed")
		jsonPath = flag.String("json", "", "also write machine-readable results to this path")
		workers  = flag.Int("workers", 0, "goroutines per matmul in training-based experiments (0: ZIPFLM_WORKERS or serial; results identical at any value)")
	)
	// -trace and -flight reach the simulated-cluster experiments; the
	// flight recorder is off unless asked for.
	var observe telemetry.Options
	observe.RegisterFlags(flag.CommandLine, false)
	flag.Parse()

	if *workers > 0 {
		tensor.SetDefaultWorkers(*workers)
	}

	if *list {
		width := 0
		for _, id := range experiments.IDs() {
			if len(id) > width {
				width = len(id)
			}
		}
		for _, id := range experiments.IDs() {
			fmt.Printf("%-*s %s\n", width, id, experiments.Title(id))
		}
		return
	}

	obs, err := telemetry.Start("zipflm-bench", observe)
	if err != nil {
		fmt.Fprintf(os.Stderr, "zipflm-bench: %v\n", err)
		os.Exit(1)
	}
	opts := experiments.Options{Quick: *quick, Seed: *seed, Trace: obs.Tracer, Flight: obs.Flight}
	ids := experiments.IDs()
	if *exp != "all" {
		// Validate every requested id before running anything, so a typo
		// late in a comma-separated list cannot waste the earlier runs —
		// and the error enumerates what is available.
		known := make(map[string]bool, len(ids))
		for _, id := range ids {
			known[id] = true
		}
		ids = nil
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			if id == "all" {
				ids = append(ids, experiments.IDs()...)
				continue
			}
			if !known[id] {
				fmt.Fprintf(os.Stderr, "zipflm-bench: unknown experiment %q; registered experiments are:\n", id)
				for _, k := range experiments.IDs() {
					fmt.Fprintf(os.Stderr, "  %s\n", k)
				}
				os.Exit(1)
			}
			ids = append(ids, id)
		}
		if len(ids) == 0 {
			fmt.Fprintln(os.Stderr, "zipflm-bench: -exp named no experiments (use -list to see ids)")
			os.Exit(1)
		}
	}
	out := jsonOutput{Seed: *seed, Quick: *quick, Host: telemetry.CollectBuildInfo()}
	for _, id := range ids {
		rep, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zipflm-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(rep)
		out.Reports = append(out.Reports, toJSONReport(rep))
	}
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "zipflm-bench: encoding json: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "zipflm-bench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "zipflm-bench: wrote %d report(s) to %s\n", len(out.Reports), *jsonPath)
	}
	if err := obs.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "zipflm-bench: %v\n", err)
		os.Exit(1)
	}
}
