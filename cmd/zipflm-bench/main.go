// Command zipflm-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	zipflm-bench -list
//	zipflm-bench -exp tab3
//	zipflm-bench -exp fig6,weakscale
//	zipflm-bench -exp all [-quick] [-seed 42]
//
// -list prints the registered experiment ids; an unknown -exp id fails
// before anything runs and prints the same enumeration.
//
// Every experiment prints paper-reported values alongside the values this
// reproduction measures or models, so discrepancies are visible in place.
// The text report on stdout is the only output; TestTablesLedger in
// internal/experiments pins each report's quick text.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"zipflm/internal/experiments"
	"zipflm/internal/telemetry"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment id(s) to run, comma-separated, or 'all'")
		list  = flag.Bool("list", false, "list experiment ids and exit")
		quick = flag.Bool("quick", false, "shrink training-based experiments for a fast smoke run")
		seed  = flag.Uint64("seed", 42, "reproducibility seed")
	)
	// -trace and -flight reach the simulated-cluster experiments; the
	// flight recorder is off unless asked for.
	var observe telemetry.Options
	observe.RegisterFlags(flag.CommandLine, false)
	flag.Parse()

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
	for _, id := range ids {
		rep, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zipflm-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(rep)
	}
	if err := obs.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "zipflm-bench: %v\n", err)
		os.Exit(1)
	}
}
