// Command benchmark regenerates the paper's evaluation tables and
// figures on the simulated testbed and evaluates the acceptance gates of
// the optimisations built since. The experiments are the rows of
// internal/bench.Experiments; DESIGN.md §3 indexes them and states each
// gate's claim, EXPERIMENTS.md has the measured-vs-paper results.
//
//	benchmark -experiment all -json results.json
//	benchmark -experiment fig6 -scale 0.5 -iterations 10
//	benchmark -experiment cache -disable-vcache
//
// A run without -scale / -iterations / -concurrency uses each row's own
// configuration, the one its gate is defined at. Every run prints the
// human tables, then one `gate <experiment>: <verdict>` line per gated
// experiment it ran, and exits non-zero if a gate failed — after
// writing the -json report (schema "globedoc-bench/1", see
// internal/bench.Report) when one was asked for.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"globedoc/internal/bench"
)

func main() {
	names := make([]string, len(bench.Experiments))
	for i, e := range bench.Experiments {
		names[i] = e.Name
	}
	var (
		experiment  = flag.String("experiment", "all", strings.Join(names, " | ")+" | all")
		scale       = flag.Float64("scale", 0, "time scale for simulated link delays, 1.0 = the paper's latencies (default: the experiment's own)")
		iterations  = flag.Int("iterations", 0, "samples per measured point (default: the experiment's own)")
		concurrency = flag.Int("concurrency", 0, "closed-loop workers for the concurrent experiment (default: the experiment's own)")
		noVCache    = flag.Bool("disable-vcache", false, "run the cache experiment without the verified-content cache (ablation)")
		jsonOut     = flag.String("json", "", "also write a machine-readable report to this file")
	)
	flag.Parse()
	// configure lays the flags that were given over a row's configuration.
	configure := func(cfg bench.Config) bench.Config {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "scale":
				cfg.TimeScale = *scale
			case "iterations":
				cfg.Iterations = *iterations
			case "concurrency":
				cfg.Concurrency = *concurrency
			}
		})
		cfg.DisableVCache = *noVCache
		return cfg
	}
	if err := run(*experiment, configure, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(experiment string, configure func(bench.Config) bench.Config, jsonOut string) error {
	selected, err := bench.Select(experiment)
	if err != nil {
		return err
	}
	start := time.Now()
	// Meta records the first row's configuration; the table says which
	// rows pin a different one.
	report := bench.NewReport(configure(selected[0].Config), start)
	for _, e := range selected {
		table, err := e.Run(configure(e.Config), report)
		if err != nil {
			return err
		}
		fmt.Println(table)
	}
	if jsonOut != "" {
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf); err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("\n(machine-readable report written to %s)\n", jsonOut)
	}
	fmt.Printf("\n(total benchmark wall time: %s)\n", time.Since(start).Round(time.Millisecond))

	var failed []string
	for _, e := range selected {
		if e.Gate == nil {
			continue
		}
		verdict, err := e.Gate(report)
		switch {
		case err == nil:
			fmt.Printf("gate %s: %s\n", e.Name, verdict)
		case errors.Is(err, bench.ErrNotApplicable):
			fmt.Printf("gate %s: %v\n", e.Name, err)
		default:
			fmt.Printf("gate %s: FAILED: %v\n", e.Name, err)
			failed = append(failed, e.Name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("acceptance gate failed: %s", strings.Join(failed, ", "))
	}
	return nil
}
