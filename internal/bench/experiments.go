package bench

import (
	"errors"
	"fmt"

	"globedoc/internal/netsim"
)

// Experiment is one row of the experiment table: everything
// cmd/benchmark and the Makefile's bench-% rule know about an experiment.
type Experiment struct {
	// Name selects the row: benchmark -experiment Name, make bench-Name.
	Name string
	// Config is the run configuration the gate is defined at; a run uses
	// it unless -scale, -iterations or -concurrency say otherwise.
	Config Config
	// Run measures the experiment, files the result in the report and
	// returns the human-readable table.
	Run func(Config, *Report) (string, error)
	// Gate checks the acceptance conditions on a report Run has filed its
	// result in, returning the one-line verdict or the first condition
	// that failed; nil for the paper's figures, which are regenerated,
	// not gated. DESIGN.md §3 states each gate's claim.
	Gate func(*Report) (string, error)
}

// ErrNotApplicable is a Gate's answer for a run its claim is not about.
var ErrNotApplicable = errors.New("not applicable (ablation run)")

// paperConfig is the paper's latencies and the harness's default sample
// count; a gate is defined there unless its row says otherwise.
var paperConfig = Config{TimeScale: 1.0, Iterations: 5}

// Experiments is the experiment table, in the order -experiment all runs
// it.
var Experiments = []Experiment{
	{Name: "table1", Config: paperConfig, Run: func(cfg Config, _ *Report) (string, error) {
		return RunTable1(cfg.TimeScale), nil
	}},
	row("fig4", paperConfig, RunFig4, func(r *Report) **Fig4Result { return &r.Fig4 }, nil),
	fig5(5, netsim.AmsterdamSecondary),
	fig5(6, netsim.Paris),
	fig5(7, netsim.Ithaca),
	row("concurrent", Config{TimeScale: 1.0, Iterations: 5, Concurrency: 16}, RunConcurrentComparison,
		func(r *Report) **ConcurrentComparison { return &r.Concurrent }, (*ConcurrentComparison).gate),
	row("cache", paperConfig, RunCache, func(r *Report) **CacheResult { return &r.Cache }, (*CacheResult).gate),
	row("multiplex", paperConfig, RunMultiplex, func(r *Report) **MultiplexResult { return &r.Multiplex }, (*MultiplexResult).gate),
	row("traceoverhead", Config{TimeScale: 1.0, Iterations: 15}, RunTraceOverhead,
		func(r *Report) **TraceOverheadResult { return &r.TraceOverhead }, (*TraceOverheadResult).gate),
	row("placement", Config{TimeScale: 0.5, Iterations: 3}, RunPlacement,
		func(r *Report) **PlacementResult { return &r.Placement }, (*PlacementResult).gate),
	row("delta", paperConfig, RunDelta, func(r *Report) **DeltaResult { return &r.Delta }, (*DeltaResult).gate),
}

// row builds the table row of an experiment whose result has its own
// field in the report: slot points at the field, for Run to fill and
// Gate to read.
func row[T any, R interface {
	*T
	Format() string
}](name string, cfg Config, measure func(Config) (R, error), slot func(*Report) *R, gate func(R) (string, error)) Experiment {
	e := Experiment{Name: name, Config: cfg, Run: func(cfg Config, r *Report) (string, error) {
		res, err := measure(cfg)
		if err != nil {
			return "", err
		}
		*slot(r) = res
		return res.Format(), nil
	}}
	if gate != nil {
		e.Gate = func(r *Report) (string, error) {
			if res := *slot(r); res != nil {
				return gate(res)
			}
			return "", fmt.Errorf("report has no %s experiment", name)
		}
	}
	return e
}

// fig5 is the row for the paper's Figure 5, 6 or 7: the same comparison
// from another client site. The three share one list in the report.
func fig5(figure int, client string) Experiment {
	return Experiment{Name: fmt.Sprintf("fig%d", figure), Config: paperConfig, Run: func(cfg Config, r *Report) (string, error) {
		res, err := RunFig5(client, cfg)
		if err != nil {
			return "", err
		}
		r.Fig5 = append(r.Fig5, res)
		return res.Format(figure), nil
	}}
}

// Select returns the rows -experiment name runs: the one named, or every
// row for "all".
func Select(name string) ([]Experiment, error) {
	if name == "all" {
		return Experiments, nil
	}
	for _, e := range Experiments {
		if e.Name == name {
			return []Experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q", name)
}
