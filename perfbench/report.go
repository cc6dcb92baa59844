package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// report is the full run's result file (-out) and -compare's input.
type report struct {
	Schema    string           `json:"schema"`
	Seed      uint64           `json:"seed"`
	Seconds   int              `json:"seconds"`
	GoVersion string           `json:"go_version"`
	CPUs      int              `json:"cpus"`
	Workloads []workloadReport `json:"workloads"`
}

const reportSchema = "globedoc-benchmark/1"

// workloadReport is one workload's row: the reported value of every
// end-to-end metric (the median of the repetitions; pooled samples
// where the workload says so), each repetition's own values, and the
// per-layer metrics when the run was traced.
type workloadReport struct {
	Name      string         `json:"name"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Samples   map[string]int `json:"samples"`
	Metrics   metrics        `json:"metrics"`
	Reps      []metrics      `json:"reps"`
	Problems  []string       `json:"problems,omitempty"`
	Notes     []string       `json:"notes,omitempty"`
	Layers    metrics        `json:"layers,omitempty"`
}

// child runs one workload in a child process of this same binary, so a
// workload's heap, GC pacing and goroutines end with it, and reads the
// complete result it leaves in a file.
func child(ctx context.Context, o options, workload string, trace bool, into any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(o.outDir, "run-*.json")
	if err != nil {
		return err
	}
	detail := f.Name()
	defer os.Remove(detail)
	if err := f.Close(); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, exe,
		"-workload", workload,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds),
		"-trace="+strconv.FormatBool(trace),
		"-keys", o.keysDir, "-outdir", o.outDir, "-detail", detail)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s child: %w\n%s", workload, err, out)
	}
	data, err := os.ReadFile(detail)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, into)
}

// reps is how many times the full run repeats each workload; reported
// values are the repetitions' medians.
const reps = 3

// fullRun is the benchmark with no -workload: every workload, reps
// times, interleaved A B C D A B C D … so slow drift of the machine
// spreads over all of them, each repetition in its own process.
func fullRun(ctx context.Context, o options) error {
	runs := make(map[string][]*runResult)
	for rep := 1; rep <= reps; rep++ {
		for _, sp := range specs {
			fmt.Printf("repetition %d/%d  %-13s ", rep, reps, sp.name)
			res := &runResult{}
			if err := child(ctx, o, sp.name, false, res); err != nil {
				fmt.Println("FAILED")
				return err
			}
			fmt.Printf("%d operations, %d failed\n", res.Attempted, res.Failed)
			runs[sp.name] = append(runs[sp.name], res)
		}
	}
	rep := report{
		Schema: reportSchema, Seed: o.seed, Seconds: o.seconds,
		GoVersion: runtime.Version(), CPUs: runtime.NumCPU(),
	}
	for _, sp := range specs {
		rep.Workloads = append(rep.Workloads, aggregate(sp, runs[sp.name]))
	}
	if o.trace {
		// One traced run measures every layer and replays every workload;
		// the workload it is named after only selects its JSON line.
		fmt.Println("traced run")
		var layers layerReport
		if err := child(ctx, o, specs[0].name, true, &layers); err != nil {
			return err
		}
		for i, sp := range specs {
			rep.Workloads[i].Layers = layers.of(sp.name)
		}
	}

	fmt.Println()
	failed := false
	for _, w := range rep.Workloads {
		printMetrics(os.Stdout, w.Name, w.Metrics)
		fmt.Printf("%s: %d attempted, %d failed; samples per repetition %v\n", w.Name, w.Attempted, w.Failed, w.Samples)
		for _, p := range w.Problems {
			fmt.Printf("%s: CHECK FAILED: %s\n", w.Name, p)
		}
		for _, n := range w.Notes {
			fmt.Printf("%s: note: %s\n", w.Name, n)
		}
		failed = failed || w.Failed > 0 || len(w.Problems) > 0
		if w.Layers != nil {
			printMetrics(os.Stdout, w.Name, w.Layers)
		}
		fmt.Println()
	}
	if o.out != "" {
		if err := writeJSON(o.out, rep); err != nil {
			return err
		}
		fmt.Println("results written to", o.out)
	}
	if failed {
		return errors.New("operations failed or cross-checks did not hold; the numbers above do not describe the workloads")
	}
	return nil
}

// aggregate reduces a workload's repetitions to its reported row.
func aggregate(sp spec, runs []*runResult) workloadReport {
	w := workloadReport{Name: sp.name, Samples: runs[0].Samples, Notes: runs[0].Notes, Metrics: metrics{}}
	for _, r := range runs {
		w.Attempted += r.Attempted
		w.Failed += r.Failed
		w.Problems = append(w.Problems, r.Problems...)
		w.Reps = append(w.Reps, r.Metrics)
	}
	for name, first := range runs[0].Metrics {
		values := make([]float64, len(runs))
		for i, r := range runs {
			values[i] = r.Metrics[name].Value
		}
		w.Metrics.set(name, median(values), first.Unit)
	}
	if sp.pooled {
		poolPages(&w, runs)
	}
	return w
}

// poolPages recomputes a latency-bound workload's percentiles over the
// samples of all repetitions together: one repetition of wan-page has
// ~36 page loads, too few for a p90 with ten samples beyond it, and its
// distribution does not move between repetitions (it is sleep-bound).
func poolPages(w *workloadReport, runs []*runResult) {
	var page, http, https []float64
	for _, r := range runs {
		page = append(page, r.PageMs...)
		http = append(http, r.HTTPMs...)
		https = append(https, r.HTTPSMs...)
	}
	page = sortedCopy(page)
	w.Samples = map[string]int{"fetch": len(page), "page": len(page), "baseline": len(http), "pooled_from": len(runs)}
	w.Notes = nil
	if beyond(len(page), 0.90) < minBeyond {
		w.Notes = []string{tooFewBeyond(len(page))}
	}
	p50 := percentile(page, 0.50)
	// The client's one operation is the page, so fetch_* are the same
	// distribution.
	w.Metrics.set("fetch_p50_ms", p50, unitMs)
	w.Metrics.set("fetch_p95_ms", percentile(page, 0.95), unitMs)
	w.Metrics.set("fetch_p99_ms", percentile(page, 0.99), unitMs)
	w.Metrics.set("page_load_p50_ms", p50, unitMs)
	w.Metrics.set("page_load_p90_ms", percentile(page, 0.90), unitMs)
	w.Metrics.set("vs_http_ratio", p50/median(http), unitRatio)
	w.Metrics.set("vs_https_ratio", p50/median(https), unitRatio)
}

// --- -compare ----------------------------------------------------------------

type verdict int

const (
	withinBound verdict = iota
	better
	worseBeyondBound
)

func (v verdict) String() string {
	return [...]string{"within bound", "better", "WORSE BEYOND BOUND"}[v]
}

// judge compares a candidate's value with the baseline's under bound.
// worsening is the share of the baseline by which the candidate is worse
// (negative when it is better).
func judge(m e2eMetric, bound, base, cand float64) (v verdict, worsening float64) {
	if m.name == "failed_share" {
		// Expected 0; a share cannot be taken of 0, and any rise counts.
		switch {
		case cand > base:
			return worseBeyondBound, cand - base
		case cand < base:
			return better, cand - base
		}
		return withinBound, 0
	}
	worsening = (cand - base) / base
	if m.higherBetter {
		worsening = -worsening
	}
	switch {
	case worsening > bound:
		return worseBeyondBound, worsening
	case worsening < -bound:
		return better, worsening
	}
	return withinBound, worsening
}

var errRegression = errors.New("candidate is worse than the baseline beyond a metric's bound")

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, reportSchema)
	}
	return &r, nil
}

// compareFiles is -compare: it judges every (workload, metric) pairing
// the metric is judged on and fails on any regression.
func compareFiles(out io.Writer, paths []string) error {
	if len(paths) != 2 {
		return errors.New("-compare needs two result files: baseline, then candidate")
	}
	base, err := loadReport(paths[0])
	if err != nil {
		return err
	}
	cand, err := loadReport(paths[1])
	if err != nil {
		return err
	}
	if compareReports(out, base, cand) > 0 {
		return errRegression
	}
	return nil
}

// compareReports prints one line per judged pairing and returns how many
// were worse beyond their bound.
func compareReports(out io.Writer, base, cand *report) (regressions int) {
	if base.Seed != cand.Seed || base.Seconds != cand.Seconds {
		fmt.Fprintf(out, "note: run shapes differ (seed %d/%d, seconds %d/%d)\n", base.Seed, cand.Seed, base.Seconds, cand.Seconds)
	}
	fmt.Fprintf(out, "%-13s %-30s %14s %14s %9s %7s  %s\n", "workload", "metric", "baseline", "candidate", "worse by", "bound", "verdict")
	for _, bw := range base.Workloads {
		var cw *workloadReport
		for i := range cand.Workloads {
			if cand.Workloads[i].Name == bw.Name {
				cw = &cand.Workloads[i]
			}
		}
		if cw == nil {
			fmt.Fprintf(out, "%-13s missing from the candidate\n", bw.Name)
			regressions++
			continue
		}
		for _, m := range e2eMetricList {
			b, inBase := bw.Metrics[m.name]
			c, inCand := cw.Metrics[m.name]
			if !inBase || !inCand {
				continue
			}
			if !m.judgedFor(bw.Name) {
				if m.gated {
					fmt.Fprintf(out, "%-13s %-30s %14.6g %14.6g %9s %7s  not judged here\n", bw.Name, m.name, b.Value, c.Value, "", "")
				}
				continue
			}
			bound := m.boundOn(bw.Name)
			v, worsening := judge(m, bound, b.Value, c.Value)
			if v == worseBeyondBound {
				regressions++
			}
			fmt.Fprintf(out, "%-13s %-30s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
				bw.Name, m.name, b.Value, c.Value, 100*worsening, 100*bound, v)
		}
	}
	return regressions
}
