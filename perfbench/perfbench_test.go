package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

const testKeys = "testdata/keys"

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	cases := []struct {
		sorted []float64
		q      float64
		want   float64
	}{
		{hundred, 0.50, 50},
		{hundred, 0.95, 95},
		{hundred, 0.99, 99},
		{hundred, 1.00, 100},
		{hundred, 0.00, 1},
		{[]float64{7}, 0.95, 7},
		// 36 samples: p95 is the 35th — a measured value, never an
		// interpolation between the 34th and 35th.
		{hundred[:36], 0.95, 35},
		{[]float64{1, 2, 3, 4}, 0.50, 2},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.q); got != c.want {
			t.Errorf("percentile(n=%d, %v) = %v, want %v", len(c.sorted), c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples must be NaN")
	}
}

func TestP90NeedsTenSamplesBeyond(t *testing.T) {
	// The rule behind page_load_p90_ms: valid on wan-page's ~108 pooled
	// samples, not on one repetition's ~36.
	for _, c := range []struct{ n, beyond int }{
		{108, 10},
		{36, 3},
		{99, 9}, // ceil(0.9*99) = 90
		{100, 10},
	} {
		if got := beyond(c.n, 0.90); got != c.beyond {
			t.Errorf("beyond(%d, 0.90) = %d, want %d", c.n, got, c.beyond)
		}
	}
	// beyond counts what percentile leaves above its pick.
	sorted := make([]float64, 36)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if p90 := percentile(sorted, 0.90); sorted[len(sorted)-1]-p90 != float64(beyond(36, 0.90)) {
		t.Errorf("percentile picked %v of 1..36, beyond says %d above it", p90, beyond(36, 0.90))
	}
}

func TestMedianOfRepetitions(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{5.7, 5.1, 9.9}, 5.7}, // one slow repetition does not move the report
		{[]float64{4, 2}, 3},
		{[]float64{8}, 8},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.in...)
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		if !reflect.DeepEqual(in, c.in) {
			t.Errorf("median reordered its argument: %v", c.in)
		}
	}
}

func TestAggregateTakesMediansAndPoolsWanPage(t *testing.T) {
	rep := func(p50 float64, pages []float64) *runResult {
		r := &runResult{Attempted: 10, Samples: map[string]int{"fetch": len(pages)}, Metrics: metrics{}, PageMs: pages,
			HTTPMs: []float64{390, 400, 410}, HTTPSMs: []float64{500}}
		r.Metrics.set("fetch_p50_ms", p50, unitMs)
		return r
	}
	get, _ := findSpec("first-visit")
	w := aggregate(get, []*runResult{rep(0.9, nil), rep(0.6, nil), rep(0.7, nil)})
	if got := w.Metrics["fetch_p50_ms"].Value; got != 0.7 {
		t.Errorf("median of repetitions = %v, want 0.7", got)
	}
	if w.Attempted != 30 {
		t.Errorf("attempted = %d, want the sum 30", w.Attempted)
	}

	wan, _ := findSpec("wan-page")
	var a, b, c []float64
	for i := 0; i < 40; i++ {
		a, b, c = append(a, 100+float64(i)), append(b, 200+float64(i)), append(c, 300+float64(i))
	}
	w = aggregate(wan, []*runResult{rep(1, a), rep(2, b), rep(3, c)})
	// 120 pooled samples: p50 is the 60th (219), p90 the 108th (327).
	if got := w.Metrics["page_load_p50_ms"].Value; got != 219 {
		t.Errorf("pooled p50 = %v, want 219", got)
	}
	if got := w.Metrics["page_load_p90_ms"].Value; got != 327 {
		t.Errorf("pooled p90 = %v, want 327", got)
	}
	if got := w.Metrics["vs_http_ratio"].Value; got != 219.0/400 {
		t.Errorf("vs_http_ratio = %v, want pooled p50 / median of the pooled HTTP samples", got)
	}
	if len(w.Notes) != 0 || w.Samples["baseline"] != 9 {
		t.Errorf("120 samples support p90 and 9 baselines were pooled, got notes %v, samples %v", w.Notes, w.Samples)
	}
	w = aggregate(wan, []*runResult{rep(1, a)})
	if len(w.Notes) == 0 {
		t.Error("40 samples do not support p90: the report must say so")
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		// b and c overlap (parallel workers): the covered part is their
		// union, 40..70, not the sum of their lengths.
		{ID: 3, Parent: 1, Name: "b", Start: 40, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 50, End: 70},
		// d runs past its parent's end and is clipped to it.
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 120},
		{ID: 6, Parent: 2, Name: "leaf", Start: 12, End: 20},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 20 - 30 - 10, 2: 20 - 8, 3: 20, 4: 20, 5: 30, 6: 8}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	var rootSelf int64
	for _, lt := range byLayer(spans) {
		if lt.Name == "root" {
			rootSelf = lt.SelfNs
		}
	}
	if rootSelf != 40 {
		t.Errorf("byLayer root self = %d, want 40", rootSelf)
	}
	if got := selfSamples(spans, "a"); len(got) != 1 || got[0] != 0.012 {
		t.Errorf("selfSamples(a) = %v, want [0.012] µs", got)
	}
}

func TestTapRecordsExchangesAndParents(t *testing.T) {
	tp := newTap()
	tp.nextRequest()
	var resolve int
	tp.scope(spanCore, func() {
		resolve = tp.open(spanResolve, 0)
		tp.close(resolve)
	})
	spans, _ := tp.drain()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Req != 1 {
		t.Fatalf("resolve must hang off the open scope of request 1: %+v", spans)
	}
	// IDs keep counting across a drain, and closing a drained span is
	// harmless.
	tp.close(resolve)
	if id := tp.open(spanDial, 0); id != 3 {
		t.Errorf("first ID after draining two spans = %d, want 3", id)
	}
}

func TestJudge(t *testing.T) {
	const bound = 0.10
	lower := e2eMetric{name: "fetch_p50_ms"}
	higher := e2eMetric{name: "goodput_mb_per_s", higherBetter: true}
	failed := e2eMetric{name: "failed_share"}
	cases := []struct {
		m          e2eMetric
		base, cand float64
		want       verdict
	}{
		{lower, 100, 105, withinBound},
		{lower, 100, 110, withinBound}, // the bound itself is allowed
		{lower, 100, 111, worseBeyondBound},
		{lower, 100, 95, withinBound},
		{lower, 100, 80, better},
		{higher, 350, 330, withinBound},
		{higher, 350, 300, worseBeyondBound}, // a fall in a higher-is-better metric is the worsening
		{higher, 350, 400, better},
		{failed, 0, 0, withinBound},
		{failed, 0, 0.0001, worseBeyondBound}, // any rise, however small
		{failed, 0.01, 0, better},
	}
	for _, c := range cases {
		if got, _ := judge(c.m, bound, c.base, c.cand); got != c.want {
			t.Errorf("judge(%s, %v -> %v) = %v, want %v", c.m.name, c.base, c.cand, got, c.want)
		}
	}
}

func TestCompareJudgesEachMetricWhereItIsJudged(t *testing.T) {
	row := func(name string, v map[string]float64) workloadReport {
		w := workloadReport{Name: name, Metrics: metrics{}}
		for k, x := range v {
			w.Metrics.set(k, x, "")
		}
		return w
	}
	base := &report{Schema: reportSchema, Workloads: []workloadReport{
		row("first-visit", map[string]float64{"fetch_p50_ms": 0.35, "fetch_p95_ms": 0.65, "setup_s": 0.004, "failed_share": 0}),
		row("wan-page", map[string]float64{"page_load_p50_ms": 277, "vs_http_ratio": 0.80, "failed_share": 0}),
	}}
	same := &report{Schema: reportSchema, Workloads: []workloadReport{
		// fetch_p95_ms is printed on first-visit but judged only where it
		// holds still, and a set-up of milliseconds is not judged, so a
		// swing in either is no regression.
		row("first-visit", map[string]float64{"fetch_p50_ms": 0.37, "fetch_p95_ms": 0.95, "setup_s": 0.006, "failed_share": 0}),
		row("wan-page", map[string]float64{"page_load_p50_ms": 280, "vs_http_ratio": 0.81, "failed_share": 0}),
	}}
	var out bytes.Buffer
	if n := compareReports(&out, base, same); n != 0 {
		t.Errorf("within bounds on every judged pairing, got %d regressions:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "not judged here") {
		t.Errorf("a gated metric that is not judged on a workload must still be shown:\n%s", out.String())
	}
	worse := &report{Schema: reportSchema, Workloads: []workloadReport{
		row("first-visit", map[string]float64{"fetch_p50_ms": 0.48, "fetch_p95_ms": 0.65, "setup_s": 0.004, "failed_share": 0}),
		// +7 %: inside the CPU-time bound, outside wan-page's own 3 %.
		row("wan-page", map[string]float64{"page_load_p50_ms": 297, "vs_http_ratio": 0.86, "failed_share": 0.001}),
	}}
	out.Reset()
	if n := compareReports(&out, base, worse); n != 4 {
		t.Errorf("want 4 regressions (first-visit fetch_p50 +37%%, wan-page page_load +7%% and vs_http +7.5%%, failed_share rise), got %d:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "WORSE BEYOND BOUND") {
		t.Errorf("output must name the verdict:\n%s", out.String())
	}
	missing := &report{Schema: reportSchema, Workloads: same.Workloads[:1]}
	if n := compareReports(&out, base, missing); n == 0 {
		t.Error("a workload missing from the candidate must count as a regression")
	}
}

func TestCompareFilesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rep := report{Schema: reportSchema, Seed: defaultSeed, Seconds: 10, Workloads: []workloadReport{
		{Name: "bulk-stream", Metrics: metrics{"goodput_mb_per_s": {Value: 350, Unit: unitMBps}}},
	}}
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeJSON(a, rep); err != nil {
		t.Fatal(err)
	}
	rep.Workloads[0].Metrics.set("goodput_mb_per_s", 250, unitMBps)
	if err := writeJSON(b, rep); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compareFiles(&out, []string{a, a}); err != nil {
		t.Errorf("a file against itself: %v", err)
	}
	if err := compareFiles(&out, []string{a, b}); err != errRegression {
		t.Errorf("goodput 350 -> 250 must be a regression, got %v", err)
	}
	if err := compareFiles(&out, []string{a}); err == nil {
		t.Error("one file is not a comparison")
	}
}

func TestSpaceSeparatedBools(t *testing.T) {
	cases := []struct{ in, want []string }{
		// BENCHMARK.json's contract form.
		{[]string{"--workload", "wan-page", "--seed", "7", "--seconds", "10", "--trace", "0"},
			[]string{"--workload", "wan-page", "--seed", "7", "--seconds", "10", "--trace=0"}},
		{[]string{"-trace", "1", "-workload", "x"}, []string{"-trace=1", "-workload", "x"}},
		{[]string{"-trace"}, []string{"-trace"}},
		{[]string{"-trace", "-out", "a.json"}, []string{"-trace", "-out", "a.json"}},
		{[]string{"-seed", "1"}, []string{"-seed", "1"}}, // only the named flags
	}
	for _, c := range cases {
		if got := spaceSeparatedBools(c.in, "trace"); !reflect.DeepEqual(got, c.want) {
			t.Errorf("spaceSeparatedBools(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// smokeConfig is a fraction of a second of one workload at small size.
func smokeConfig(workload string) runConfig {
	return runConfig{
		workload: workload, seed: defaultSeed, keysDir: testKeys,
		warmup: 100 * time.Millisecond, window: 400 * time.Millisecond,
		setups: 1, small: true,
	}
}

// TestSmokeEveryWorkload keeps the benchmark compiling and correct under
// `go test -race -short ./...`: every workload runs briefly behind its
// tamper canary, every response is verified, and every gated metric
// comes out a usable number.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			res, err := runWorkload(context.Background(), smokeConfig(sp.name))
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d, problems %v, first error %q", res.Attempted, res.Failed, res.Problems, res.FirstErr)
			}
			for _, m := range gatedMetrics() {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
					t.Errorf("%s = %+v (present %v): every workload must report every gated metric as a positive number in %s", m.name, got, ok, m.unit)
				}
			}
			if got := res.Metrics["failed_share"].Value; got != 0 {
				t.Errorf("failed_share = %v", got)
			}
			if sp.name == "update-churn" && res.Samples["update_visible"] == 0 {
				t.Error("update-churn recorded no update_visible sample")
			}
			if _, ok := res.Metrics["vs_http_ratio"]; ok != (sp.name == "wan-page") {
				t.Errorf("vs_http_ratio reported: %v; it is wan-page's alone", ok)
			}
			if sp.name == "wan-page" && !(res.Metrics["vs_http_ratio"].Value > 0 && res.Metrics["vs_https_ratio"].Value > 0) {
				t.Errorf("vs_http_ratio %v, vs_https_ratio %v", res.Metrics["vs_http_ratio"], res.Metrics["vs_https_ratio"])
			}
		})
	}
}

// TestCanaryRefusedOnEveryFabric: the tamper canary is refused over both
// fabrics, and its deliberate security failure stays out of the counters
// the workloads cross-check against zero.
func TestCanaryRefusedOnEveryFabric(t *testing.T) {
	for name, build := range map[string]func() (*stack, error){
		"netsim": func() (*stack, error) { return newNetsimStack(0, now) },
		"tcp":    func() (*stack, error) { return newTCPStack(now) },
	} {
		t.Run(name, func(t *testing.T) {
			st, err := build()
			if err != nil {
				t.Fatal(err)
			}
			defer st.close()
			if err := st.runCanary(context.Background(), defaultSeed); err != nil {
				t.Fatalf("tamper canary: %v", err)
			}
			if n := st.tel.SecurityCheckFailures.Total(); n != 0 {
				t.Errorf("the canary's deliberate failure leaked into the deployment's counters (%d)", n)
			}
		})
	}
}

// countMetrics are the end-to-end metrics that are counts, not times:
// for one seed and one operation budget they must repeat.
var countMetrics = []string{"allocs_per_fetch", "alloc_bytes_per_payload_byte", "failed_share"}

// TestSameSeedSameRequestsSameCounts: two runs with one seed issue the
// identical request sequence and report identical counts.
func TestSameSeedSameRequestsSameCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	ops := map[string]int{"first-visit": 64, "bulk-stream": 192, "wan-page": 3, "update-churn": 3}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			run := func() (*runResult, []string) {
				var log []string
				cfg := smokeConfig(sp.name)
				cfg.ops, cfg.log = ops[sp.name], &log
				res, err := runWorkload(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct() {
					t.Fatalf("failed %d, problems %v, first error %q", res.Failed, res.Problems, res.FirstErr)
				}
				return res, log
			}
			a, logA := run()
			b, logB := run()
			if len(logA) == 0 || !reflect.DeepEqual(logA, logB) {
				t.Errorf("request sequences differ (%d vs %d requests)", len(logA), len(logB))
			}
			if a.Attempted != b.Attempted || !reflect.DeepEqual(a.Samples, b.Samples) {
				t.Errorf("attempted %d/%d, samples %v/%v", a.Attempted, b.Attempted, a.Samples, b.Samples)
			}
			for _, name := range countMetrics {
				x, y := a.Metrics[name].Value, b.Metrics[name].Value
				// A handful of runtime allocations (timers, a GC's
				// bookkeeping) land in one run and not the other; with
				// two clients racing, so do pool refills.
				share := 0.01
				if sp.clients > 1 {
					share = 0.03
				}
				if tolerance := math.Max(1, share*x); math.Abs(x-y) > tolerance {
					t.Errorf("%s: %v vs %v", name, x, y)
				}
			}
			other := smokeConfig(sp.name)
			other.seed, other.ops = defaultSeed+1, ops[sp.name]
			if sp.name == "update-churn" {
				var log []string
				other.log = &log
				if _, err := runWorkload(context.Background(), other); err != nil {
					t.Fatal(err)
				}
				if reflect.DeepEqual(log, logA) {
					t.Error("another seed produced the same update sequence")
				}
			}
		})
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatchesTheProgram: BENCHMARK.json is written by hand;
// the workloads, metrics, units, directions and bounds it promises must
// be the ones the program reports.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("%d workloads, the program has %d", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: %q %q, the program has %q %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	gated := gatedMetrics()
	if len(bj.EndToEnd) != len(gated) {
		t.Fatalf("%d end-to-end metrics, the program gates %d", len(bj.EndToEnd), len(gated))
	}
	setup := false
	for i, m := range bj.EndToEnd {
		g := gated[i]
		better := "lower"
		if g.higherBetter {
			better = "higher"
		}
		if m.Name != g.name || m.Unit != g.unit || m.Better != better || m.Bound != g.bound {
			t.Errorf("end_to_end[%d] = %+v, the program has %s %s %s %v", i, m, g.name, g.unit, better, g.bound)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v must be in (0, 0.25]", m.Name, m.Bound)
		}
		for w, b := range g.tighter {
			if _, ok := findSpec(w); !ok || b >= g.bound {
				t.Errorf("%s: tighter bound %v on %q must name a workload and be tighter than %v", g.name, b, w, g.bound)
			}
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) is required")
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 || len(bj.Paths) != 1 || bj.Paths[0] != "perfbench" {
		t.Errorf("run_seconds %d, paths %v", bj.RunSeconds, bj.Paths)
	}
}

// TestTracedRunReportsEveryLayerMetric runs the traced pass at small
// size and requires exactly BENCHMARK.json's per-layer metrics, the
// workload-describing counts at their designed values, and a span file
// whose spans nest.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every workload")
	}
	bj := loadBenchmarkJSON(t)
	dir := t.TempDir()
	detail := filepath.Join(dir, "layers.json")
	// The run prints its metrics; keep the test log readable.
	stdout := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	err = tracedRun(context.Background(), options{
		workload: "update-churn", seed: defaultSeed, seconds: 1, keysDir: testKeys, outDir: dir, detail: detail, small: true,
	})
	os.Stdout = stdout
	null.Close()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(detail)
	if err != nil {
		t.Fatal(err)
	}
	var layers layerReport
	if err := json.Unmarshal(data, &layers); err != nil {
		t.Fatal(err)
	}
	if len(layers.Counts) != len(specs) {
		t.Errorf("counts for %d workloads, want every one of %d", len(layers.Counts), len(specs))
	}
	// The workloads test what they say.
	for workload, hits := range map[string]float64{"first-visit": 0, "bulk-stream": 0, "wan-page": 0, "update-churn": 63.0 / 64} {
		if got := layers.Counts[workload]["vcache.hit_ratio"].Value; got != hits {
			t.Errorf("%s: vcache.hit_ratio = %v, want %v", workload, got, hits)
		}
	}
	if got := layers.Counts["first-visit"]["core.pipeline_runs_per_fetch"].Value; got != 1 {
		t.Errorf("first-visit: core.pipeline_runs_per_fetch = %v, want 1", got)
	}
	got := layers.of("update-churn")
	var want, have []string
	for _, m := range bj.PerLayer {
		want = append(want, m.Name)
		if g, ok := got[m.Name]; ok && g.Unit != m.Unit {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
	for name, m := range got {
		have = append(have, name)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", name, m.Value)
		}
	}
	sort.Strings(want)
	sort.Strings(have)
	if !reflect.DeepEqual(have, want) {
		t.Errorf("per-layer metrics differ from BENCHMARK.json\n have %v\n want %v", have, want)
	}
	for name, value := range map[string]float64{
		// The changed element's GET first finds the warm binding (a hit),
		// sees its certificate lapsed, and re-binds (a miss).
		"core.binding_cache_hit_ratio": 64.0 / 65,
		"core.pipeline_runs_per_fetch": 1.0 / 64,
		"core.failovers":               0,
		"server.delta_fallbacks":       0,
		"proxy.requests_failed":        0,
	} {
		if got[name].Value != value {
			t.Errorf("%s = %v, want %v", name, got[name].Value, value)
		}
	}

	raw, err := os.ReadFile(filepath.Join(dir, "trace-update-churn.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	byID := make(map[int]span, len(tf.Spans))
	roots := 0
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	for _, s := range closed(tf.Spans) {
		if s.Parent == 0 {
			roots++
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Req != s.Req || s.Start < p.Start {
			t.Fatalf("span %+v does not nest in its parent %+v", s, p)
		}
	}
	if last := tf.Spans[len(tf.Spans)-1]; last.Req < 100 {
		t.Errorf("last span belongs to request %d: every operation must open a new request", last.Req)
	}
	if roots == 0 || tf.Workload != "update-churn" {
		t.Errorf("span file: workload %q, %d roots of %d spans", tf.Workload, roots, len(tf.Spans))
	}
	for _, sp := range specs {
		if _, err := os.Stat(filepath.Join(dir, "trace-"+sp.name+".json")); err != nil {
			t.Errorf("every traced run writes one span file per workload: %v", err)
		}
	}
}
