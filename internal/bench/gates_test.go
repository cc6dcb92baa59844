package bench_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"globedoc/internal/bench"
)

// phase is a populated latency distribution of n samples around d.
func phase(n int, d time.Duration) bench.Phase {
	return bench.Phase{Ops: n, Mean: d, P50: d, P95: d, P99: d, Max: d}
}

// healthyReport is a report every gate passes, with the numbers measured
// on the development box.
func healthyReport() *bench.Report {
	reval := phase(5, 20*time.Millisecond)
	return &bench.Report{
		Concurrent: &bench.ConcurrentComparison{
			OpsPerWorker: 5,
			Serial:       &bench.ConcurrentResult{Concurrency: 1, Ops: 5, Throughput: 31.4, ColdPipelineRuns: 1},
			Parallel:     &bench.ConcurrentResult{Concurrency: 16, Ops: 80, Throughput: 485.7, ColdPipelineRuns: 1, ColdSingleflightShared: 15},
			Speedup:      15.6,
		},
		Cache: &bench.CacheResult{
			VCacheEnabled: true, ElementBytes: 65536,
			Cold: phase(5, 40*time.Millisecond), Warm: phase(5, time.Microsecond), Revalidate: &reval,
			WarmSpeedup: 40000, Hits: 10, Misses: 5, Revalidations: 5,
			AblationIdentical: true,
		},
		Multiplex: &bench.MultiplexResult{
			Elements: 16, ElementBytes: 4096,
			SingleCold: phase(5, 100*time.Millisecond), BatchCold: phase(5, 139*time.Millisecond), SerialCold: phase(5, 800*time.Millisecond),
			BatchRatio: 1.39, SerialRatio: 8,
			BatchFetches: 5, BatchElements: 80, StreamsOpened: 40, NegotiatedV2: 15,
			AblationIdentical: true,
		},
		TraceOverhead: &bench.TraceOverheadResult{
			ElementBytes: 4096,
			SampledCold:  phase(15, 100100*time.Microsecond), UnsampledCold: phase(15, 100*time.Millisecond),
			P50Ratio: 1.001, SpansSampled: 300, SpansUnsampled: 0, ExemplarBuckets: 2,
		},
		Placement: &bench.PlacementResult{
			Servers: 12, Continents: 3, ReplicationFactor: 3, Objects: 16, FarObjects: 4,
			HealthRanked: bench.PlacementVariant{Selector: "health-ranked", Cold: phase(48, 35*time.Millisecond), Warm: phase(48, 7*time.Millisecond)},
			Ordered:      bench.PlacementVariant{Selector: "ordered", Cold: phase(48, 100*time.Millisecond), Warm: phase(48, 20*time.Millisecond)},
			ColdP99Ratio: 0.35, WarmP99Ratio: 0.35,
			AblationIdentical: true,
		},
		Delta: &bench.DeltaResult{
			Elements: 64, ElementBytes: 4096, ChangedPerUpdate: 1,
			DeltaPull: phase(5, 30*time.Millisecond), FullPull: phase(5, 90*time.Millisecond),
			BytesDeltaPerPull: 8500, BytesFullPerPull: 267000, ByteRatio: 31.43,
			DeltaPulls: 5, AblationIdentical: true,
		},
	}
}

// TestGates checks, per gated row of the experiment table, that the
// healthy report passes and that every single doctored field fails the
// gate with the condition's own message.
func TestGates(t *testing.T) {
	type doctored struct {
		name   string
		doctor func(*bench.Report)
		want   string // substring of the failure
	}
	cases := map[string][]doctored{
		"concurrent": {
			{"not measured", func(r *bench.Report) { r.Concurrent = nil }, "report has no concurrent experiment"},
			{"no parallel point", func(r *bench.Report) { r.Concurrent.Parallel = nil }, "report has no concurrent comparison"},
			{"two cold pipelines", func(r *bench.Report) { r.Concurrent.Parallel.ColdPipelineRuns = 2 }, "ran 2 binding pipelines, want exactly 1 (singleflight)"},
			{"a fetch not shared", func(r *bench.Report) { r.Concurrent.Parallel.ColdSingleflightShared = 14 }, "cold burst shared 14 pipeline runs, want 15 of 16 fetches"},
			{"closed-loop error", func(r *bench.Report) { r.Concurrent.Parallel.Errors = 1 }, "closed loop saw errors: serial 0, parallel 1"},
			{"speedup below bar", func(r *bench.Report) { r.Concurrent.Speedup = 3.99 }, "throughput speedup 3.99x at concurrency 16 is below the required 4.0x"},
		},
		"cache": {
			{"not measured", func(r *bench.Report) { r.Cache = nil }, "report has no cache experiment"},
			{"zero-op cold phase", func(r *bench.Report) { r.Cache.Cold.Ops = 0 }, "missing phase samples: cold=0"},
			{"no revalidate phase", func(r *bench.Report) { r.Cache.Revalidate = nil }, "missing phase samples"},
			{"speedup below bar", func(r *bench.Report) { r.Cache.WarmSpeedup = 4.99 }, "warm fetch speedup 4.99x is below the required 5.0x"},
			{"a warm sample missed", func(r *bench.Report) { r.Cache.Hits = 9 }, "vcache hits = 9, want >= 10 (warm + revalidate samples)"},
			{"a revalidation uncounted", func(r *bench.Report) { r.Cache.Revalidations = 4 }, "revalidations = 4, want 5"},
			{"ablation differs", func(r *bench.Report) { r.Cache.AblationIdentical = false }, "ablation check failed: cache-disabled client fetched different bytes"},
		},
		"multiplex": {
			{"not measured", func(r *bench.Report) { r.Multiplex = nil }, "report has no multiplex experiment"},
			{"zero-op serial phase", func(r *bench.Report) { r.Multiplex.SerialCold.Ops = 0 }, "missing phase samples: single=5 batch=5 serial=0"},
			{"ratio past bar", func(r *bench.Report) { r.Multiplex.BatchRatio = 2.01 }, "cold 16-element fetch is 2.01x a cold single-element fetch, want <= 2.0x"},
			{"an exchange missing", func(r *bench.Report) { r.Multiplex.BatchFetches = 4 }, "batch_fetch_total = 4, want >= 5 (one exchange per batch sample)"},
			{"an element not carried", func(r *bench.Report) { r.Multiplex.BatchElements = 79 }, "batch_fetch_elements_total = 79, want >= 80 (16 elements per exchange)"},
			{"never negotiated v2", func(r *bench.Report) { r.Multiplex.NegotiatedV2 = 0 }, "negotiations{v2} = 0"},
			{"ablation differs", func(r *bench.Report) { r.Multiplex.AblationIdentical = false }, "ablation check failed: serial-RPC client fetched different bytes"},
		},
		"traceoverhead": {
			{"not measured", func(r *bench.Report) { r.TraceOverhead = nil }, "report has no traceoverhead experiment"},
			{"zero-op ablation phase", func(r *bench.Report) { r.TraceOverhead.UnsampledCold.Ops = 0 }, "missing phase samples: sampled=15 ablation=0"},
			{"ratio past bar", func(r *bench.Report) { r.TraceOverhead.P50Ratio = 1.051 }, "cold-fetch p50 with full tracing is 1.051x the untraced ablation, want <= 1.05x"},
			{"too few spans", func(r *bench.Report) { r.TraceOverhead.SpansSampled = 29 }, "sampled phase exported 29 spans, want >= 30"},
			{"no exemplar", func(r *bench.Report) { r.TraceOverhead.ExemplarBuckets = 0 }, "sampled phase left no exemplar trace IDs"},
			{"ablation exported", func(r *bench.Report) { r.TraceOverhead.SpansUnsampled = 1 }, "ablation phase exported 1 spans at sample rate 0, want 0"},
		},
		"placement": {
			{"not measured", func(r *bench.Report) { r.Placement = nil }, "report has no placement experiment"},
			{"zero-op warm phase", func(r *bench.Report) { r.Placement.Ordered.Warm.Ops = 0 }, "missing ordered phase samples: cold=48 warm=0"},
			{"no far objects", func(r *bench.Report) { r.Placement.FarObjects = 0 }, "workload has no far-placed objects"},
			{"cold ratio past bar", func(r *bench.Report) { r.Placement.ColdP99Ratio = 0.71 }, "cold p99 ratio 0.71x exceeds the required <= 0.70x"},
			{"cold ratio unmeasured", func(r *bench.Report) { r.Placement.ColdP99Ratio = 0 }, "cold p99 ratio 0.00x exceeds"},
			{"warm ratio past bar", func(r *bench.Report) { r.Placement.WarmP99Ratio = 0.71 }, "warm p99 ratio 0.71x exceeds the required <= 0.70x"},
			{"ablation differs", func(r *bench.Report) { r.Placement.AblationIdentical = false }, "ablation check failed: ordered client fetched different bytes"},
		},
		"delta": {
			{"not measured", func(r *bench.Report) { r.Delta = nil }, "report has no delta experiment"},
			{"zero-op full phase", func(r *bench.Report) { r.Delta.FullPull.Ops = 0 }, "missing phase samples: delta=5 full=0"},
			{"no byte counter", func(r *bench.Report) { r.Delta.BytesDeltaPerPull = 0 }, "missing byte counters: delta=0 full=267000"},
			{"ratio below bar", func(r *bench.Report) { r.Delta.ByteRatio = 3.99 }, "(3.99x), want >= 4.0x reduction"},
			{"a pull off the delta path", func(r *bench.Report) { r.Delta.DeltaPulls = 4 }, "delta_pulls = 4, want 5 (one per sample)"},
			{"a decline", func(r *bench.Report) { r.Delta.DeltaDeclines = 1 }, "delta run was not pure: declines=1 fallbacks=0"},
			{"a fallback", func(r *bench.Report) { r.Delta.DeltaFallbacks = 1 }, "delta run was not pure: declines=0 fallbacks=1"},
			{"ablation differs", func(r *bench.Report) { r.Delta.AblationIdentical = false }, "ablation check failed: full-pull replica ended with different bytes"},
		},
	}
	for _, e := range bench.Experiments {
		if e.Gate == nil {
			if _, gated := cases[e.Name]; gated {
				t.Errorf("%s: cases for a row without a gate", e.Name)
			}
			continue
		}
		if len(cases[e.Name]) == 0 {
			t.Errorf("%s: gated row has no failing-input cases", e.Name)
		}
		t.Run(e.Name, func(t *testing.T) {
			verdict, err := e.Gate(healthyReport())
			if err != nil || verdict == "" {
				t.Fatalf("healthy report: verdict %q, err %v", verdict, err)
			}
			for _, c := range cases[e.Name] {
				r := healthyReport()
				c.doctor(r)
				_, err := e.Gate(r)
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
				}
			}
		})
	}
}

// TestGateVerdictLines pins the verdict text to what the per-experiment
// checker programs printed for the same numbers.
func TestGateVerdictLines(t *testing.T) {
	want := map[string]string{
		"concurrent":    "31.4 ops/s serial, 485.7 ops/s at 16 (15.60x >= 4.0x), cold pipelines = 1, shared = 15",
		"cache":         "cold 40ms, warm 1µs (40000x >= 5.0x), revalidate 20ms, hits=10 reval=5, ablation identical",
		"multiplex":     "single 100ms, batch 139ms (1.39x <= 2.0x), serial 800ms (8.00x), batch_fetches=5 batch_elements=80",
		"traceoverhead": "sampled p50 100.1ms, ablation p50 100ms (1.001x <= 1.05x), spans sampled=300 ablation=0, exemplar buckets=2",
		"placement":     "cold p99 35ms vs 100ms (0.35x <= 0.70x), warm p99 7ms vs 20ms (0.35x), 16 objects (4 far), ablation identical",
		"delta":         "8500 bytes/pull vs 267000 full (31.43x >= 4.0x), p50 30ms vs 90ms, pulls=5 declines=0 fallbacks=0",
	}
	for _, e := range bench.Experiments {
		if e.Gate == nil {
			continue
		}
		if got, _ := e.Gate(healthyReport()); got != want[e.Name] {
			t.Errorf("%s verdict:\n got %q\nwant %q", e.Name, got, want[e.Name])
		}
	}
}

// TestCacheGateNotApplicableToAblation: a -disable-vcache run is not a
// failed gate, it is a run the claim is not about.
func TestCacheGateNotApplicableToAblation(t *testing.T) {
	r := healthyReport()
	r.Cache.VCacheEnabled = false
	e, err := bench.Select("cache")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e[0].Gate(r); !errors.Is(err, bench.ErrNotApplicable) {
		t.Errorf("err = %v, want ErrNotApplicable", err)
	}
}

func TestSelect(t *testing.T) {
	all, err := bench.Select("all")
	if err != nil || len(all) != len(bench.Experiments) {
		t.Fatalf("Select(all) = %d rows, err %v", len(all), err)
	}
	var names []string
	for _, e := range all {
		names = append(names, e.Name)
		one, err := bench.Select(e.Name)
		if err != nil || len(one) != 1 || one[0].Name != e.Name {
			t.Errorf("Select(%q) = %v, err %v", e.Name, one, err)
		}
	}
	if got, want := strings.Join(names, " "), "table1 fig4 fig5 fig6 fig7 concurrent cache multiplex traceoverhead placement delta"; got != want {
		t.Errorf("table rows = %q, want %q", got, want)
	}
	if _, err := bench.Select("fig8"); err == nil {
		t.Error("unknown experiment accepted")
	}
}
