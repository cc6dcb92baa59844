package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"globedoc/internal/core"
	"globedoc/internal/deploy"
	"globedoc/internal/netsim"
	"globedoc/internal/server"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
	"globedoc/internal/workload"
)

// ConcurrentResult is one closed-loop concurrency point: N client
// goroutines fetching the same published object back-to-back through a
// shared secure client whose connection pool is sized to match.
type ConcurrentResult struct {
	// Concurrency is the closed-loop worker count (and the transport
	// pool size used for the run).
	Concurrency int `json:"concurrency"`
	// Ops is the number of successful warm fetches measured.
	Ops int `json:"ops"`
	// Errors counts failed fetches (0 on a healthy testbed).
	Errors int `json:"errors"`
	// Elapsed is the wall time of the measured closed loop.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Throughput is successful fetches per second of wall time.
	Throughput float64 `json:"throughput_ops_per_sec"`
	// Latency quantiles of the successful fetches.
	Mean time.Duration `json:"latency_mean_ns"`
	P50  time.Duration `json:"latency_p50_ns"`
	P95  time.Duration `json:"latency_p95_ns"`
	P99  time.Duration `json:"latency_p99_ns"`
	Max  time.Duration `json:"latency_max_ns"`
	// ColdPipelineRuns is how many full secure-binding pipelines ran
	// during the cold burst that preceded the measurement — with
	// singleflight deduplication this is exactly 1 no matter how many
	// goroutines raced the first fetch.
	ColdPipelineRuns uint64 `json:"cold_pipeline_runs"`
	// ColdSingleflightShared is how many of those racing cold fetches
	// joined the winner's pipeline run instead of running their own.
	ColdSingleflightShared uint64 `json:"cold_singleflight_shared"`
}

// ConcurrentComparison is the -concurrency experiment output: the same
// closed-loop workload at concurrency 1 and at the requested
// concurrency, plus the resulting speedup.
type ConcurrentComparison struct {
	// OpsPerWorker is the number of warm fetches each worker performed.
	OpsPerWorker int                 `json:"ops_per_worker"`
	Serial       *ConcurrentResult   `json:"serial"`
	Parallel     *ConcurrentResult   `json:"parallel"`
	Points       []*ConcurrentResult `json:"points,omitempty"`
	// Speedup is Parallel.Throughput / Serial.Throughput.
	Speedup float64 `json:"speedup"`
}

// RunConcurrent measures one concurrency point. It publishes a 10 KB
// object, then:
//
//  1. Cold burst: `concurrency` goroutines fetch the object at once
//     through a fresh binding-caching client. Exactly one secure-binding
//     pipeline should run (singleflight); the counters recording this
//     are returned in the result.
//  2. Warm closed loop: the same goroutines fetch back-to-back,
//     iterations ops each, measuring throughput and tail latency.
//
// The world's transport pool (deploy.Options.Client.Pool, which the
// client's binder carries) is sized to `concurrency` so that the
// in-flight RPC bound never serialises the workload.
func RunConcurrent(cfg Config, concurrency int) (*ConcurrentResult, error) {
	cfg = cfg.withDefaults()
	if concurrency < 1 {
		concurrency = 1
	}
	tel := telemetry.New(nil)
	w, err := deploy.NewWorld(deploy.Options{
		TimeScale: cfg.TimeScale,
		Telemetry: tel,
		Client:    transport.Config{Pool: transport.PoolConfig{MaxConns: concurrency}},
	})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv-ams", nil, nil, server.Limits{}); err != nil {
		return nil, err
	}
	doc := workload.SingleElementDoc(10*workload.KB, WorkloadSeed)
	pub, err := w.Publish(doc, deploy.PublishOptions{
		Name:         "concurrent.bench",
		TTL:          24 * time.Hour,
		KeyAlgorithm: cfg.KeyAlgorithm,
	})
	if err != nil {
		return nil, err
	}

	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{CacheBindings: true})
	if err != nil {
		return nil, err
	}
	defer client.Close()
	//lint:ignore ctxfirst the benchmark harness is the top of the call tree; there is no caller context to inherit
	ctx := context.Background()

	// Cold burst: all workers race the first fetch of the OID. The
	// pipeline-run and singleflight counters bracket the burst so the
	// result reports exactly how many pipelines the burst cost.
	runsBefore := tel.PipelineRuns.Value()
	sharedBefore := tel.SingleflightShared.Value()
	var wg sync.WaitGroup
	coldErrs := make([]error, concurrency)
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, coldErrs[i] = client.Fetch(ctx, pub.OID, "image.bin")
		}(i)
	}
	wg.Wait()
	for _, err := range coldErrs {
		if err != nil {
			return nil, fmt.Errorf("cold burst fetch: %w", err)
		}
	}
	res := &ConcurrentResult{
		Concurrency:            concurrency,
		ColdPipelineRuns:       tel.PipelineRuns.Value() - runsBefore,
		ColdSingleflightShared: tel.SingleflightShared.Value() - sharedBefore,
	}

	// Warm closed loop over the now-cached binding.
	loop := workload.RunClosedLoop(ctx, concurrency, concurrency*cfg.Iterations,
		func(ctx context.Context, _, _ int) error {
			_, err := client.Fetch(ctx, pub.OID, "image.bin")
			return err
		})
	if loop.FirstError != nil {
		return nil, fmt.Errorf("closed loop: %w", loop.FirstError)
	}
	res.Ops = loop.Ops
	res.Errors = loop.Errors
	res.Elapsed = loop.Elapsed
	res.Throughput = loop.Throughput
	res.Mean = loop.Latency.Mean
	res.P50 = loop.Latency.P50
	res.P95 = loop.Latency.P95
	res.P99 = loop.Latency.P99
	res.Max = loop.Latency.Max
	return res, nil
}

// RunConcurrentComparison runs the closed-loop workload at concurrency 1
// and at cfg.Concurrency, returning both points and the throughput
// speedup between them.
func RunConcurrentComparison(cfg Config) (*ConcurrentComparison, error) {
	cfg = cfg.withDefaults()
	serial, err := RunConcurrent(cfg, 1)
	if err != nil {
		return nil, err
	}
	parallel, err := RunConcurrent(cfg, cfg.Concurrency)
	if err != nil {
		return nil, err
	}
	cmp := &ConcurrentComparison{
		OpsPerWorker: cfg.Iterations,
		Serial:       serial,
		Parallel:     parallel,
		Points:       []*ConcurrentResult{serial, parallel},
	}
	if serial.Throughput > 0 {
		cmp.Speedup = parallel.Throughput / serial.Throughput
	}
	return cmp, nil
}

// Format renders the comparison as a human-readable table.
func (c *ConcurrentComparison) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Concurrent fetch (closed loop, warm bindings, %d ops/worker, client at %s)\n\n",
		c.OpsPerWorker, netsim.Paris)
	fmt.Fprintf(&b, "  %-12s %8s %12s %10s %10s %10s %6s %8s\n",
		"concurrency", "ops", "throughput", "p50", "p95", "p99", "runs", "shared")
	for _, p := range c.Points {
		fmt.Fprintf(&b, "  %-12d %8d %9.1f/s %10s %10s %10s %6d %8d\n",
			p.Concurrency, p.Ops, p.Throughput,
			p.P50.Round(time.Microsecond), p.P95.Round(time.Microsecond),
			p.P99.Round(time.Microsecond),
			p.ColdPipelineRuns, p.ColdSingleflightShared)
	}
	fmt.Fprintf(&b, "\n  speedup (throughput at %d / at 1): %.2fx\n",
		c.Parallel.Concurrency, c.Speedup)
	fmt.Fprintf(&b, "  cold-burst pipeline runs at %d: %d (singleflight shared %d of %d fetches)\n",
		c.Parallel.Concurrency, c.Parallel.ColdPipelineRuns,
		c.Parallel.ColdSingleflightShared, c.Parallel.Concurrency)
	return b.String()
}

// concurrentMinSpeedup is the concurrent gate's bar on Speedup.
const concurrentMinSpeedup = 4.0

// gate: the parallel cold burst ran one binding pipeline that every
// other racing fetch shared (singleflight), the closed loops saw no
// errors, and parallel throughput beats serial by the bar.
func (c *ConcurrentComparison) gate() (string, error) {
	if c.Serial == nil || c.Parallel == nil {
		return "", errors.New("report has no concurrent comparison")
	}
	par := c.Parallel
	switch {
	case par.ColdPipelineRuns != 1:
		return "", fmt.Errorf("cold burst at concurrency %d ran %d binding pipelines, want exactly 1 (singleflight)",
			par.Concurrency, par.ColdPipelineRuns)
	case par.ColdSingleflightShared != uint64(par.Concurrency-1):
		return "", fmt.Errorf("cold burst shared %d pipeline runs, want %d of %d fetches",
			par.ColdSingleflightShared, par.Concurrency-1, par.Concurrency)
	case c.Serial.Errors != 0 || par.Errors != 0:
		return "", fmt.Errorf("closed loop saw errors: serial %d, parallel %d", c.Serial.Errors, par.Errors)
	case c.Speedup < concurrentMinSpeedup:
		return "", fmt.Errorf("throughput speedup %.2fx at concurrency %d is below the required %.1fx",
			c.Speedup, par.Concurrency, concurrentMinSpeedup)
	}
	return fmt.Sprintf("%.1f ops/s serial, %.1f ops/s at %d (%.2fx >= %.1fx), cold pipelines = 1, shared = %d",
		c.Serial.Throughput, par.Throughput, par.Concurrency, c.Speedup, concurrentMinSpeedup, par.ColdSingleflightShared), nil
}
