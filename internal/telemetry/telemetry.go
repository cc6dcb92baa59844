package telemetry

import (
	"sync"

	"globedoc/internal/clock"
)

// Standard metric names, shared by every GlobeDoc component. DESIGN.md §8
// maps each to the evaluation figure it supports.
const (
	MetricRPCCalls         = "rpc_calls_total"               // {op,outcome} client-side RPC attempts that completed
	MetricRPCRetries       = "rpc_retries_total"             // extra attempts beyond the first
	MetricRPCServed        = "rpc_served_total"              // {op,outcome} server-side handled requests
	MetricBindingHits      = "binding_cache_hits_total"      // verified-binding cache (core)
	MetricBindingMisses    = "binding_cache_misses_total"    //
	MetricSecurityFailed   = "security_check_failures_total" // {phase} pipeline rejections
	MetricFailovers        = "failovers_total"               // replicas abandoned mid-pipeline
	MetricProxyRequests    = "proxy_requests_total"          // {kind,outcome} browser-facing requests
	MetricFetchLatency     = "fetch_latency_seconds"         // whole secure-fetch latency
	MetricSecurityOverhead = "security_overhead_percent"     // per-fetch Timing.OverheadPercent()

	// Connection-pool instruments (transport.Client).
	MetricPoolDials = "transport_pool_dials_total" // new connections opened
	MetricPoolReuse = "transport_pool_reuse_total" // calls served from an idle pooled conn
	MetricPoolConns = "transport_pool_conns"       // open pooled connections (gauge)

	// Transport v2 multiplexing instruments (transport.Client/Server).
	MetricStreamsOpened = "transport_streams_opened_total" // streams opened
	MetricStreamsActive = "transport_streams_active"       // in-flight streams (gauge)
	MetricNegotiations  = "transport_negotiations_total"   // {version} concluded version negotiations

	// Batched element fetch instruments (core.Client).
	MetricBatchFetches  = "batch_fetch_total"          // obj.bind replies carrying a batch of elements
	MetricBatchElements = "batch_fetch_elements_total" // elements those batches carried

	// Singleflight instruments (core.Client binding establishment).
	MetricSingleflightShared = "binding_singleflight_shared_total" // fetches that joined another caller's pipeline run
	MetricPipelineRuns       = "binding_pipeline_runs_total"       // full secure-binding pipeline executions

	// Delta replication instruments (server.Puller). The mode label is
	// the kind of obj.getdelta reply: "full" (the whole state) or "delta"
	// (the changed elements); bytes count request+reply payloads, the
	// quantity the bench-delta gate bounds.
	MetricPullerPulls          = "puller_pulls_total"           // {mode} completed state transfers
	MetricPullerBytes          = "puller_bytes_total"           // {mode} payload bytes moved
	MetricPullerElements       = "puller_elements_total"        // {mode} element bodies transferred
	MetricPullerDeltaDeclines  = "puller_delta_declines_total"  // full replies to a have-version the primary no longer retains
	MetricPullerDeltaFallbacks = "puller_delta_fallbacks_total" // rejected deltas asked for again from version 0
	MetricPullerFailures       = "puller_failures_total"        // checks that ended in an error

	// Verified-content cache instruments (vcache.Cache via core.Client).
	MetricVCacheHits          = "vcache_hits_total"          // element fetches served from verified bytes
	MetricVCacheMisses        = "vcache_misses_total"        // element fetches that had to move bytes
	MetricVCacheRevalidations = "vcache_revalidations_total" // held entries a lapse's refreshed certificate still lists: transfers avoided
	MetricVCacheEvictions     = "vcache_evictions_total"     // entries dropped by pressure or invalidation
	MetricVCacheBytes         = "vcache_bytes"               // cached element bytes, content types included, a shared frame once (gauge)
	MetricSigCacheHits        = "signature_cache_hits_total" // memoized signature verdicts reused
	MetricBindingEntries      = "binding_cache_entries"      // live verified bindings (gauge)
)

// DefaultLatencyBuckets are the fetch-latency histogram bounds, in
// seconds, spanning LAN round trips through the paper's transatlantic
// worst case.
var DefaultLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// PercentBuckets are the security-overhead histogram bounds: Figure 4
// reports overhead from ~1% (large elements) to ~90% (tiny ones).
var PercentBuckets = []float64{1, 2, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}

// RingSize is how many recent spans a Telemetry retains for /debugz.
const RingSize = 256

// Telemetry bundles a tracer, a registry and the standard GlobeDoc
// instruments, ready to thread through transport, core, location, server
// and proxy. One Telemetry per process is the intended shape; components
// left unwired fall back to the shared Default().
type Telemetry struct {
	Tracer   *Tracer
	Registry *Registry
	// Ring retains the most recent spans for /debugz and span-tree tests.
	Ring *RingExporter
	// Health tracks per-contact-address RTT/error EWMAs, fed by
	// transport.Client attempts and consumed by core's replica Selector.
	Health *HealthTracker
	// Selection retains the most recent per-OID replica ranking produced
	// by core's Selector, for /debugz and cmd/globedoc-debugz.
	Selection *SelectionTracker

	// Client-side RPC instruments (transport.Client).
	RPCCalls   *CounterVec // {op,outcome}
	RPCRetries *Counter
	// Connection-pool instruments (transport.Client).
	PoolDials *Counter
	PoolReuse *Counter
	PoolConns *Gauge
	// Transport v2 multiplexing instruments.
	StreamsOpened *Counter
	StreamsActive *Gauge
	Negotiations  *CounterVec // {version}
	// Batched element fetch instruments (core.Client).
	BatchFetches  *Counter
	BatchElements *Counter
	// Server-side RPC instruments (transport.Server).
	RPCServed *CounterVec // {op,outcome}

	// Pipeline instruments (core.Client).
	BindingCacheHits      *Counter
	BindingCacheMisses    *Counter
	BindingCacheEntries   *Gauge
	SingleflightShared    *Counter
	PipelineRuns          *Counter
	SecurityCheckFailures *CounterVec // {phase}
	Failovers             *Counter
	FetchLatency          *Histogram // seconds
	SecurityOverhead      *Histogram // percent

	// Delta replication instruments (server.Puller).
	PullerPulls          *CounterVec // {mode}
	PullerBytes          *CounterVec // {mode}
	PullerElements       *CounterVec // {mode}
	PullerDeltaDeclines  *Counter
	PullerDeltaFallbacks *Counter
	PullerFailures       *Counter

	// Verified-content cache instruments (core.Client + vcache.Cache).
	VCacheHits          *Counter
	VCacheMisses        *Counter
	VCacheRevalidations *Counter
	VCacheEvictions     *Counter
	VCacheBytes         *Gauge
	SigCacheHits        *Counter

	// Proxy instruments (proxy.Proxy).
	ProxyRequests *CounterVec // {kind,outcome}
}

// New returns a Telemetry over the given clock (nil = real clock), with
// the span ring attached and every standard instrument registered.
func New(clk clock.Clock) *Telemetry {
	reg := NewRegistry()
	ring := NewRingExporter(RingSize)
	tracer := NewTracer(clk)
	tracer.AddExporter(ring)
	return &Telemetry{
		Tracer:    tracer,
		Registry:  reg,
		Ring:      ring,
		Health:    NewHealthTracker(clk),
		Selection: NewSelectionTracker(),

		RPCCalls:   reg.CounterVec(MetricRPCCalls, "op", "outcome"),
		RPCRetries: reg.Counter(MetricRPCRetries),
		RPCServed:  reg.CounterVec(MetricRPCServed, "op", "outcome"),

		PoolDials: reg.Counter(MetricPoolDials),
		PoolReuse: reg.Counter(MetricPoolReuse),
		PoolConns: reg.Gauge(MetricPoolConns),

		StreamsOpened: reg.Counter(MetricStreamsOpened),
		StreamsActive: reg.Gauge(MetricStreamsActive),
		Negotiations:  reg.CounterVec(MetricNegotiations, "version"),

		BatchFetches:  reg.Counter(MetricBatchFetches),
		BatchElements: reg.Counter(MetricBatchElements),

		BindingCacheHits:      reg.Counter(MetricBindingHits),
		BindingCacheMisses:    reg.Counter(MetricBindingMisses),
		BindingCacheEntries:   reg.Gauge(MetricBindingEntries),
		SingleflightShared:    reg.Counter(MetricSingleflightShared),
		PipelineRuns:          reg.Counter(MetricPipelineRuns),
		SecurityCheckFailures: reg.CounterVec(MetricSecurityFailed, "phase"),
		Failovers:             reg.Counter(MetricFailovers),
		FetchLatency:          reg.Histogram(MetricFetchLatency, DefaultLatencyBuckets),
		SecurityOverhead:      reg.Histogram(MetricSecurityOverhead, PercentBuckets),

		PullerPulls:          reg.CounterVec(MetricPullerPulls, "mode"),
		PullerBytes:          reg.CounterVec(MetricPullerBytes, "mode"),
		PullerElements:       reg.CounterVec(MetricPullerElements, "mode"),
		PullerDeltaDeclines:  reg.Counter(MetricPullerDeltaDeclines),
		PullerDeltaFallbacks: reg.Counter(MetricPullerDeltaFallbacks),
		PullerFailures:       reg.Counter(MetricPullerFailures),

		VCacheHits:          reg.Counter(MetricVCacheHits),
		VCacheMisses:        reg.Counter(MetricVCacheMisses),
		VCacheRevalidations: reg.Counter(MetricVCacheRevalidations),
		VCacheEvictions:     reg.Counter(MetricVCacheEvictions),
		VCacheBytes:         reg.Gauge(MetricVCacheBytes),
		SigCacheHits:        reg.Counter(MetricSigCacheHits),

		ProxyRequests: reg.CounterVec(MetricProxyRequests, "kind", "outcome"),
	}
}

var (
	defaultOnce sync.Once
	defaultTel  *Telemetry
)

// Default returns the shared process-wide Telemetry, created on first
// use. Components whose Telemetry field is nil record here, so nothing
// is ever silently dropped; binaries that care wire an explicit instance
// instead.
func Default() *Telemetry {
	defaultOnce.Do(func() { defaultTel = New(nil) })
	return defaultTel
}

// Or returns t when non-nil and the shared Default() otherwise — the
// one-line fallback every instrumented component uses.
func Or(t *Telemetry) *Telemetry {
	if t != nil {
		return t
	}
	return Default()
}
