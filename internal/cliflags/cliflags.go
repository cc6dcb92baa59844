// Package cliflags is the shared flag plumbing for the GlobeDoc
// binaries. Every process-shaped command (proxy, server, services) needs
// the same bundles — transport robustness knobs, client caching and the
// observability surface — so they are registered and interpreted here
// once instead of being copy-pasted per main(). It imports no simulator,
// so a binary that uses it links none.
package cliflags

import (
	"flag"
	"fmt"
	"os"
	"time"

	"globedoc/internal/core"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
	"globedoc/internal/vcache"
)

// ClientFlags is the standard transport-robustness flag bundle:
// dial/call timeouts and the per-RPC attempt budget. Retries above 1
// sets a transport.RetryPolicy of that many attempts with backoff;
// Retries of 1 or less sets none, which still leaves the transport's
// own rule: a call that failed on a reused pooled connection is re-sent
// once, at once, on a fresh dial. The policy also bounds a secure
// client's re-binds when a warm binding's certificate lapses (two
// attempts when there is none).
type ClientFlags struct {
	DialTimeout time.Duration
	CallTimeout time.Duration
	Retries     int
}

// RegisterClientFlags registers the shared transport flags on fs (nil =
// flag.CommandLine) with the standard defaults and returns the bundle to
// read after fs.Parse.
func RegisterClientFlags(fs *flag.FlagSet) *ClientFlags {
	if fs == nil {
		fs = flag.CommandLine
	}
	f := &ClientFlags{}
	fs.DurationVar(&f.DialTimeout, "dial-timeout", 5*time.Second,
		"per-connection dial deadline (0 = unbounded)")
	fs.DurationVar(&f.CallTimeout, "call-timeout", 10*time.Second,
		"per-RPC deadline, send through receive (0 = unbounded)")
	fs.IntVar(&f.Retries, "retries", 3,
		"attempts per RPC against a flaky replica, with backoff, and per certificate refresh of a warm binding (1 = no retry policy: only a call that failed on a reused pooled connection is re-sent, once, on a fresh dial, and a refresh re-binds at most twice)")
	return f
}

// Config converts the parsed flags into a transport.Config carrying tel.
func (f *ClientFlags) Config(tel *telemetry.Telemetry) transport.Config {
	cfg := transport.Config{
		DialTimeout: f.DialTimeout,
		CallTimeout: f.CallTimeout,
		Telemetry:   tel,
	}
	if f.Retries > 1 {
		policy := transport.DefaultRetryPolicy()
		policy.MaxAttempts = f.Retries
		cfg.Retry = policy
	}
	return cfg
}

// CacheFlags is the standard client-caching flag bundle: the
// verified-content cache (size and signature-memo bounds, or disabled
// entirely for ablation runs) and the binding-cache bound.
type CacheFlags struct {
	DisableVCache  bool
	VCacheMaxBytes int64
	VCacheMaxSigs  int
	MaxBindings    int
}

// RegisterCacheFlags registers the shared caching flags on fs (nil =
// flag.CommandLine) with the standard defaults and returns the bundle to
// read after fs.Parse.
func RegisterCacheFlags(fs *flag.FlagSet) *CacheFlags {
	if fs == nil {
		fs = flag.CommandLine
	}
	f := &CacheFlags{}
	fs.BoolVar(&f.DisableVCache, "disable-vcache", false,
		"disable the verified-content cache (every fetch re-transfers and re-verifies)")
	fs.Int64Var(&f.VCacheMaxBytes, "vcache-max-bytes", 0,
		"verified-content cache byte budget (0 = default 64 MiB)")
	fs.IntVar(&f.VCacheMaxSigs, "vcache-max-signatures", 0,
		"verified signature memo entries (0 = default 4096)")
	fs.IntVar(&f.MaxBindings, "max-bindings", 0,
		"cached verified bindings bound (0 = default 256)")
	return f
}

// Apply wires the parsed caching flags into the secure-client options:
// it constructs the verified-content cache (unless disabled) and sets
// the binding-cache bound.
func (f *CacheFlags) Apply(opts *core.Options) {
	if !f.DisableVCache {
		opts.VCache = vcache.New(vcache.Config{
			MaxBytes:      f.VCacheMaxBytes,
			MaxSignatures: f.VCacheMaxSigs,
		})
	}
	opts.MaxBindings = f.MaxBindings
}

// DebugFlags is the standard observability flag bundle: the /debugz
// listen address, the span JSON-lines output path, and the head-based
// trace sampling rate.
type DebugFlags struct {
	Addr        string
	TraceOut    string
	TraceSample float64
}

// RegisterDebugFlags registers the shared observability flags on fs
// (nil = flag.CommandLine) and returns the bundle to read after
// fs.Parse.
func RegisterDebugFlags(fs *flag.FlagSet) *DebugFlags {
	if fs == nil {
		fs = flag.CommandLine
	}
	f := &DebugFlags{}
	fs.StringVar(&f.Addr, "debug-addr", "",
		"listen address for the /debugz diagnostics endpoint (empty = disabled)")
	fs.StringVar(&f.TraceOut, "trace-out", "",
		"file to append finished spans to as JSON lines (empty = disabled)")
	fs.Float64Var(&f.TraceSample, "trace-sample", 1,
		"fraction of traces to export, decided at the trace root and propagated to peers (1 = all, 0 = none; spans recording errors always export)")
	return f
}

// Start applies the parsed observability flags to tel: it sets the
// head-sampling rate when -trace-sample departs from 1, attaches a
// JSON-lines span exporter when -trace-out is set and serves /debugz when
// -debug-addr is set, announcing the bound address on stdout. The
// returned stop function shuts both down; it is never nil.
func (f *DebugFlags) Start(tel *telemetry.Telemetry) (stop func(), err error) {
	tel = telemetry.Or(tel)
	if f.TraceSample < 0 || f.TraceSample > 1 {
		return nil, fmt.Errorf("cliflags: -trace-sample %v outside [0, 1]", f.TraceSample)
	}
	tel.Tracer.SetSampleRate(f.TraceSample)
	var closers []func()
	if f.TraceOut != "" {
		out, err := os.OpenFile(f.TraceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("cliflags: opening trace output: %w", err)
		}
		tel.Tracer.AddExporter(telemetry.NewJSONLExporter(out))
		closers = append(closers, func() { out.Close() })
	}
	if f.Addr != "" {
		addr, stopDebug, err := tel.ServeDebug(f.Addr)
		if err != nil {
			for _, c := range closers {
				c()
			}
			return nil, err
		}
		fmt.Printf("debugz endpoint on http://%s/debugz\n", addr)
		closers = append(closers, stopDebug)
	}
	return func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}, nil
}
