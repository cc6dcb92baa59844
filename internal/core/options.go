package core

import (
	"errors"
	"fmt"
	"time"

	"globedoc/internal/cert"
	"globedoc/internal/object"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
	"globedoc/internal/vcache"
)

// DefaultFetchWorkers is FetchAll's element fan-out when
// Options.FetchWorkers is zero.
const DefaultFetchWorkers = 4

// DefaultMaxBindings bounds the verified-binding cache when
// Options.MaxBindings is zero: enough for every document of the paper's
// testbed workloads, small enough that a many-OID crawl cannot hold a
// connection per object forever.
const DefaultMaxBindings = 256

// ErrInvalidOptions wraps every NewClient validation failure, so callers
// can errors.Is against one sentinel while the message names the exact
// offending field.
var ErrInvalidOptions = errors.New("core: invalid options")

// Options configures a Client at construction. The zero value is valid:
// no identity certification, cold bindings on every fetch, default
// telemetry, the real clock, and default concurrency bounds. Zero-valued
// knobs mean "use the documented default"; negative values are rejected
// by NewClient. The replica connections' retry policy (which also bounds
// a warm binding's certificate refresh) and pool bound live on the
// binder's transport config, and the trace sample rate on the
// telemetry's tracer.
type Options struct {
	// Trust is the user's trusted-CA store; nil disables the identity
	// step entirely.
	Trust *cert.TrustStore
	// RequireIdentity makes fetches fail unless some identity
	// certificate matches the trust store (the e-commerce posture of
	// §3.1.2). When false, identity is best-effort: the subject is
	// reported when available.
	RequireIdentity bool
	// CacheBindings keeps verified bindings warm across fetches; each
	// element access then costs one round trip plus verification.
	// Singleflight deduplication of binding establishment requires it
	// (a shared pipeline run is only useful if its result is shareable).
	CacheBindings bool
	// Telemetry receives the pipeline spans, cache/failover counters and
	// latency histograms; nil falls back to telemetry.Default().
	Telemetry *telemetry.Telemetry
	// Now is the clock used for freshness checks; tests replace it.
	// Nil means time.Now.
	Now func() time.Time
	// FetchWorkers bounds how many elements FetchAll retrieves in
	// parallel. 0 means DefaultFetchWorkers; 1 restores the serial
	// behaviour.
	FetchWorkers int
	// DisableBatchFetch makes FetchAll retrieve every element with a warm
	// obj.bind of its own instead of carrying them all in one exchange —
	// the serial-RPC ablation the multiplex benchmark compares against.
	// Verification is identical either way.
	DisableBatchFetch bool
	// VCache is the verified-content cache: element bytes reused under
	// their certificate hash and memoized certificate-signature verdicts
	// (DESIGN.md §11). Nil disables both, reproducing the uncached
	// pipeline exactly — the -disable-vcache ablation. A cache may be
	// shared by several clients.
	VCache *vcache.Cache
	// MaxBindings bounds the verified-binding cache; beyond it the
	// least-recently-used binding is evicted and its connection closed.
	// 0 means DefaultMaxBindings. Only meaningful with CacheBindings.
	MaxBindings int
	// Selector is the replica-selection policy: it ranks the location
	// service's candidate addresses before the pipeline tries them, and
	// failover follows its order. Nil means HealthRankedSelector with no
	// zone (rank by measured RTT and failure evidence alone);
	// OrderedSelector restores the pre-selector location-order behaviour.
	Selector Selector
}

// validate rejects nonsense configurations with errors that name the
// offending field and wrap ErrInvalidOptions.
func (o Options) validate(binder *object.Binder) error {
	if binder == nil {
		return fmt.Errorf("%w: nil binder", ErrInvalidOptions)
	}
	if o.FetchWorkers < 0 {
		return fmt.Errorf("%w: FetchWorkers %d is negative (0 means the default %d, 1 means serial)",
			ErrInvalidOptions, o.FetchWorkers, DefaultFetchWorkers)
	}
	if o.MaxBindings < 0 {
		return fmt.Errorf("%w: MaxBindings %d is negative (0 means the default %d)",
			ErrInvalidOptions, o.MaxBindings, DefaultMaxBindings)
	}
	if binder.Transport.DialTimeout < 0 {
		return fmt.Errorf("%w: binder dial timeout %v is negative (0 means unbounded)",
			ErrInvalidOptions, binder.Transport.DialTimeout)
	}
	if binder.Transport.CallTimeout < 0 {
		return fmt.Errorf("%w: binder call timeout %v is negative (0 means unbounded)",
			ErrInvalidOptions, binder.Transport.CallTimeout)
	}
	if binder.Transport.Pool.MaxConns < 0 {
		return fmt.Errorf("%w: binder pool MaxConns %d is negative (0 means the default %d)",
			ErrInvalidOptions, binder.Transport.Pool.MaxConns, transport.DefaultMaxConns)
	}
	if binder.MaxCandidates < 0 {
		return fmt.Errorf("%w: binder MaxCandidates %d is negative (0 means try all)",
			ErrInvalidOptions, binder.MaxCandidates)
	}
	return nil
}
