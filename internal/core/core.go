// Package core implements the GlobeDoc security architecture — the
// paper's primary contribution (§3): end-to-end integrity guarantees for
// Web documents replicated on untrusted servers.
//
// The exported Client runs the complete secure-browsing pipeline of
// Figure 3 for every fetch:
//
//  1. resolve the object name to a self-certifying OID (secure naming
//     service);
//  2. find the closest replica (untrusted location service);
//  3. retrieve the object's public key from the replica and check
//     SHA-1(key) == OID — self-certification, no CA involved;
//  4. optionally retrieve CA-signed identity certificates and match
//     them against the user's trusted-CA list ("Certified as: ...");
//  5. retrieve the integrity certificate and verify its signature
//     under the object key;
//  6. retrieve the requested page element;
//  7. verify authenticity (hash), consistency (requested name) and
//     freshness (validity interval).
//
// The steps are checks, not messages, and a client takes bytes from a
// replica only through obj.bind. A cold bind collects key, certificates
// and wanted elements in one exchange and runs the checks over them; a
// warm one names the certificate it holds — and, refreshing a lapsed one,
// the hashes of the cached bytes it holds — and is answered with elements
// alone, or with the replica's newer certificate beside them, which is
// verified under the trusted key and adopted — so an honest owner update
// is never mistaken for tampering. Fetch and FetchAll run one fetch plan
// (fetchPlan; DESIGN.md §9): a replica that fails or tampers is abandoned
// for the next-nearest honest one rather than ending the fetch.
//
// Every fetch is traced as one span tree: a root fetch.secure span with
// one child per pipeline step (the 14 steps of PipelineSteps; DESIGN.md
// §8 maps them to the paper's Figure 3). The per-phase Timing the
// benchmark harness reads is derived from those spans' durations, so the
// tracer and the Figure-4 numbers can never disagree.
//
// The client is safe for concurrent use. Concurrent fetches of the same
// cold OID share a single pipeline run (singleflight, when binding
// caching is on) and RPCs to one replica run in parallel over a bounded
// connection pool; FetchAll verifies the page it holds in one serial pass.
// Every public method takes a context.Context that cancels slot waits,
// dials and in-flight RPCs. See DESIGN.md §9 for the full
// concurrency model.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"globedoc/internal/cert"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/location"
	"globedoc/internal/lru"
	"globedoc/internal/object"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
	"globedoc/internal/vcache"
)

// Root span names for the operations this client runs.
const (
	SpanSecureFetch = "fetch.secure"   // one FetchNamed/Fetch
	SpanFetchAll    = "fetch.all"      // whole-object download
	SpanElements    = "fetch.elements" // verified table of contents
)

// Span names for the secure-binding pipeline steps (paper §3.2, Fig. 3).
// A cold, identity-checking fetch runs all fourteen; a warm fetch skips
// steps 3–10 (that is the point of the verified-binding cache).
const (
	StepNameResolve        = "name.resolve"                // 1: hybrid name -> OID
	StepBindingCache       = "binding.cache"               // 2: verified-binding cache consult
	StepLocationLookup     = "location.lookup"             // 3: OID -> contact addresses
	StepDial               = "replica.dial"                // 4: connect (the hello rides the first bind.fetch)
	StepKeyFetch           = "key.fetch"                   // 5: retrieve object public key
	StepKeyVerify          = "key.verify"                  // 6: SHA-1(key) == OID
	StepNameCertFetch      = "namecert.fetch"              // 7: retrieve identity certificates
	StepNameCertVerify     = "namecert.verify"             // 8: match against trusted CAs
	StepCertFetch          = "icert.fetch"                 // 9: retrieve integrity certificate
	StepCertVerify         = "icert.verify"                // 10: verify signature under object key
	StepElementFetch       = "element.fetch"               // 11: content transfer
	StepVerifyConsistency  = "element.verify.consistency"  // 12: entry matches requested name
	StepVerifyAuthenticity = "element.verify.authenticity" // 13: SHA-1(content) == entry hash
	StepVerifyFreshness    = "element.verify.freshness"    // 14: validity interval covers now
)

// StepBindFetch is the span recorded for each obj.bind exchange, cold or
// warm. The steps it served then record zero-length spans, each credited
// its byte share of the exchange in its Timing field.
const StepBindFetch = "bind.fetch"

// StepVCacheLookup is the span recorded when the verified-content cache
// is consulted for a certificate-fresh element hash (Options.VCache).
// A hit replaces steps 11–13: the bytes were verified on insertion and
// the current verified certificate still vouches for their hash.
const StepVCacheLookup = "vcache.lookup"

// PipelineSteps lists the 14 binding-pipeline step span names in
// execution order.
var PipelineSteps = []string{
	StepNameResolve,
	StepBindingCache,
	StepLocationLookup,
	StepDial,
	StepKeyFetch,
	StepKeyVerify,
	StepNameCertFetch,
	StepNameCertVerify,
	StepCertFetch,
	StepCertVerify,
	StepElementFetch,
	StepVerifyConsistency,
	StepVerifyAuthenticity,
	StepVerifyFreshness,
}

// ErrSecurityCheckFailed wraps every verification failure: whatever the
// replica or the intermediate services did, the client refused the data.
// The paper's proxy renders this as the "Security Check Failed" page.
var ErrSecurityCheckFailed = errors.New("core: security check failed")

// ErrBindingFailed wraps every failure to establish a verified binding —
// name resolved, but no candidate replica could be located, dialled and
// verified. Callers distinguish it from per-element failures with
// errors.Is; the underlying cause (e.g. transport.ErrDialTimeout,
// object.ErrNoReplica, or a SecurityError) stays reachable through
// errors.Is/As too.
var ErrBindingFailed = errors.New("core: binding establishment failed")

// SecurityError carries which phase of the pipeline rejected the fetch.
type SecurityError struct {
	Phase string // e.g. "self-certification", "integrity-certificate", "element"
	Err   error
}

func (e *SecurityError) Error() string {
	return fmt.Sprintf("core: security check failed at %s: %v", e.Phase, e.Err)
}

// Unwrap makes errors.Is(err, ErrSecurityCheckFailed) and errors.Is
// against the underlying cert/globeid errors both work.
func (e *SecurityError) Unwrap() []error { return []error{ErrSecurityCheckFailed, e.Err} }

// Timing is the per-phase breakdown of one secure fetch, mirroring the
// timers the paper placed "in various parts of the proxy and server
// code". Each field is filled from the corresponding pipeline span's
// duration (Bind sums location.lookup and replica.dial; ElementVerify
// sums the three element.verify.* steps).
type Timing struct {
	NameResolve    time.Duration // hybrid name -> OID
	Bind           time.Duration // location lookup + connect
	KeyFetch       time.Duration // retrieve object public key
	KeyVerify      time.Duration // SHA-1(key) == OID
	NameCertFetch  time.Duration // retrieve CA identity certificates
	NameCertVerify time.Duration // match against trusted CAs
	CertFetch      time.Duration // retrieve integrity certificate
	CertVerify     time.Duration // verify certificate signature
	ElementFetch   time.Duration // retrieve page element content
	ElementVerify  time.Duration // hash + freshness + consistency checks
}

// Security returns the time spent on security-specific operations — the
// paper's Figure 4 numerator: "retrieving the object's public key,
// verifying its SHA-1 hash matches the object Id, retrieving the object
// certificate and verifying it, computing the hash of the page element
// and verifying it against the hash in the certificate".
func (t Timing) Security() time.Duration {
	return t.KeyFetch + t.KeyVerify + t.NameCertFetch + t.NameCertVerify +
		t.CertFetch + t.CertVerify + t.ElementVerify
}

// Total returns the full client-perceived fetch time.
func (t Timing) Total() time.Duration {
	return t.NameResolve + t.Bind + t.Security() + t.ElementFetch
}

// OverheadPercent returns security time as a percentage of total.
func (t Timing) OverheadPercent() float64 {
	total := t.Total()
	if total == 0 {
		return 0
	}
	return 100 * float64(t.Security()) / float64(total)
}

// Add accumulates u into t (for averaging across iterations).
func (t *Timing) Add(u Timing) {
	t.NameResolve += u.NameResolve
	t.Bind += u.Bind
	t.KeyFetch += u.KeyFetch
	t.KeyVerify += u.KeyVerify
	t.NameCertFetch += u.NameCertFetch
	t.NameCertVerify += u.NameCertVerify
	t.CertFetch += u.CertFetch
	t.CertVerify += u.CertVerify
	t.ElementFetch += u.ElementFetch
	t.ElementVerify += u.ElementVerify
}

// Scale divides every phase by n (for averaging).
func (t Timing) Scale(n int) Timing {
	if n <= 0 {
		return t
	}
	d := time.Duration(n)
	return Timing{
		NameResolve:    t.NameResolve / d,
		Bind:           t.Bind / d,
		KeyFetch:       t.KeyFetch / d,
		KeyVerify:      t.KeyVerify / d,
		NameCertFetch:  t.NameCertFetch / d,
		NameCertVerify: t.NameCertVerify / d,
		CertFetch:      t.CertFetch / d,
		CertVerify:     t.CertVerify / d,
		ElementFetch:   t.ElementFetch / d,
		ElementVerify:  t.ElementVerify / d,
	}
}

// FetchResult is one securely fetched page element.
type FetchResult struct {
	// Element is the verified element. With a verified-content cache its
	// Data is read-only: a hit shares the cache's bytes, and so does a
	// miss whose bytes the cache took as they arrived.
	Element document.Element
	// CertifiedAs is the real-world subject from the first identity
	// certificate matching the user's trust list, or "" when identity
	// certification was not requested.
	CertifiedAs string
	// ReplicaAddr is the contact address the element came from.
	ReplicaAddr string
	// Timing is the per-phase breakdown.
	Timing Timing
	// WarmBinding reports whether the verified binding cache was used
	// (skipping phases 1–5).
	WarmBinding bool
	// SharedBinding reports that this cold fetch joined a concurrent
	// fetch's binding pipeline run instead of running its own
	// (singleflight deduplication).
	SharedBinding bool
	// FromCache reports that the element bytes came from the
	// verified-content cache: the current verified certificate lists
	// their hash, so no element transfer or hashing was needed.
	FromCache bool
	// VerifiedHash is the SHA-1 the verified integrity certificate lists
	// for the element — the hash the bytes passed CheckAuthenticity
	// against, or the vcache key on a hit. Never a replica-supplied
	// value; consumers needing the content hash (the proxy's ETag) use it
	// instead of hashing Element.Data again.
	VerifiedHash [globeid.Size]byte
}

// verifiedBinding is a cached, fully verified attachment to one object
// replica: connection, self-certified key, and checked certificate. A
// binding is identified by its connection: adopting a moved replica's
// certificate makes a new binding over the same one.
type verifiedBinding struct {
	client *object.Client
	key    keys.PublicKey
	icert  *cert.IntegrityCertificate
	// certHash is the hash of icert's encoding as the replica sent it —
	// what a warm exchange names as the certificate it holds.
	certHash    [globeid.Size]byte
	certifiedAs string
}

// pipeline is the in-flight observability state of one secure operation:
// the root span every step hangs off, and the Timing being accumulated.
// Timing fields are credited from the step spans' own durations, so the
// benchmark harness and the tracer always report the same intervals.
type pipeline struct {
	tel  *telemetry.Telemetry
	root *telemetry.Span
	// single marks a one-element fetch, the one operation whose consult of
	// the binding cache (step 2) is traced and counted as a hit or miss.
	single bool
	timing Timing
}

// step runs one named pipeline step under a leaf span, crediting the
// duration its End returns to the given Timing field (nil to time
// without crediting).
func (p *pipeline) step(name string, field *time.Duration, f func() error) error {
	sp := p.root.Leaf(name)
	err := f()
	if err != nil {
		sp.Annotate("error", err.Error())
	}
	d := sp.End()
	if field != nil {
		*field += d
	}
	return err
}

// credit records step name as served by the obj.bind exchange beside it —
// a zero-length span — and credits the step's share of that exchange's
// time to field.
func (p *pipeline) credit(name string, field *time.Duration, share time.Duration) {
	sp := p.root.Leaf(name)
	sp.End()
	*field += share
}

// fresh returns a pipeline sharing this one's trace but with zeroed
// timing — the retry/failover paths report the timing of the attempt
// that succeeded, not the sum of all attempts. FetchAll's delivery uses
// it too: each element's pipeline hangs off the shared root span with its
// own Timing.
func (p *pipeline) fresh() *pipeline {
	return &pipeline{tel: p.tel, root: p.root, single: p.single}
}

// Client runs the GlobeDoc security pipeline. Construct with NewClient;
// the zero value is not usable. All methods are safe for concurrent use.
type Client struct {
	// Binder performs name resolution, location and connection. Treat as
	// read-only after NewClient (the benchmark harness reaches through
	// it to flush resolver caches).
	Binder *object.Binder

	trust           *cert.TrustStore
	requireIdentity bool
	cacheBindings   bool
	telem           *telemetry.Telemetry
	nowFn           func() time.Time
	vcache          *vcache.Cache
	maxBindings     int
	selector        Selector

	mu         sync.Mutex
	cache      map[globeid.OID]*lru.Node[bindingEntry]
	bindingLRU lru.List[bindingEntry] // front = most recently used
	flights    map[globeid.OID]*flight
}

// bindingEntry is one verified-binding cache slot, kept in LRU order so
// many-OID workloads evict the coldest connection instead of growing
// without bound.
type bindingEntry struct {
	oid globeid.OID
	vb  *verifiedBinding
}

// NewClient returns a security client over binder configured by opts.
// It rejects nonsense options (a negative binding count,
// negative timeouts or pool bounds on the binder) with errors wrapping
// ErrInvalidOptions; the zero Options is always valid. The binder's
// transport config is the one home of the replica connections' retry
// policy, pool bound and telemetry; NewClient reads it and writes
// neither it nor the tracer.
func NewClient(binder *object.Binder, opts Options) (*Client, error) {
	if err := opts.validate(binder); err != nil {
		return nil, err
	}
	nowFn := opts.Now
	if nowFn == nil {
		nowFn = time.Now
	}
	maxBindings := opts.MaxBindings
	if maxBindings == 0 {
		maxBindings = DefaultMaxBindings
	}
	if opts.VCache != nil {
		tel := telemetry.Or(opts.Telemetry)
		opts.VCache.WireMetrics(tel.VCacheEvictions, tel.VCacheBytes, tel.SigCacheHits)
	}
	selector := opts.Selector
	if selector == nil {
		selector = HealthRankedSelector{}
	}
	return &Client{
		Binder:          binder,
		trust:           opts.Trust,
		requireIdentity: opts.RequireIdentity,
		cacheBindings:   opts.CacheBindings,
		telem:           opts.Telemetry,
		nowFn:           nowFn,
		vcache:          opts.VCache,
		maxBindings:     maxBindings,
		selector:        selector,
		cache:           make(map[globeid.OID]*lru.Node[bindingEntry]),
		flights:         make(map[globeid.OID]*flight),
	}, nil
}

func (c *Client) tel() *telemetry.Telemetry { return telemetry.Or(c.telem) }

func (c *Client) now() time.Time { return c.nowFn() }

// secErr records the failed check in security_check_failures_total{phase}
// and returns the wrapped SecurityError.
func (c *Client) secErr(phase string, err error) error {
	c.tel().SecurityCheckFailures.With(phase).Inc()
	return &SecurityError{Phase: phase, Err: err}
}

// Close drops all cached bindings and their connections.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for oid, node := range c.cache {
		node.Value.vb.client.Close()
		c.bindingLRU.Remove(node)
		delete(c.cache, oid)
	}
	c.tel().BindingCacheEntries.Set(0)
}

// FetchNamed securely fetches one element of the object bound to name.
// ctx cancels name resolution, binding establishment and the element
// transfer.
func (c *Client) FetchNamed(ctx context.Context, name, element string) (FetchResult, error) {
	ctx, p := c.newPipeline(ctx, SpanSecureFetch)
	p.root.Annotate("object", name)
	p.root.Annotate("element", element)
	var oid globeid.OID
	err := p.step(StepNameResolve, &p.timing.NameResolve, func() error {
		var rerr error
		oid, rerr = c.Binder.Names.Resolve(ctx, name)
		return rerr
	})
	if err != nil {
		p.finish("error")
		return FetchResult{}, fmt.Errorf("core: resolving %q: %w", name, err)
	}
	return c.finishFetch(ctx, p, oid, element)
}

// Fetch securely fetches one element of the object identified by oid.
func (c *Client) Fetch(ctx context.Context, oid globeid.OID, element string) (FetchResult, error) {
	ctx, p := c.newPipeline(ctx, SpanSecureFetch)
	p.root.Annotate("oid", oid.Short())
	p.root.Annotate("element", element)
	return c.finishFetch(ctx, p, oid, element)
}

// newPipeline starts the root span of one client operation and threads
// its span context into ctx, so every RPC issued below it — including
// name resolution — joins the same trace, and the servers on the far
// side adopt it for their serve spans. A caller that already carries a
// trace in ctx (the proxy's per-request span) is joined rather than
// shadowed, keeping one trace per user-visible request.
func (c *Client) newPipeline(ctx context.Context, rootName string) (context.Context, *pipeline) {
	tel := c.tel()
	p := &pipeline{tel: tel, root: tel.Tracer.StartSpanFrom(rootName, telemetry.SpanContextFrom(ctx))}
	return telemetry.ContextWith(ctx, p.root), p
}

func (p *pipeline) finish(outcome string) {
	p.root.Annotate("outcome", outcome)
	p.root.End()
}

// finishFetch runs the fetch plan for one element below name resolution,
// closes the root span, and feeds the fetch-latency and security-overhead
// histograms from the same Timing the caller receives.
func (c *Client) finishFetch(ctx context.Context, p *pipeline, oid globeid.OID, element string) (FetchResult, error) {
	p.single = true
	pl := fetchPlan{oid: oid, element: element}
	if err := c.run(ctx, p, &pl, nil); err != nil {
		p.finish("error")
		return FetchResult{}, err
	}
	p.finish("ok")
	res := pl.res
	// Exemplar: stamp the latency bucket with this trace's ID (when the
	// trace is exported) so an outlier bucket links to a concrete trace.
	var exemplar uint64
	if sc := p.root.Context(); sc.Sampled {
		exemplar = sc.TraceID
	}
	p.tel.FetchLatency.ObserveExemplar(res.Timing.Total().Seconds(), exemplar)
	p.tel.SecurityOverhead.Observe(res.Timing.OverheadPercent())
	return res, nil
}

// fetchPlan is one Fetch or FetchAll. Both run the same plan (DESIGN.md
// §9, "Fetch plan"):
//
//  1. bind: cached, shared through singleflight, or established past the
//     replicas excluded so far — an established binding brings the wanted
//     elements' bytes with it, the prefill;
//  2. decide each wanted entry and its freshness before any byte moves;
//  3. take each entry's bytes from the verified-content cache or the
//     prefill, and ask for what they lack in warm exchanges until every
//     entry is in hand; an exchange also refreshes a lapsed certificate
//     and adopts a moved one, which decides every entry again;
//  4. verifyElement, then deliver, with no further I/O;
//  5. on failure, make the one recovery decision (recover).
//
// FetchAll wants every name the certificate lists and delivers them in
// one serial pass; Elements wants no element's bytes and delivers the
// certificate's entries, decided fresh like FetchAll's.
type fetchPlan struct {
	oid     globeid.OID
	element string // Fetch's one wanted name
	all     bool   // FetchAll: every name the certificate lists
	toc     bool   // Elements: every entry, none of their bytes
	// res is Fetch's result; results is FetchAll's ordered verified
	// prefix, every element on success; entries is Elements' table.
	res     FetchResult
	results []FetchResult
	entries []cert.ElementEntry
}

// run is one attempt of the plan over one binding; a failed attempt ends
// in recover.
func (c *Client) run(ctx context.Context, p *pipeline, pl *fetchPlan, excluded map[string]bool) error {
	b, pre, err := c.bind(ctx, p, pl, c.now(), excluded)
	if err != nil {
		return err
	}
	if err := c.fetch(ctx, p, pl, &b, pre); err != nil {
		return c.recover(ctx, p, pl, b, err, excluded)
	}
	b.release()
	return nil
}

// fetch is steps 2–4 of one attempt over b. It takes each wanted entry's
// bytes from the verified-content cache or the prefill (take), and asks
// b's replica for the rest, and for a certificate to replace a lapsed
// one, in warm exchanges until every entry is in hand. A lapse stands
// unless the replica moved on to a fresh certificate; its exchange names
// beside the missing entries the cached ones, each with the hash its
// bytes are held under (refreshed), so a move carries exactly the
// elements that changed and take finds the rest in the cache. A move
// decides every entry again under the new certificate, so all of a page
// is delivered under one. An exchange that carries none of what it asked
// for, and does not move, earns one more; a second in a row ends the
// attempt with the replica's refusal, and declined elements are asked
// for again together.
func (c *Client) fetch(ctx context.Context, p *pipeline, pl *fetchPlan, b *boundFetch, pre prefill) error {
	var one [1]cert.ElementEntry      // Fetch's wanted entry, decided off the heap
	var oneIn [1]held                 // its bytes
	var oneName [1]string             // and its name while they are missing
	var oneHash [1][globeid.Size]byte // or the hash they are held under, on a lapse
	entries, lapsed, err := c.entries(pl, *b, one[:0])
	if err != nil {
		return err
	}
	if lapsed != nil && !b.warm {
		return lapsed // a cold binding's replica replayed stale signed state
	}
	in := oneIn[:]
	switch {
	case pl.toc:
		in = nil // no bytes are wanted
	case pl.all:
		in = make([]held, len(entries))
	}
	for declines := 0; ; {
		missing := oneName[:0]
		if in != nil {
			missing = c.take(entries, in, pre, b.now, missing)
		}
		if lapsed == nil && len(missing) == 0 {
			break
		}
		if declines == 2 {
			return fmt.Errorf("core: fetching element %q: the replica declined it", missing[0])
		}
		names, hashes := missing, [][globeid.Size]byte(nil)
		if lapsed != nil && in != nil {
			names, hashes = refreshed(entries, in, oneName[:0], oneHash[:0])
		}
		b.refreshing = lapsed != nil
		var moved bool
		if moved, pre, err = c.exchange(ctx, p, b, pl.all && hashes == nil && len(names) == len(entries), names, hashes, pre); err != nil {
			return err
		}
		b.refreshing = false
		if moved || lapsed != nil {
			if entries, lapsed, err = c.entries(pl, *b, one[:0]); err == nil {
				err = lapsed
			}
			if err != nil {
				return err
			}
			if moved {
				p.revalidated(b.vb.icert, names, hashes)
			}
			if in != nil {
				if clear(in); len(in) != len(entries) {
					in = make([]held, len(entries)) // the new certificate lists another page
				}
			}
			declines = 0
			continue
		}
		declines++
		for _, name := range missing {
			if _, ok := pre.lookup(name); ok {
				declines = 0
				break
			}
		}
	}
	switch {
	case pl.toc:
		pl.entries = append([]cert.ElementEntry(nil), entries...)
	case pl.all:
		pl.results, err = c.every(ctx, p, *b, entries, in)
	default:
		pl.res, err = c.element(p, *b, entries[0], in[0])
	}
	return err
}

// refreshed is what a lapse's exchange names, appended to names and
// hashes index for index: every wanted entry whose bytes the
// verified-content cache gave, with the hash they are held under, and
// every missing one with none. hashes is nil when no entry is held.
func refreshed(entries []cert.ElementEntry, in []held, names []string, hashes [][globeid.Size]byte) ([]string, [][globeid.Size]byte) {
	holds := false
	for i, e := range entries {
		switch {
		case in[i].cached:
			names, hashes, holds = append(names, e.Name), append(hashes, e.Hash), true
		case !in[i].ok:
			names, hashes = append(names, e.Name), append(hashes, [globeid.Size]byte{})
		}
	}
	if !holds {
		hashes = nil
	}
	return names, hashes
}

// revalidated counts in vcache_revalidations_total the entries a lapse's
// exchange named as held (names and hashes, index for index) that icert,
// the certificate the replica moved to, still lists under the same hash:
// the element transfers the refresh avoided.
func (p *pipeline) revalidated(icert *cert.IntegrityCertificate, names []string, hashes [][globeid.Size]byte) {
	for i, h := range hashes {
		if h == ([globeid.Size]byte{}) {
			continue
		}
		if e, err := icert.Lookup(names[i]); err == nil && e.Hash == h {
			p.tel.VCacheRevalidations.Inc()
		}
	}
}

// entries is step 2 for pl over b: the wanted certificate entries, decided
// from the certificate alone, with the first freshness failure among them
// as lapsed — a lapsed certificate costs no element transfer. FetchAll
// and Elements want the certificate's own entries; Fetch's one entry is
// appended to buf, which the caller keeps on its stack.
func (c *Client) entries(pl *fetchPlan, b boundFetch, buf []cert.ElementEntry) (entries []cert.ElementEntry, lapsed, err error) {
	if pl.all || pl.toc {
		entries = b.vb.icert.Entries
	} else {
		entry, err := b.vb.icert.CheckConsistency(pl.element)
		if err != nil {
			return nil, nil, err
		}
		entries = append(buf, entry)
	}
	for _, e := range entries {
		if ferr := e.CheckFreshness(b.now); ferr != nil {
			return entries, ferr, nil
		}
	}
	return entries, nil, nil
}

// prefill is element bytes a replica already sent in obj.bind replies,
// in name order, each name once: untrusted like any replica bytes — each
// still runs verifyElement — so they travel beside the binding, never
// inside it.
type prefill []prefetched

// lookup returns the prefilled element named name.
func (pre prefill) lookup(name string) (prefetched, bool) {
	i, ok := slices.BinarySearchFunc(pre, name, func(pf prefetched, name string) int { return strings.Compare(pf.name, name) })
	if !ok {
		return prefetched{}, false
	}
	return pre[i], true
}

// prefetched is one prefilled element, under the name its reply carried
// it, and its share of the exchange that carried it. inFrame reports
// that the reply the element arrived in is little more than the elements
// it carried (see frameShare), as on a warm content miss of more than a
// few hundred bytes or a FetchAll of a composite document, so the cache
// may keep the bytes where they are.
// frame is then the reply's vcache handle when sibling elements share it,
// and nil when the element is the reply's only one: it owns the frame.
type prefetched struct {
	name    string
	elem    document.Element
	share   time.Duration
	inFrame bool
	frame   *vcache.Frame
}

// frameShare decides when a reply's elements keep its frame: when the
// rest of the reply — framing, names, content types, any key,
// certificate or declined item — comes to at most 1/frameShare of the
// element bytes it carried. The rule is by size, not by which sections a
// reply has, so a replica that pads any field only turns its elements
// into clones: the cached elements of one frame pin at most 9/8 of the
// bytes vcache.Bytes counts for it, plus the frame's header.
const frameShare = 8

// held is a wanted entry's bytes in the plan's hands: taken from the
// verified-content cache (cached), or carried in a reply.
type held struct {
	prefetched
	ok, cached bool
}

// take is step 3's decision for each entry whose bytes are not yet in
// hand: they are taken from the verified-content cache — Get re-arms
// their TTL to the entry's validity bound, and no later eviction or
// Reconcile can take them back — or from the prefill. It appends the
// names of the entries still missing to buf.
func (c *Client) take(entries []cert.ElementEntry, in []held, pre prefill, now time.Time, buf []string) (missing []string) {
	missing = buf
	for i, e := range entries {
		if in[i].ok {
			continue
		}
		if c.vcache != nil {
			if cached, hit := c.vcache.Get(e.Hash, now, e.Expires); hit {
				in[i] = held{prefetched: prefetched{elem: document.Element{ContentType: cached.ContentType, Data: cached.Data}}, ok: true, cached: true}
				continue
			}
		}
		if pf, ok := pre.lookup(e.Name); ok {
			in[i] = held{prefetched: pf, ok: true}
			continue
		}
		missing = append(missing, e.Name)
	}
	return missing
}

// element is step 4 for one entry that fetch decided fresh and holds the
// bytes of. Bytes taken from the verified-content cache are served as
// they are. Bytes a reply carried are verified and handed to the cache,
// which owns them from then on: bytes whose reply passes frameShare go in
// as they arrived, with the reply's vcache.Frame when siblings share it,
// and the result shares them; any other element goes in as an exact-size
// clone, so a cached element never pins a padded frame and vcache.Bytes
// stays the memory the cache holds. The element is named as its
// certificate entry names it: the name inside a reply's element is
// covered by no hash.
func (c *Client) element(p *pipeline, b boundFetch, entry cert.ElementEntry, h held) (FetchResult, error) {
	elem := document.Element{Name: entry.Name, ContentType: h.elem.ContentType, Data: h.elem.Data}
	if c.vcache != nil {
		p.lookedUp(h.cached)
		if h.cached {
			return b.result(p, elem, entry.Hash, true), nil
		}
	}
	// Credit this element's share of the exchange that carried it to
	// ElementFetch, so the Figure-4 phase accounting still describes where
	// the time went.
	p.credit(StepElementFetch, &p.timing.ElementFetch, h.share)
	verified, err := c.verifyElement(p, b.vb, entry.Name, elem.Data, b.now)
	if err != nil {
		return FetchResult{}, err
	}
	if c.vcache != nil {
		data := elem.Data
		if !h.inFrame {
			data = make([]byte, len(elem.Data))
			copy(data, elem.Data)
		}
		c.vcache.Put(b.vb.icert.ObjectID, verified.Hash, vcache.Element{ContentType: elem.ContentType, Data: data, Frame: h.frame}, verified.Expires)
	}
	return b.result(p, elem, verified.Hash, false), nil
}

// recover is step 5, the plan's one recovery decision after an attempt
// over b failed with err — the same for Fetch and FetchAll, vcache on or
// off. The binding is dropped whatever the decision:
//
//   - a replica fault while refreshing a lapsed certificate re-binds
//     (refresh);
//   - any other fault, or tampering (an authenticity or consistency
//     failure, or a moved certificate that failed its check) fails over:
//     the OID's cached content is invalidated, the failover counted, the
//     replica's health charged — the transport saw only successful RPCs —
//     and the plan rerun past that replica;
//   - anything else — a lapse with nothing newer, a name the certificate
//     does not list — is rejected, invalidating cached content too; the
//     caller's cancellation, no replica's fault, invalidates nothing.
//
// A failover that fails too reports the failure that caused it, with the
// verified prefix that went with it.
func (c *Client) recover(ctx context.Context, p *pipeline, pl *fetchPlan, b boundFetch, err error, excluded map[string]bool) error {
	c.dropBinding(pl.oid, b.vb)
	phase := checkPhase(err)
	fault := phase == "" && !errors.As(err, new(*SecurityError))
	switch {
	case fault && ctx.Err() != nil:
		return err
	case fault && b.refreshing:
		return c.refresh(ctx, p, pl, excluded)
	}
	if c.vcache != nil {
		// Bytes vouched for under the OID are suspect now: re-fetch and
		// re-verify them rather than serve them from the cache.
		c.vcache.InvalidateOID(pl.oid)
	}
	if phase == "" || errors.Is(err, cert.ErrAuthenticity) || errors.Is(err, cert.ErrConsistency) {
		addr := b.vb.client.Addr()
		p.tel.Failovers.Inc()
		p.tel.Health.RecordFailure(addr)
		prefix := pl.results
		if c.run(ctx, p.fresh(), pl, excluding(excluded, addr)) == nil {
			return nil
		}
		pl.results = prefix
	}
	if phase != "" {
		return c.secErr(phase, err)
	}
	return err
}

// checkPhase is the security_check_failures_total phase of a failed
// element check, or "" when err is no element check's: a fault, a
// cancellation, or a check already counted where it was made.
func checkPhase(err error) string {
	switch {
	case errors.As(err, new(*SecurityError)):
		return ""
	case errors.Is(err, cert.ErrFreshness):
		return "freshness"
	case errors.Is(err, cert.ErrAuthenticity), errors.Is(err, cert.ErrConsistency), errors.Is(err, cert.ErrUnknownElement):
		return "element"
	}
	return ""
}

// refresh reruns the plan through the binder's retry policy
// (Binder.Transport.Retry), by default two attempts without delay. A
// security failure inside a rerun — a fresh certificate that is *still*
// stale, say — is permanent: the policy stops there.
func (c *Client) refresh(ctx context.Context, p *pipeline, pl *fetchPlan, excluded map[string]bool) error {
	policy := c.Binder.Transport.Retry
	if policy == nil {
		policy = &transport.RetryPolicy{MaxAttempts: 2}
	}
	return policy.Do(func() error {
		err := c.run(ctx, p.fresh(), pl, excluded)
		if errors.Is(err, ErrSecurityCheckFailed) {
			return transport.Permanent(err)
		}
		return err
	})
}

// excluding returns set plus addr, leaving set — which an enclosing
// attempt still ranks candidates against — as it was.
func excluding(set map[string]bool, addr string) map[string]bool {
	next := make(map[string]bool, len(set)+1)
	for a := range set {
		next[a] = true
	}
	next[addr] = true
	return next
}

// boundFetch is what one attempt's element fetches share: its verified
// binding and how that was come by, and its clock reading. Only verified
// state belongs here — trustflow tracks taint per object, so the
// prefill's unverified bytes travel beside it, not inside it.
type boundFetch struct {
	oid          globeid.OID
	vb           *verifiedBinding
	now          time.Time
	warm, shared bool
	// owned: nothing else can reach the binding — it is cold, not shared
	// with a concurrent fetch and not parked in the cache — so the
	// operation must close its connection (release).
	owned bool
	// refreshing: an exchange refreshing a lapsed certificate is in
	// flight, so a fault ends in a re-bind rather than a failover.
	refreshing bool
}

// bind returns the verified binding pl's fetches run over: the cached
// one (step 2) when there is one, otherwise one established — or shared
// with a concurrent fetch of the object — past the excluded replicas. A
// binding this call established comes with the prefill its bind reply
// carried; a cached or shared one comes with none.
func (c *Client) bind(ctx context.Context, p *pipeline, pl *fetchPlan, now time.Time, excluded map[string]bool) (boundFetch, prefill, error) {
	var cacheSp telemetry.Leaf
	if p.single {
		cacheSp = p.root.Leaf(StepBindingCache)
	}
	b := boundFetch{oid: pl.oid, now: now}
	if c.cacheBindings {
		c.mu.Lock()
		b.vb, b.warm = c.lookupBindingLocked(pl.oid)
		c.mu.Unlock()
	}
	if p.single {
		outcome, counter := "miss", p.tel.BindingCacheMisses
		if b.warm {
			outcome, counter = "hit", p.tel.BindingCacheHits
		}
		cacheSp.Annotate("outcome", outcome)
		if c.cacheBindings {
			counter.Inc()
		} else {
			cacheSp.Annotate("enabled", "false")
		}
		cacheSp.End()
	}
	var pre prefill
	if !b.warm {
		var err error
		if b.vb, pre, b.shared, err = c.establishBinding(ctx, p, pl, now, excluded); err != nil {
			return boundFetch{}, nil, err
		}
		b.owned = !b.shared && !c.cacheBindings
	}
	return b, pre, nil
}

// release ends the operation's use of the binding, on every exit that
// did not already drop it.
func (b boundFetch) release() {
	if b.owned {
		b.vb.client.Close()
	}
}

// result is the FetchResult for elem, whose bytes b's verified
// certificate vouches for under hash, served under b's binding.
func (b boundFetch) result(p *pipeline, elem document.Element, hash [globeid.Size]byte, fromCache bool) FetchResult {
	return FetchResult{
		Element:       elem,
		VerifiedHash:  hash,
		CertifiedAs:   b.vb.certifiedAs,
		ReplicaAddr:   b.vb.client.Addr(),
		Timing:        p.timing,
		WarmBinding:   b.warm,
		SharedBinding: b.shared,
		FromCache:     fromCache,
	}
}

// lookedUp records, under a vcache.lookup span and in the hit/miss
// counters, whether the verified-content cache supplied a delivered
// element's bytes: once per element, however often the plan decided it.
func (p *pipeline) lookedUp(hit bool) {
	sp := p.root.Leaf(StepVCacheLookup)
	outcome, counter := "miss", p.tel.VCacheMisses
	if hit {
		outcome, counter = "hit", p.tel.VCacheHits
	}
	sp.Annotate("outcome", outcome)
	sp.End()
	counter.Inc()
}

// verifyElement runs the three per-element checks as separate pipeline
// steps, all credited to Timing.ElementVerify, and returns the
// certificate entry the content was verified against. The decomposed
// cert methods are the same code VerifyElement composes, in the same
// order. CheckAuthenticity is the one SHA-1 a fetched element costs.
func (c *Client) verifyElement(p *pipeline, vb *verifiedBinding, element string, content []byte, now time.Time) (cert.ElementEntry, error) {
	var entry cert.ElementEntry
	if err := p.step(StepVerifyConsistency, &p.timing.ElementVerify, func() error {
		var cerr error
		entry, cerr = vb.icert.CheckConsistency(element)
		return cerr
	}); err != nil {
		return cert.ElementEntry{}, err
	}
	if err := p.step(StepVerifyAuthenticity, &p.timing.ElementVerify, func() error {
		return entry.CheckAuthenticity(content)
	}); err != nil {
		return cert.ElementEntry{}, err
	}
	if err := p.step(StepVerifyFreshness, &p.timing.ElementVerify, func() error {
		return entry.CheckFreshness(now)
	}); err != nil {
		return cert.ElementEntry{}, err
	}
	return entry, nil
}

// establish performs phases 2–5 for pl's object: locate candidate
// replicas, then verify each in the selector's order (verifyReplica). A
// replica that fails ANY check — unreachable or malicious — is abandoned
// (counted in failovers_total) for the next, so a compromised near
// replica degrades a fetch to the next-nearest honest one; only when all
// fail does the fetch fail (the paper's worst case: denial of service),
// wrapped in ErrBindingFailed. Every run counts into
// binding_pipeline_runs_total, which the singleflight assertions read.
func (c *Client) establish(ctx context.Context, p *pipeline, pl *fetchPlan, now time.Time, excluded map[string]bool) (*verifiedBinding, prefill, error) {
	oid := pl.oid
	p.tel.PipelineRuns.Inc()
	var candidates []location.ContactAddress
	err := p.step(StepLocationLookup, &p.timing.Bind, func() error {
		var lerr error
		candidates, _, lerr = c.Binder.Candidates(ctx, oid)
		return lerr
	})
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrBindingFailed, err)
	}
	// The Selector is the one ranking code path: it orders the location
	// service's candidates (by health, RTT and zone metadata for the
	// default HealthRankedSelector) and failover below simply walks that
	// order. The chosen ranking is retained per OID for /debugz.
	candidates = c.selector.Rank(candidates, p.tel.Health)
	if len(candidates) > 0 {
		ranked := make([]string, len(candidates))
		for i, ca := range candidates {
			ranked[i] = ca.Address
		}
		p.tel.Selection.Record(oid.Short(), c.selector.Name(), ranked)
	}
	lastErr := error(object.ErrNoReplica)
	for _, ca := range candidates {
		if excluded[ca.Address] {
			continue
		}
		if ctx.Err() != nil {
			lastErr = ctx.Err()
			break
		}
		vb, pre, err := c.verifyReplica(ctx, p, pl, ca.Address, now)
		if err != nil {
			lastErr = err
			p.tel.Failovers.Inc()
			// A failed verification is failure evidence against the
			// address even when every RPC succeeded at the transport
			// layer (a rogue replica serving a bad key or certificate),
			// so the selector demotes detected attackers exactly like
			// dead replicas.
			p.tel.Health.RecordFailure(ca.Address)
			continue
		}
		return vb, pre, nil
	}
	return nil, nil, fmt.Errorf("%w: %w", ErrBindingFailed, lastErr)
}

// verifyReplica runs phases 2b–5 against one replica address: connect,
// take the replica's claims for steps 5, 7 and 9 — and the element bytes
// pl wants, the plan's prefill — in one cold obj.bind, each
// step recorded as served by it and credited its byte share, then run the
// checks of steps 6, 8 and 10 in order. The timing phases record the most
// recent attempt; Bind accumulates across attempts.
func (c *Client) verifyReplica(ctx context.Context, p *pipeline, pl *fetchPlan, addr string, now time.Time) (*verifiedBinding, prefill, error) {
	oid := pl.oid
	// Most-recent-attempt semantics: a previous failed candidate's phase
	// times are discarded; only Bind keeps accumulating.
	p.timing.KeyFetch, p.timing.KeyVerify = 0, 0
	p.timing.NameCertFetch, p.timing.NameCertVerify = 0, 0
	p.timing.CertFetch, p.timing.CertVerify = 0, 0

	// Step 4: connect to the (untrusted) replica.
	var client *object.Client
	err := p.step(StepDial, &p.timing.Bind, func() error {
		var derr error
		client, derr = c.Binder.Connect(ctx, oid, addr)
		return derr
	})
	if err != nil {
		return nil, nil, err
	}
	client.Site = c.Binder.Site
	fail := func(err error) (*verifiedBinding, prefill, error) {
		client.Close()
		return nil, nil, err
	}

	// Steps 5, 7 and 9: the replica's unverified claims, with the elements
	// pl wants — none while the verified-content cache holds bytes of the
	// object (the plan's warm exchange then asks for what it lacks).
	req := object.BindRequest{NameCerts: c.trust != nil, At: now}
	if c.vcache == nil || !c.vcache.Holds(oid) {
		if req.All = pl.all; pl.element != "" {
			req.Names = []string{pl.element}
		}
	}
	reply, share, err := c.bindExchange(ctx, p, client, req)
	if err != nil {
		return fail(err)
	}
	key, err := keys.UnmarshalPublicKey(reply.Key)
	if err != nil {
		return fail(fmt.Errorf("core: fetching object key: %w", err))
	}
	p.credit(StepKeyFetch, &p.timing.KeyFetch, share.of(len(reply.Key)))
	var nameCerts []*cert.NameCertificate
	if req.NameCerts {
		if nameCerts, err = object.DecodeCertList(reply.NameCerts); err != nil {
			return fail(fmt.Errorf("core: fetching identity certificates: %w", err))
		}
		p.credit(StepNameCertFetch, &p.timing.NameCertFetch, share.of(len(reply.NameCerts)))
	}
	icert, err := cert.UnmarshalIntegrityCertificate(reply.Cert)
	if err != nil {
		return fail(fmt.Errorf("core: fetching integrity certificate: %w", err))
	}
	p.credit(StepCertFetch, &p.timing.CertFetch, share.of(len(reply.Cert)))

	// Step 6: self-certify the object's public key.
	err = p.step(StepKeyVerify, &p.timing.KeyVerify, func() error {
		return oid.Verify(key)
	})
	if err != nil {
		return fail(c.secErr("self-certification", err))
	}

	// Step 8 (optional): identity certificates against the user's CAs.
	certifiedAs := ""
	if c.trust != nil {
		var subject string
		err = p.step(StepNameCertVerify, &p.timing.NameCertVerify, func() error {
			var verr error
			subject, verr = c.trust.FirstTrusted(nameCerts, oid, now)
			return verr
		})
		if err == nil {
			certifiedAs = subject
		} else if c.requireIdentity {
			return fail(c.secErr("identity-certificate", err))
		}
	}

	// Step 10: the integrity certificate, verified under the object key.
	if err := c.verifyCert(p, oid, key, icert, reply.Cert, nil, now); err != nil {
		return fail(c.secErr("integrity-certificate", err))
	}

	vb := &verifiedBinding{client: client, key: key, icert: icert, certHash: globeid.HashElement(reply.Cert), certifiedAs: certifiedAs}
	return vb, c.prefillOf(nil, reply, share, pl.all), nil
}

// verifyCert is step 10: icert's signature, verified under the object's
// self-certified key over raw, the bytes icert was decoded from as the
// reply carried them — and, for a certificate that is to replace held,
// that it supersedes held (cert.Supersedes, the rule a secondary's
// puller applies too): a higher signed version.
func (c *Client) verifyCert(p *pipeline, oid globeid.OID, key keys.PublicKey, icert *cert.IntegrityCertificate, raw []byte, held *cert.IntegrityCertificate, now time.Time) error {
	return p.step(StepCertVerify, &p.timing.CertVerify, func() error {
		if held != nil && !icert.Supersedes(held) {
			return errOlderCertificate
		}
		var verify func(keys.PublicKey, []byte, []byte) error
		if c.vcache != nil {
			// Memoized verification: identical certificate signatures are
			// checked once per validity window, concurrent misses share
			// one in-flight check (signature_cache_hits_total).
			verify = func(k keys.PublicKey, message, sig []byte) error {
				return c.vcache.VerifySignature(k, message, sig, icert.MaxExpiry(), now)
			}
		}
		return icert.VerifyEncoding(raw, oid, key, verify)
	})
}

// exchange asks b's replica, in one warm obj.bind naming the certificate
// b holds, for every element (all) or names — none refreshes the
// certificate alone; hashes, nil or index for index with names, are the
// ones names' bytes are held under — and adds the elements to pre. A
// replica that has moved on sends its certificate beside them: step 10
// checks it under b's key and that it is newer (verifyCert; a failure is
// the SecurityError recover fails over on), and it replaces b's binding
// over the same connection and in the binding cache, which reconciles the
// verified-content cache, and its version's elements replace pre.
func (c *Client) exchange(ctx context.Context, p *pipeline, b *boundFetch, all bool, names []string, hashes [][globeid.Size]byte, pre prefill) (moved bool, _ prefill, err error) {
	req := object.BindRequest{Have: b.vb.certHash, All: all, At: b.now}
	if !all {
		req.Names, req.Held = names, hashes
	}
	reply, share, err := c.bindExchange(ctx, p, b.vb.client, req)
	if err != nil {
		return false, pre, err
	}
	if moved = len(reply.Cert) > 0; moved {
		p.credit(StepCertFetch, &p.timing.CertFetch, share.of(len(reply.Cert)))
		icert, err := cert.UnmarshalIntegrityCertificate(reply.Cert)
		if err != nil {
			return false, pre, fmt.Errorf("core: fetching integrity certificate: %w", err)
		}
		if err := c.verifyCert(p, b.oid, b.vb.key, icert, reply.Cert, b.vb.icert, b.now); err != nil {
			return false, pre, c.secErr("integrity-certificate", err)
		}
		vb := *b.vb
		vb.icert, vb.certHash = icert, globeid.HashElement(reply.Cert)
		b.vb, pre = &vb, nil
		if c.cacheBindings {
			c.storeBinding(b.oid, b.vb)
		}
	}
	return moved, c.prefillOf(pre, reply, share, len(names) > 1 || all), nil
}

// errOlderCertificate rejects a moved replica's certificate that is not
// newer than the one the binding holds: a rollback to signed state the
// owner has already superseded.
var errOlderCertificate = errors.New("core: replica moved to a certificate no newer than the one held")

// byteShare apportions one exchange's time to its bytes.
type byteShare struct {
	d     time.Duration // the exchange's time
	total int           // the bytes it carried
}

// of is the share of the exchange's time that n of its bytes take.
func (s byteShare) of(n int) time.Duration {
	if s.total == 0 {
		return 0
	}
	return s.d * time.Duration(n) / time.Duration(s.total)
}

// bindExchange makes one obj.bind exchange under a bind.fetch span, and
// returns the reply with its byteShare. A failed exchange carried
// nothing for the steps: its time is a cost of binding to the replica.
func (c *Client) bindExchange(ctx context.Context, p *pipeline, client *object.Client, req object.BindRequest) (object.BindReply, byteShare, error) {
	sp := p.root.Leaf(StepBindFetch)
	reply, err := client.Bind(ctx, req)
	if err != nil {
		sp.Annotate("error", err.Error())
		p.timing.Bind += sp.End()
		return object.BindReply{}, byteShare{}, fmt.Errorf("core: binding: %w", err)
	}
	share := byteShare{d: sp.End(), total: len(reply.Key) + len(reply.NameCerts) + len(reply.Cert)}
	for _, it := range reply.Items {
		share.total += len(it.Element.Data)
	}
	return reply, share, nil
}

// prefillOf returns pre with the elements a bind reply carried — neither
// declined nor answered held — each with its share of the exchange and
// where the cache may keep it: the whole reply passes frameShare or fails
// it, and the elements of a passing reply share one vcache.Frame when
// there are several. The result is one new slice in name order; an
// element carried under a name already in it replaces the earlier one,
// as the later of two replies' bytes would. A batch — a reply carrying
// any element for FetchAll or for several names — is counted in
// batch_fetch_total and batch_fetch_elements_total.
func (c *Client) prefillOf(pre prefill, reply object.BindReply, share byteShare, batch bool) prefill {
	n, carried := 0, 0
	for _, it := range reply.Items {
		if it.Err == nil && !it.Held { // a declined item is asked for again
			n++
			carried += len(it.Element.Data)
		}
	}
	if n == 0 {
		return pre
	}
	inFrame := frameShare*(reply.Size-carried) <= carried
	var frame *vcache.Frame
	if inFrame && n > 1 && c.vcache != nil {
		frame = c.vcache.NewFrame(int64(carried))
	}
	next := append(make(prefill, 0, len(pre)+n), pre...)
	for _, it := range reply.Items {
		if it.Err == nil && !it.Held {
			next = append(next, prefetched{name: it.Name, elem: it.Element, share: share.of(len(it.Element.Data)), inFrame: inFrame, frame: frame})
		}
	}
	if batch {
		c.tel().BatchFetches.Inc()
		c.tel().BatchElements.Add(uint64(n))
	}
	return byName(next)
}

// byName sorts pre by name, keeping of each name the element added last,
// in place. A reply's elements come in the order of the certificate's
// name-ordered entries, so the sort usually finds pre sorted already.
func byName(pre prefill) prefill {
	slices.SortStableFunc(pre, func(a, b prefetched) int { return strings.Compare(a.name, b.name) })
	out := pre[:0]
	for i, pf := range pre {
		if i+1 < len(pre) && pre[i+1].name == pf.name {
			continue // a later element under the same name replaces it
		}
		out = append(out, pf)
	}
	return out
}

// lookupBindingLocked returns the cached binding for oid, promoting it
// to most-recently-used. Caller holds c.mu.
func (c *Client) lookupBindingLocked(oid globeid.OID) (*verifiedBinding, bool) {
	node, ok := c.cache[oid]
	if !ok {
		return nil, false
	}
	c.bindingLRU.MoveToFront(node)
	return node.Value.vb, true
}

// storeBindingLocked parks a freshly verified binding, replacing any
// previous one for the same OID (closing its connection unless the new
// binding adopted it) and evicting least-recently-used bindings beyond
// the cache bound. A refreshed certificate also reconciles the
// verified-content cache: entries whose hash it no longer lists stop
// being servable the moment it is verified. Caller holds c.mu.
func (c *Client) storeBindingLocked(oid globeid.OID, vb *verifiedBinding) {
	if node, ok := c.cache[oid]; ok {
		old := &node.Value
		if old.vb.client != vb.client {
			old.vb.client.Close()
		}
		old.vb = vb
		c.bindingLRU.MoveToFront(node)
	} else {
		c.cache[oid] = c.bindingLRU.PushFront(bindingEntry{oid: oid, vb: vb})
		for len(c.cache) > c.maxBindings {
			tail := c.bindingLRU.Back()
			evicted := tail.Value
			c.bindingLRU.Remove(tail)
			delete(c.cache, evicted.oid)
			evicted.vb.client.Close()
		}
	}
	c.tel().BindingCacheEntries.Set(int64(len(c.cache)))
	// A cold bind finds nothing cached for the object: nothing to
	// reconcile, and no set of listed hashes to build.
	if c.vcache != nil && c.vcache.Holds(oid) {
		listed := make(map[[globeid.Size]byte]bool, len(vb.icert.Entries))
		for _, e := range vb.icert.Entries {
			listed[e.Hash] = true
		}
		c.vcache.Reconcile(oid, listed)
	}
}

func (c *Client) storeBinding(oid globeid.OID, vb *verifiedBinding) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.storeBindingLocked(oid, vb)
}

// dropBinding closes vb's connection and unparks the binding over it —
// vb itself, or one that adopted a moved certificate over the same
// connection since.
func (c *Client) dropBinding(oid globeid.OID, vb *verifiedBinding) {
	c.mu.Lock()
	if node, ok := c.cache[oid]; ok && node.Value.vb.client == vb.client {
		c.bindingLRU.Remove(node)
		delete(c.cache, oid)
		c.tel().BindingCacheEntries.Set(int64(len(c.cache)))
	}
	c.mu.Unlock()
	vb.client.Close()
}

// ElementsNamed resolves name and returns the verified integrity
// certificate's entries — the authenticated table of contents of the
// object. No element content is transferred.
func (c *Client) ElementsNamed(ctx context.Context, name string) ([]cert.ElementEntry, error) {
	oid, err := c.Binder.Names.Resolve(ctx, name)
	if err != nil {
		return nil, fmt.Errorf("core: resolving %q: %w", name, err)
	}
	return c.Elements(ctx, oid)
}

// Elements returns the verified certificate entries for oid. It runs the
// fetch plan wanting no element's bytes, so every entry is decided fresh
// as FetchAll decides them: a lapsed certificate is refreshed in one warm
// exchange, and one with nothing newer fails at phase "freshness".
func (c *Client) Elements(ctx context.Context, oid globeid.OID) ([]cert.ElementEntry, error) {
	ctx, p := c.newPipeline(ctx, SpanElements)
	p.root.Annotate("oid", oid.Short())
	pl := fetchPlan{oid: oid, toc: true}
	if err := c.run(ctx, p, &pl, nil); err != nil {
		p.finish("error")
		return nil, err
	}
	p.finish("ok")
	return pl.entries, nil
}

// FetchAll securely fetches every element listed in the object's
// integrity certificate, returning elements in certificate order. It is
// the "download the whole document" operation the paper's Figures 5–7
// time against Apache, and runs the same fetch plan — and so the same
// refresh and failover — as Fetch, and delivers every element under the
// one certificate whose entries the plan decided; when the plan finally
// fails, the ordered prefix of verified elements is returned alongside
// the error.
func (c *Client) FetchAll(ctx context.Context, oid globeid.OID) ([]FetchResult, error) {
	ctx, p := c.newPipeline(ctx, SpanFetchAll)
	p.root.Annotate("oid", oid.Short())
	pl := fetchPlan{oid: oid, all: true}
	if err := c.run(ctx, p, &pl, nil); err != nil {
		p.finish("error")
		return pl.results, err
	}
	p.finish("ok")
	return pl.results, nil
}

// every is FetchAll's delivery over b of entries, every one decided
// fresh and its bytes in hand (in): element in certificate order, each
// with its own fresh pipeline under the fetch.all root span so its spans
// and Timing stay attributable. A failure, or the caller's cancellation
// between two elements, ends the pass with the ordered verified prefix.
func (c *Client) every(ctx context.Context, p *pipeline, b boundFetch, entries []cert.ElementEntry, in []held) ([]FetchResult, error) {
	results := make([]FetchResult, 0, len(entries))
	for i, e := range entries {
		if err := ctx.Err(); err != nil {
			return results, err
		}
		res, err := c.element(p.fresh(), b, e, in[i])
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}
