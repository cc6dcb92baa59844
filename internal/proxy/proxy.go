// Package proxy implements the GlobeDoc client proxy (paper §2.1, §4):
// the HTTP intermediary every client installs to browse GlobeDoc objects
// with a standard Web browser.
//
// The proxy recognizes hybrid URLs — ordinary URLs whose path starts with
// /GlobeDoc/ and embeds an object name and page-element name — and runs
// the full secure browsing pipeline (Figure 3) for them: secure name
// resolution, replica location, self-certification, optional CA identity
// display, integrity-certificate verification and the per-element
// authenticity/freshness/consistency checks. Verified elements are served
// to the browser with a "X-GlobeDoc-Certified-As" header (the paper's
// "Certified as:" window); failed checks produce the "Security Check
// Failed" HTML page. All other requests are transparently forwarded as
// regular HTTP.
package proxy

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"html"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"globedoc/internal/core"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// Headers added by the proxy to verified responses.
const (
	HeaderOID         = "X-GlobeDoc-OID"
	HeaderCertifiedAs = "X-GlobeDoc-Certified-As"
	HeaderReplica     = "X-GlobeDoc-Replica"
	HeaderWarm        = "X-GlobeDoc-Warm-Binding"
	// HeaderCache is "hit" when the element bytes came from the
	// verified-content cache (no transfer; the current certificate
	// vouched for the cached hash).
	HeaderCache = "X-GlobeDoc-Cache"
)

// ErrFetchTimeout is reported (on the failure page) when the secure
// pipeline exceeds the proxy's FetchTimeout.
var ErrFetchTimeout = errors.New("proxy: secure fetch timed out")

// Proxy is an http.Handler implementing the GlobeDoc client proxy.
type Proxy struct {
	// Secure runs the GlobeDoc security pipeline.
	Secure *core.Client
	// FetchTimeout, when positive, bounds each secure pipeline run via
	// a context deadline threaded down to every dial and RPC, so the
	// pipeline is actually cancelled — no goroutine keeps fetching for
	// an abandoned browser request. Overrunning fetches get the failure
	// page with ErrFetchTimeout.
	FetchTimeout time.Duration
	// PassthroughDial opens a connection to a plain-HTTP origin host for
	// non-GlobeDoc requests; nil disables passthrough.
	PassthroughDial func(host string) transport.DialFunc
	// Telemetry receives proxy_requests_total{kind,outcome} and the
	// per-request proxy.request spans; nil falls back to
	// telemetry.Default().
	Telemetry *telemetry.Telemetry

	mu         sync.Mutex
	transports map[string]*http.Transport
	servers    []*http.Server // what Serve started, for Shutdown
	shut       bool

	// Stats
	secureOK, secureFail, passthrough uint64
}

// New creates a proxy around a security client.
func New(secure *core.Client) *Proxy {
	return &Proxy{Secure: secure, transports: make(map[string]*http.Transport)}
}

// Counters returns (verified fetches, failed security checks, passthrough
// requests).
func (p *Proxy) Counters() (ok, failed, passthrough uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.secureOK, p.secureFail, p.passthrough
}

func (p *Proxy) bump(counter *uint64) {
	p.mu.Lock()
	*counter++
	p.mu.Unlock()
}

func (p *Proxy) tel() *telemetry.Telemetry { return telemetry.Or(p.Telemetry) }

// observe records one browser-facing request in
// proxy_requests_total{kind,outcome}.
func (p *Proxy) observe(kind, outcome string) {
	p.tel().ProxyRequests.With(kind, outcome).Inc()
}

// ServeHTTP dispatches hybrid URLs to the secure pipeline and everything
// else to passthrough.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if ref, ok := document.ParseHybrid(r.URL.Path); ok {
		p.serveSecure(w, r, ref)
		return
	}
	if objectName, ok := parseIndexURL(r.URL.Path); ok {
		p.serveIndex(w, r, objectName)
		return
	}
	if r.URL.IsAbs() && p.PassthroughDial != nil {
		p.servePassthrough(w, r)
		return
	}
	p.observe("unroutable", "error")
	http.Error(w, "globedoc proxy: not a hybrid URL and no passthrough origin", http.StatusBadRequest)
}

// parseIndexURL recognizes /GlobeDoc/<object>/ — a request for the
// object's verified table of contents.
func parseIndexURL(path string) (string, bool) {
	if !strings.HasPrefix(path, document.HybridPrefix) || !strings.HasSuffix(path, "/") {
		return "", false
	}
	objectName := strings.TrimSuffix(strings.TrimPrefix(path, document.HybridPrefix), "/")
	if objectName == "" || strings.Contains(objectName, "!") {
		return "", false
	}
	return objectName, true
}

// serveIndex renders the object's verified element list as an HTML index
// page — the certificate entries, so the listing itself is authenticated.
func (p *Proxy) serveIndex(w http.ResponseWriter, r *http.Request, objectName string) {
	ctx, cancel := p.fetchContext(r.Context())
	defer cancel()
	entries, err := p.Secure.ElementsNamed(ctx, objectName)
	if err != nil {
		err = p.timeoutError(ctx, err)
		p.bump(&p.secureFail)
		p.observe("index", "fail")
		p.serveSecurityFailure(w, document.HybridRef{ObjectName: objectName, Element: "(index)"}, err)
		return
	}
	p.bump(&p.secureOK)
	p.observe("index", "ok")
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<!DOCTYPE html><html><head><title>Index of %s</title></head><body>
<h1>Index of GlobeDoc object %s</h1>
<p>%d page elements, from the verified integrity certificate:</p><ul>
`, html.EscapeString(objectName), html.EscapeString(objectName), len(entries))
	for _, e := range entries {
		fmt.Fprintf(w, `<li><a href="%s">%s</a> (valid until %s)</li>
`,
			html.EscapeString(HybridURL(objectName, e.Name)),
			html.EscapeString(e.Name),
			e.Expires.UTC().Format("2006-01-02 15:04:05 MST"))
	}
	fmt.Fprint(w, "</ul></body></html>")
}

// fetchContext derives the pipeline context for one browser request:
// the request's own context (cancelled when the browser disconnects),
// bounded by FetchTimeout when configured.
func (p *Proxy) fetchContext(parent context.Context) (context.Context, context.CancelFunc) {
	if p.FetchTimeout <= 0 {
		return parent, func() {}
	}
	return context.WithTimeout(parent, p.FetchTimeout)
}

// timeoutError maps a deadline-expired pipeline failure onto
// ErrFetchTimeout so the failure page names the proxy's bound rather
// than a transport detail.
func (p *Proxy) timeoutError(ctx context.Context, err error) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return fmt.Errorf("%w after %v: %v", ErrFetchTimeout, p.FetchTimeout, err)
	}
	return err
}

func (p *Proxy) serveSecure(w http.ResponseWriter, r *http.Request, ref document.HybridRef) {
	sp := p.tel().Tracer.StartSpan("proxy.request")
	sp.Annotate("object", ref.ObjectName)
	sp.Annotate("element", ref.Element)
	defer sp.End()
	ctx, cancel := p.fetchContext(r.Context())
	defer cancel()
	// The pipeline joins this request's trace: its fetch.secure span
	// (and everything under it, through to the server-side serve spans)
	// nests under proxy.request instead of starting a trace of its own.
	ctx = telemetry.ContextWith(ctx, sp)
	res, err := p.Secure.FetchNamed(ctx, ref.ObjectName, ref.Element)
	if err != nil {
		err = p.timeoutError(ctx, err)
		p.bump(&p.secureFail)
		p.observe("secure", "fail")
		sp.Annotate("outcome", "fail")
		p.serveSecurityFailure(w, ref, err)
		return
	}
	p.bump(&p.secureOK)
	p.observe("secure", "ok")
	sp.Annotate("outcome", "ok")
	serveVerified(w, r, res)
}

// The canonical forms of the non-canonical header keys serveVerified
// sets, computed once: it writes the Header map directly, where
// Header.Set would copy each of them into its canonical form on every
// call.
var (
	keyReplica     = http.CanonicalHeaderKey(HeaderReplica)
	keyCertifiedAs = http.CanonicalHeaderKey(HeaderCertifiedAs)
	keyWarm        = http.CanonicalHeaderKey(HeaderWarm)
	keyCache       = http.CanonicalHeaderKey(HeaderCache)
	keyETag        = http.CanonicalHeaderKey("ETag")
)

// verifiedHeaders is the most values serveVerified sets.
const verifiedHeaders = 7

// serveVerified writes a verified element to the browser, or a 304 when
// the browser already holds it. Every header value is one element of a
// single backing array, where Header.Set allocates a slice per value.
func serveVerified(w http.ResponseWriter, r *http.Request, res core.FetchResult) {
	h := w.Header()
	vals := make([]string, 0, verifiedHeaders)
	set := func(key, value string) {
		vals = append(vals, value)
		n := len(vals)
		h[key] = vals[n-1 : n : n] // full, so an Add to key copies
	}
	set(keyReplica, res.ReplicaAddr)
	if res.CertifiedAs != "" {
		set(keyCertifiedAs, res.CertifiedAs)
	}
	if res.WarmBinding {
		set(keyWarm, "true")
	}
	if res.FromCache {
		set(keyCache, "hit")
	}
	// Conditional GET: the ETag is the element's verified content hash,
	// so a browser revalidation costs no body transfer when the (still
	// fully verified) content is unchanged.
	etag := elementETag(res.VerifiedHash)
	set(keyETag, etag)
	if match := r.Header.Get("If-None-Match"); match != "" && etagMatches(match, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	set("Content-Type", res.Element.ContentType)
	set("Content-Length", strconv.Itoa(len(res.Element.Data)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(res.Element.Data) // response write failure means the browser went away
}

// elementETag renders a strong ETag — the quoted lower-case hex of the
// element's SHA-1 — from the hash core verified the bytes against. The
// body is not hashed again: FetchResult.VerifiedHash is that hash.
func elementETag(hash [globeid.Size]byte) string {
	var etag [2 + 2*globeid.Size]byte
	etag[0], etag[len(etag)-1] = '"', '"'
	hex.Encode(etag[1:], hash[:])
	return string(etag[:])
}

// etagMatches implements the If-None-Match comparison: the "*" wildcard,
// or any tag of a comma-separated list that matches etag under the weak
// comparison RFC 9110 §13.1.2 prescribes, which ignores a "W/" prefix —
// a browser may revalidate a strong tag in its weak form.
func etagMatches(headerValue, etag string) bool {
	if strings.TrimSpace(headerValue) == "*" {
		return true
	}
	for rest := headerValue; rest != ""; {
		var candidate string
		candidate, rest, _ = strings.Cut(rest, ",")
		if strings.TrimPrefix(strings.TrimSpace(candidate), "W/") == etag {
			return true
		}
	}
	return false
}

// serveSecurityFailure renders the paper's "Security Check Failed" page.
func (p *Proxy) serveSecurityFailure(w http.ResponseWriter, ref document.HybridRef, err error) {
	status := http.StatusBadGateway
	title := "GlobeDoc Error"
	if errors.Is(err, core.ErrSecurityCheckFailed) {
		status = http.StatusForbidden
		title = "Security Check Failed"
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.WriteHeader(status)
	fmt.Fprintf(w, `<!DOCTYPE html>
<html><head><title>%s</title></head><body>
<h1>%s</h1>
<p>The GlobeDoc proxy refused to deliver <code>%s</code> of object
<code>%s</code>.</p>
<p><b>Reason:</b> %s</p>
<p>The data offered by the replica did not pass the authenticity,
freshness and consistency checks, or the object could not be reached.
No unverified content has been shown.</p>
</body></html>`,
		title, title,
		html.EscapeString(ref.Element), html.EscapeString(ref.ObjectName),
		html.EscapeString(err.Error()))
}

func (p *Proxy) transportFor(host string) *http.Transport {
	p.mu.Lock()
	defer p.mu.Unlock()
	tr, ok := p.transports[host]
	if !ok {
		dial := p.PassthroughDial(host)
		tr = &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				return dial()
			},
		}
		p.transports[host] = tr
	}
	return tr
}

// servePassthrough forwards a regular HTTP request unchanged.
func (p *Proxy) servePassthrough(w http.ResponseWriter, r *http.Request) {
	p.bump(&p.passthrough)
	outReq := r.Clone(r.Context())
	outReq.RequestURI = ""
	tr := p.transportFor(r.URL.Host)
	resp, err := tr.RoundTrip(outReq)
	if err != nil {
		p.observe("passthrough", "fail")
		http.Error(w, "globedoc proxy: origin unreachable: "+err.Error(), http.StatusBadGateway)
		return
	}
	p.observe("passthrough", "ok")
	defer resp.Body.Close()
	for key, vals := range resp.Header {
		for _, v := range vals {
			w.Header().Add(key, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body) // passthrough is best-effort once headers are sent
}

// Serve runs the proxy's HTTP server on l until Shutdown, which makes it
// return http.ErrServerClosed. After Shutdown it closes l and returns that
// at once.
func (p *Proxy) Serve(l net.Listener) error {
	srv := &http.Server{Handler: p}
	p.mu.Lock()
	if p.shut {
		p.mu.Unlock()
		l.Close()
		return http.ErrServerClosed
	}
	p.servers = append(p.servers, srv)
	p.mu.Unlock()
	return srv.Serve(l)
}

// Shutdown stops the proxy: every server Serve started closes its
// listener and its idle keep-alive connections and waits, up to ctx, for
// the requests in flight; the passthrough origins' idle connections are
// closed too. It returns the first server's error that ctx cut short.
func (p *Proxy) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	p.shut = true
	servers := p.servers
	p.servers = nil
	for _, tr := range p.transports {
		tr.CloseIdleConnections()
	}
	p.mu.Unlock()
	var first error
	for _, srv := range servers {
		if err := srv.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// HybridURL builds the hybrid URL path for an object/element pair —
// convenience for examples and tests. Elements with slashes in their
// names use the explicit "!" separator so parsing stays unambiguous.
func HybridURL(objectName, element string) string {
	if strings.Contains(element, "/") {
		return document.HybridPrefix + objectName + "!" + element
	}
	return document.HybridRef{ObjectName: objectName, Element: element}.String()
}
