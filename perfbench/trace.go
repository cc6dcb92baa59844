package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"globedoc/internal/globeid"
	"globedoc/internal/location"
	"globedoc/internal/naming"
	"globedoc/internal/transport"
)

// The traced run records spans from outside the program under test: the
// benchmark's own files wrap every boundary they can reach — the HTTP
// request, the proxy handler, the direct core call, Binder.Names,
// Binder.Locator, every dialer, and each request/response exchange on
// every connection — and time the calls through them. Spans inside the
// program (replacing core.Timing) are a later change.

// span is one timed interval. Spans of one replayed request share Req;
// Parent is the span that caused this one (0 for a request's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tap was created
	End    int64  `json:"end_ns"`
}

func (s span) duration() int64 { return s.End - s.Start }

// Span names. Scopes nest strictly (the replay is single-client);
// leaves hang off the innermost open scope, except that exchanges on the
// naming and location connections hang off the open resolve or lookup.
const (
	spanHTTPGet  = "http.get"        // generator: request sent to body verified
	spanProxy    = "proxy.serve"     // the proxy's ServeHTTP
	spanCore     = "core.fetch"      // the same operation issued directly at core.Client
	spanResolve  = "naming.resolve"  // Binder.Names.Resolve
	spanLookup   = "location.lookup" // Binder.Locator.Lookup
	spanDial     = "transport.dial"  // a DialFunc call
	spanExchange = "transport.rpc"   // first write of a burst to last read before the next
)

// tap records spans and boundary counts. A nil *tap is the untraced
// configuration: every wrap method returns its argument unchanged, so
// end-to-end runs carry no tracing code at all.
type tap struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	base   int // IDs handed out before the last drain
	req    int
	scopes []int // open scope span IDs, innermost last
	// Open resolve/lookup span IDs: their connections' exchanges are
	// their children, which is what separates naming's own work
	// (VerifyChain) from the round trip it waits for.
	resolve, lookup int

	counts tapCounts
}

// tapCounts are the boundary counts of one replay pass.
type tapCounts struct {
	Dials       int
	RoundTrips  int // write burst answered by a read, any connection
	Turnarounds int // direction changes as netsim charges them, both directions
	WireBytes   int64
	Resolves    int
	Lookups     int
}

func newTap() *tap { return &tap{t0: now(), spans: make([]span, 0, 1<<14)} }

func (t *tap) since() int64 { return int64(now().Sub(t.t0)) }

// nextRequest starts a new request ID; every issuer calls it before an
// operation.
func (t *tap) nextRequest() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.req++
	t.mu.Unlock()
}

// open starts a span under parent (0 = innermost open scope).
func (t *tap) open(name string, parent int) int {
	at := t.since()
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent == 0 && len(t.scopes) > 0 {
		parent = t.scopes[len(t.scopes)-1]
	}
	id := t.base + len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, Start: at})
	return id
}

func (t *tap) close(id int) { t.closeAt(id, t.since()) }

func (t *tap) closeAt(id int, at int64) {
	t.mu.Lock()
	// A span opened before the last drain (an exchange left open on a
	// pooled connection) has already been written out as unfinished.
	if i := id - 1 - t.base; i >= 0 {
		t.spans[i].End = at
	}
	t.mu.Unlock()
}

// scope runs f inside a scope span.
func (t *tap) scope(name string, f func()) {
	if t == nil {
		f()
		return
	}
	id := t.open(name, 0)
	t.mu.Lock()
	t.scopes = append(t.scopes, id)
	t.mu.Unlock()
	f()
	t.mu.Lock()
	t.scopes = t.scopes[:len(t.scopes)-1]
	t.mu.Unlock()
	t.close(id)
}

// drain returns the spans and counts recorded since the last drain and
// starts afresh, keeping the wrappers installed; the replay calls it
// between passes over one deployment.
func (t *tap) drain() ([]span, tapCounts) {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans, counts := t.spans, t.counts
	t.base += len(spans)
	t.spans = make([]span, 0, cap(spans))
	t.counts = tapCounts{}
	return spans, counts
}

// --- wrappers --------------------------------------------------------------

func (t *tap) wrapHandler(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.scope(spanProxy, func() { h.ServeHTTP(w, r) })
	})
}

type tappedNames struct {
	inner naming.OIDResolver
	t     *tap
}

func (n tappedNames) Resolve(ctx context.Context, name string) (globeid.OID, error) {
	id := n.t.open(spanResolve, 0)
	n.t.mu.Lock()
	n.t.resolve = id
	n.t.counts.Resolves++
	n.t.mu.Unlock()
	oid, err := n.inner.Resolve(ctx, name)
	n.t.mu.Lock()
	n.t.resolve = 0
	n.t.mu.Unlock()
	n.t.close(id)
	return oid, err
}

func (t *tap) wrapNames(r naming.OIDResolver) naming.OIDResolver {
	if t == nil {
		return r
	}
	return tappedNames{inner: r, t: t}
}

type tappedLocator struct {
	inner location.Resolver
	t     *tap
}

func (l tappedLocator) Lookup(ctx context.Context, fromSite string, oid globeid.OID) (location.LookupResult, error) {
	id := l.t.open(spanLookup, 0)
	l.t.mu.Lock()
	l.t.lookup = id
	l.t.counts.Lookups++
	l.t.mu.Unlock()
	res, err := l.inner.Lookup(ctx, fromSite, oid)
	l.t.mu.Lock()
	l.t.lookup = 0
	l.t.mu.Unlock()
	l.t.close(id)
	return res, err
}

func (t *tap) wrapLocator(r location.Resolver) location.Resolver {
	if t == nil {
		return r
	}
	return tappedLocator{inner: r, t: t}
}

// wrapDial times the dial and returns a counting connection.
func (t *tap) wrapDial(d transport.DialFunc) transport.DialFunc {
	if t == nil {
		return d
	}
	return func() (net.Conn, error) {
		// A dial made while a resolve or lookup is open belongs to it,
		// and so does every exchange on the connection: the naming and
		// location clients keep one connection each.
		t.mu.Lock()
		parent := t.resolve
		if parent == 0 {
			parent = t.lookup
		}
		t.counts.Dials++
		t.mu.Unlock()
		id := t.open(spanDial, parent)
		conn, err := d()
		t.close(id)
		if err != nil {
			return nil, err
		}
		return &tappedConn{Conn: conn, t: t, service: parent != 0}, nil
	}
}

// tappedConn counts bytes, round trips and direction changes on one
// connection and records each request/response exchange as a span.
// Direction changes follow netsim.shapedConn's own rule (a write after a
// read, or the first write, starts a burst), seen from the client end,
// so counts × the link profile reproduce what the simulator charges.
type tappedConn struct {
	net.Conn
	t       *tap
	service bool // a naming/location connection: exchanges parent to the open resolve/lookup

	mu       sync.Mutex
	sending  bool  // inside a write burst
	answered bool  // the current burst has been answered by at least one read
	exchange int   // open exchange span, 0 if none
	lastRead int64 // when the latest read returned
}

func (c *tappedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if !c.sending {
		c.finishExchange()
		var parent int
		if c.service {
			c.t.mu.Lock()
			parent = c.t.resolve
			if parent == 0 {
				parent = c.t.lookup
			}
			c.t.mu.Unlock()
		}
		c.exchange = c.t.open(spanExchange, parent)
		c.sending, c.answered = true, false
		c.t.mu.Lock()
		c.t.counts.Turnarounds++
		c.t.mu.Unlock()
	}
	c.mu.Unlock()
	n, err := c.Conn.Write(p)
	c.t.mu.Lock()
	c.t.counts.WireBytes += int64(n)
	c.t.mu.Unlock()
	return n, err
}

func (c *tappedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	at := c.t.since()
	c.mu.Lock()
	c.sending = false
	if n > 0 {
		c.lastRead = at
	}
	first := n > 0 && c.exchange != 0 && !c.answered
	if first {
		c.answered = true
	}
	c.mu.Unlock()
	c.t.mu.Lock()
	c.t.counts.WireBytes += int64(n)
	if first {
		c.t.counts.RoundTrips++
		c.t.counts.Turnarounds++
	}
	c.t.mu.Unlock()
	return n, err
}

func (c *tappedConn) Close() error {
	c.mu.Lock()
	c.finishExchange()
	c.mu.Unlock()
	return c.Conn.Close()
}

// finishExchange ends the open exchange at the last byte read for it.
// Called with c.mu held.
func (c *tappedConn) finishExchange() {
	if c.exchange == 0 {
		return
	}
	end := c.lastRead
	if !c.answered {
		end = c.t.since()
	}
	c.t.closeAt(c.exchange, end)
	c.exchange = 0
}

// --- analysis ----------------------------------------------------------------

// selfTimes returns each span's self time: its duration minus the part
// of that interval its children cover. Children may overlap one another
// (FetchAll's workers) and are clipped to the parent, so the covered
// part is the length of the union of the clipped child intervals.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			start, end := k.Start, k.End
			if start < edge {
				start = edge
			}
			if end > s.End {
				end = s.End
			}
			if end > start {
				covered += end - start
				edge = end
			}
		}
		out[s.ID] = s.duration() - covered
	}
	return out
}

// layerTotals is one span name's share of a replay pass.
type layerTotals struct {
	Name    string
	Count   int
	TotalNs int64
	SelfNs  int64
}

// closed returns the spans that ended; an exchange still open when the
// pass stopped (a pooled connection left idle) has no end to report.
func closed(spans []span) []span {
	out := spans[:0:0]
	for _, s := range spans {
		if s.End >= s.Start && s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// byLayer sums duration and self time per span name.
func byLayer(spans []span) []layerTotals {
	self := selfTimes(spans)
	idx := make(map[string]*layerTotals)
	var order []*layerTotals
	for _, s := range spans {
		lt := idx[s.Name]
		if lt == nil {
			lt = &layerTotals{Name: s.Name}
			idx[s.Name] = lt
			order = append(order, lt)
		}
		lt.Count++
		lt.TotalNs += s.duration()
		lt.SelfNs += self[s.ID]
	}
	out := make([]layerTotals, len(order))
	for i, lt := range order {
		out[i] = *lt
	}
	return out
}

// selfSamples returns the self time of every span called name, in µs.
func selfSamples(spans []span, name string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[s.ID])/1e3)
		}
	}
	return out
}

// traceFile is the on-disk form of one workload's traced replay.
type traceFile struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Counts   tapCounts `json:"counts"`
	Spans    []span    `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
