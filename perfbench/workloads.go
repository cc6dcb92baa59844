package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"globedoc/internal/core"
	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/location"
	"globedoc/internal/object"
	"globedoc/internal/proxy"
	"globedoc/internal/server"
	"globedoc/internal/vcache"
	"globedoc/internal/workload"
)

// A workload builds its deployment, then drives closed-loop clients
// against it. The runner owns timing windows, recorders, the canary,
// baselines and cross-checks; a workload owns only what makes it
// different: what is published, what a client requests next, and what
// state changes between requests.
type workloadRun interface {
	// setup stands the deployment up: world, fixture keys, publication,
	// proxy start. The runner times it as setup_s.
	setup() error
	close()
	stack() *stack
	// frontURL is where the browser-side generator sends requests; ""
	// for a workload that enters at core.
	frontURL() string
	// secure is the client currently behind the front, for the traced
	// run's direct pass.
	secure() *secureClient
	// drive runs client c's closed loop, issuing element fetches
	// through iss, until stop(done) is true at an operation boundary.
	drive(ctx context.Context, c int, iss issuer, stop func(done int) bool, rec *recorder)
	// ok and failed are the proxy's own verdict counters, summed over
	// every proxy the workload put behind its front.
	proxyCounters() (ok, failed uint64)
}

// spec is the fixed shape of one workload: identical on every commit.
type spec struct {
	name string
	why  string
	// clients is the number of closed-loop clients (each waits for its
	// reply before sending the next request).
	clients int
	// replayOps bounds the traced run's passes, in drive operations,
	// after replayWarmOps operations of warm-up.
	replayOps, replayWarmOps int
	// referenceEvery interleaves one reference unit (calibrate.go) after
	// every so many fetches and scales the workload's times by what it
	// shows of the machine's speed. Only where one client's CPU time is
	// what is measured: 0 on wan-page, whose time is simulated network
	// time, and on bulk-stream, whose two busy processors the reference
	// would have to share.
	referenceEvery int
	// setupSigns: the set-up is mostly RSA-2048 signing and key parsing
	// (publishing signs a certificate per object), which the sandbox's
	// slow spells slow by up to 1.7x, so setup_s is scaled by the
	// reference's big-number part. bulk-stream's set-up is hashing and
	// copying 48 MiB, which they barely touch: reported as measured.
	setupSigns bool
	// pooled: the full run computes this workload's percentiles over
	// all repetitions' samples together, not as a median of medians.
	pooled bool
	build  func(cfg runConfig) workloadRun
}

var specs = []spec{
	{
		name:           "first-visit",
		setupSigns:     true,
		why:            "per-fetch fixed cost: every GET builds a brand-new client and pays the full 14-step cold pipeline for a 1 KiB element",
		clients:        1,
		referenceEvery: 2,
		replayOps:      800,
		replayWarmOps:  8,
		build:          func(cfg runConfig) workloadRun { return &firstVisit{cfg: cfg} },
	},
	{
		name:          "bulk-stream",
		why:           "per-byte cost: 2 clients scan 48 x 1 MiB through a 16 MiB vcache over loopback TCP, so every GET is a warm-binding content miss",
		clients:       2,
		replayOps:     400,
		replayWarmOps: 4,
		build:         func(cfg runConfig) workloadRun { return &bulkStream{cfg: cfg} },
	},
	{
		name:          "wan-page",
		setupSigns:    true,
		why:           "latency-bound: cold FetchAll of the paper's 105 KB object from Paris at TimeScale 1.0, where only round trips and wire bytes matter",
		clients:       1,
		replayOps:     12,
		replayWarmOps: 1,
		pooled:        true,
		build:         func(cfg runConfig) workloadRun { return &wanPage{cfg: cfg} },
	},
	{
		name:           "update-churn",
		setupSigns:     true,
		why:            "reads beside writes: owner re-signs and a secondary pulls the delta once per 64 GETs, 63 of them warm content-cache hits",
		clients:        1,
		referenceEvery: 16,
		replayOps:      8,
		replayWarmOps:  1,
		build:          func(cfg runConfig) workloadRun { return &updateChurn{cfg: cfg} },
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// runConfig parameterises one run of one workload.
type runConfig struct {
	workload string
	seed     uint64
	keysDir  string
	// clients is how many closed-loop clients drive the workload: the
	// spec's count end to end, one in the single-threaded traced replay.
	clients int
	// ops > 0 ends each client's loop after that many operations
	// instead of after window: the traced replay and the tests need the
	// same operations on every run, which a time window cannot give.
	ops            int
	warmup, window time.Duration
	// setups is how many times the deployment is stood up; setup_s is
	// the median.
	setups int
	// tap, when non-nil, traces every boundary (the traced run only).
	tap *tap
	// timeScale overrides wan-page's TimeScale 1.0 (the traced run
	// measures the page's CPU share at 0); nil keeps it.
	timeScale *float64
	// small is options.small.
	small bool
	// log, when non-nil, receives client 0's request sequence.
	log *[]string
}

const elementType = "application/octet-stream"

// smallTimeScale is the simulated-latency scale of the tests' small
// mode: a page load costs ~15 ms, not ~280.
const smallTimeScale = 0.05

// --- first-visit -------------------------------------------------------------

// firstVisit: one client cycles over eight published one-element
// objects; before each request a brand-new core.Client, vcache and proxy
// go behind the front (construction and the previous client's Close are
// outside the timed section), so nothing — binding, name, content,
// signature memo, connection — is reused between requests.
type firstVisit struct {
	cfg   runConfig
	st    *stack
	front *front
	wants []want

	cur      *secureClient
	curProxy *proxy.Proxy
	ok, bad  uint64 // counters of retired proxies

	// pos is the client's position in its cycle over the objects, lap
	// the time it has waited for the fetches of its current cycle.
	pos int
	lap time.Duration
}

const firstVisitElement = 1024

func (w *firstVisit) setup() error {
	owners, err := loadOwnerKeys(w.cfg.keysDir, fixtureKeys)
	if err != nil {
		return err
	}
	if w.st, err = newNetsimStack(0, now); err != nil {
		return err
	}
	if _, err := w.st.startServer(serverSite, "srv-ams"); err != nil {
		return err
	}
	for i, owner := range owners {
		name := fmt.Sprintf("visit-%d.bench", i)
		data := newRand(w.cfg.seed, "first-visit/"+name).Bytes(firstVisitElement)
		doc := document.New()
		if err := doc.Put(document.Element{Name: "page.bin", ContentType: elementType, Data: data}); err != nil {
			return err
		}
		if _, err := w.st.publish(doc, name, owner, time.Hour); err != nil {
			return err
		}
		w.wants = append(w.wants, want{object: name, element: "page.bin", data: data, replica: w.st.addrs[serverSite]})
	}
	if w.front, err = newFront(w.cfg.tap); err != nil {
		return err
	}
	return w.swap()
}

// swap retires the client behind the front and installs a brand-new one.
func (w *firstVisit) swap() error {
	c, err := w.st.newClient(vcache.New(vcache.Config{}), nil, w.cfg.tap)
	if err != nil {
		return err
	}
	p := newProxy(c, w.st.tel)
	w.front.serve(p)
	if w.cur != nil {
		ok, bad, _ := w.curProxy.Counters()
		w.ok, w.bad = w.ok+ok, w.bad+bad
		w.cur.close()
	}
	w.cur, w.curProxy = c, p
	return nil
}

func (w *firstVisit) drive(ctx context.Context, _ int, iss issuer, stop func(int) bool, rec *recorder) {
	n := len(w.wants)
	for i := 0; !stop(i); i, w.pos = i+1, w.pos+1 {
		wt := w.wants[w.pos%n]
		rec.request(wt.object + "/" + wt.element)
		if err := w.swap(); err != nil {
			rec.fail(err)
			continue
		}
		d, err := iss.fetch(ctx, wt)
		if err != nil {
			rec.fail(err)
			continue
		}
		rec.fetch = append(rec.fetch, d)
		rec.bytes += int64(len(wt.data))
		// A page is one visit to each of the eight objects, as the
		// client waited for them; it carries on across passes.
		w.lap += d
		if w.pos%n == n-1 {
			rec.page = append(rec.page, w.lap)
			w.lap = 0
		}
	}
}

func (w *firstVisit) proxyCounters() (uint64, uint64) {
	ok, bad, _ := w.curProxy.Counters()
	return w.ok + ok, w.bad + bad
}

func (w *firstVisit) stack() *stack         { return w.st }
func (w *firstVisit) frontURL() string      { return w.front.url }
func (w *firstVisit) secure() *secureClient { return w.cur }

func (w *firstVisit) close() {
	if w.front != nil {
		w.front.close()
	}
	if w.cur != nil {
		w.cur.close()
		w.cur = nil
	}
	if w.st != nil {
		w.st.close()
	}
}

// --- long-lived proxy, shared by bulk-stream and update-churn -----------------

// served is a long-lived production proxy behind a front.
type served struct {
	front  *front
	client *secureClient
	proxy  *proxy.Proxy
}

func serveProxy(st *stack, vc *vcache.Cache, tp *tap) (*served, error) {
	c, err := st.newClient(vc, nil, tp)
	if err != nil {
		return nil, err
	}
	f, err := newFront(tp)
	if err != nil {
		c.close()
		return nil, err
	}
	p := newProxy(c, st.tel)
	f.serve(p)
	return &served{front: f, client: c, proxy: p}, nil
}

func (s *served) close() {
	if s == nil {
		return
	}
	s.front.close()
	s.client.close()
}

func (s *served) counters() (uint64, uint64) {
	ok, bad, _ := s.proxy.Counters()
	return ok, bad
}

// --- bulk-stream -------------------------------------------------------------

// bulkStream: two clients scan one object of 48 × 1 MiB elements
// cyclically, half a lap apart, through a long-lived proxy whose vcache
// holds a third of the working set. An LRU a third the size of a cyclic
// scan never hits, so every GET is a warm-binding content miss with an
// eviction: frame read, DecodeElement, SHA-1, vcache copy-in, the
// proxy's ETag hash and its body write, per byte, every time.
type bulkStream struct {
	cfg   runConfig
	st    *stack
	sv    *served
	wants []want
	// cursor is each client's position in its scan, lap the time it has
	// waited for the fetches of its current lap.
	cursor []int
	lap    []time.Duration
}

const (
	bulkElements    = 48
	bulkElementSize = 1 << 20
	// bulkCacheShare: the working set is this many times the vcache.
	bulkCacheShare = 3
)

// bulkShape is bulk-stream's object: 48 × 1 MiB, or in the tests' small
// mode the same 3:1 ratio to the cache at a hundredth of the bytes.
func bulkShape(small bool) (elements, size int) {
	if small {
		return 6, 64 << 10
	}
	return bulkElements, bulkElementSize
}

func (w *bulkStream) setup() error {
	owners, err := loadOwnerKeys(w.cfg.keysDir, 1)
	if err != nil {
		return err
	}
	if w.st, err = newTCPStack(now); err != nil {
		return err
	}
	if _, err := w.st.startServer(serverSite, "srv-ams"); err != nil {
		return err
	}
	n, size := bulkShape(w.cfg.small)
	const name = "bulk.bench"
	doc := workload.WideDoc(n, size, newRand(w.cfg.seed, "bulk-stream").Uint64())
	if _, err := w.st.publish(doc, name, owners[0], time.Hour); err != nil {
		return err
	}
	w.wants, err = wantsOf(doc, name, w.st.addrs[serverSite])
	if err != nil {
		return err
	}
	w.cursor = make([]int, w.cfg.clients)
	w.lap = make([]time.Duration, w.cfg.clients)
	w.sv, err = serveProxy(w.st, vcache.New(vcache.Config{MaxBytes: int64(n * size / bulkCacheShare)}), w.cfg.tap)
	return err
}

// wantsOf lists the expected outcome of fetching each element of doc,
// in name order.
func wantsOf(doc *document.Document, object, replica string) ([]want, error) {
	var out []want
	for _, el := range doc.Names() {
		e, err := doc.Get(el)
		if err != nil {
			return nil, err
		}
		out = append(out, want{object: object, element: el, data: e.Data, replica: replica})
	}
	return out, nil
}

func (w *bulkStream) drive(ctx context.Context, c int, iss issuer, stop func(int) bool, rec *recorder) {
	n := len(w.wants)
	// Clients start evenly spaced round the lap, so no request finds
	// what another client just loaded still cached.
	offset := c * n / w.cfg.clients
	// A client's next pass resumes the scan, and the lap it was in, where
	// its last one stopped: restarting the lap would find the warm-up's
	// last elements cached.
	pos, lap := w.cursor[c], w.lap[c]
	defer func() { w.cursor[c], w.lap[c] = pos, lap }()
	for i := 0; !stop(i); i, pos = i+1, pos+1 {
		wt := w.wants[(offset+pos)%n]
		rec.request(wt.element)
		d, err := iss.fetch(ctx, wt)
		if err != nil {
			rec.fail(err)
			continue
		}
		rec.fetch = append(rec.fetch, d)
		rec.bytes += int64(len(wt.data))
		// A page is the time the client waited for one whole lap: the
		// sum of its fetches, which leaves out what the benchmark does
		// between them.
		lap += d
		if pos%n == n-1 {
			rec.page = append(rec.page, lap)
			lap = 0
		}
	}
}

func (w *bulkStream) proxyCounters() (uint64, uint64) { return w.sv.counters() }
func (w *bulkStream) stack() *stack                   { return w.st }
func (w *bulkStream) frontURL() string                { return w.sv.front.url }
func (w *bulkStream) secure() *secureClient           { return w.sv.client }

func (w *bulkStream) close() {
	w.sv.close()
	w.sv = nil
	if w.st != nil {
		w.st.close()
	}
}

// --- wan-page ----------------------------------------------------------------

// wanPage: the paper's Figure-6 measurement at the paper's latencies. A
// client at the simulated Paris site (20 ms RTT, 1 MB/s to Amsterdam)
// builds a fresh secure client per sample and does a cold
// core.Client.FetchAll of the 105 KB composite object, entering at core
// as the paper's wget-style client did.
type wanPage struct {
	cfg   runConfig
	st    *stack
	pub   *deploy.Publication
	wants map[string]want

	// overhead accumulates Timing.OverheadPercent of each page (the
	// paper's Figure-4 quantity), for the traced run.
	overheadSum float64
	overheadN   int
}

func (w *wanPage) setup() error {
	owners, err := loadOwnerKeys(w.cfg.keysDir, 1)
	if err != nil {
		return err
	}
	scale := 1.0
	switch {
	case w.cfg.timeScale != nil:
		scale = *w.cfg.timeScale
	case w.cfg.small:
		scale = smallTimeScale
	}
	if w.st, err = newNetsimStack(scale, now); err != nil {
		return err
	}
	if _, err := w.st.startServer(serverSite, "srv-ams"); err != nil {
		return err
	}
	const name = "page.bench"
	doc := workload.CompositeDoc(10*workload.KB, newRand(w.cfg.seed, "wan-page").Uint64())
	if w.pub, err = w.st.publish(doc, name, owners[0], time.Hour); err != nil {
		return err
	}
	list, err := wantsOf(doc, name, w.st.addrs[serverSite])
	if err != nil {
		return err
	}
	w.wants = make(map[string]want, len(list))
	for _, wt := range list {
		w.wants[wt.element] = wt
	}
	return nil
}

func (w *wanPage) drive(ctx context.Context, _ int, _ issuer, stop func(int) bool, rec *recorder) {
	for i := 0; !stop(i); i++ {
		rec.request(w.pub.Name)
		c, err := w.st.newClient(vcache.New(vcache.Config{}), nil, w.cfg.tap)
		if err != nil {
			rec.fail(err)
			continue
		}
		var (
			results []core.FetchResult
			elapsed time.Duration
		)
		w.cfg.tap.nextRequest()
		w.cfg.tap.scope(spanCore, func() {
			start := now()
			results, err = c.FetchAll(ctx, w.pub.OID)
			elapsed = now().Sub(start)
		})
		c.close()
		if err == nil {
			err = w.verify(results)
		}
		if err != nil {
			rec.fail(err)
			continue
		}
		rec.fetch = append(rec.fetch, elapsed) // the client's one operation is the whole page
		rec.page = append(rec.page, elapsed)
		var sum core.Timing
		for _, r := range results {
			rec.bytes += int64(len(r.Element.Data))
			sum.Add(r.Timing)
		}
		w.overheadSum += sum.OverheadPercent()
		w.overheadN++
	}
}

func (w *wanPage) verify(results []core.FetchResult) error {
	if len(results) != len(w.wants) {
		return fmt.Errorf("%w: %d elements of %d", errBody, len(results), len(w.wants))
	}
	for _, r := range results {
		wt, ok := w.wants[r.Element.Name]
		switch {
		case !ok || !bytes.Equal(r.Element.Data, wt.data):
			return fmt.Errorf("%w: %s/%s", errBody, w.pub.Name, r.Element.Name)
		case r.ReplicaAddr != wt.replica:
			return fmt.Errorf("%w: %q, want %q", errReplica, r.ReplicaAddr, wt.replica)
		}
	}
	return nil
}

// wanBaselines is how many plain-HTTP and how many HTTPS whole-object
// fetches of the page one run takes after its window.
const wanBaselines = 4

// baselines fetches the page over plain HTTP and over HTTPS across the
// same Paris link, and returns each sample in ms.
func (w *wanPage) baselines() (http, https []float64, err error) {
	b, err := openBaseline(w.st, w.pub.Doc)
	if err != nil {
		return nil, nil, err
	}
	defer b.close()
	if err := b.sample(wanBaselines); err != nil {
		return nil, nil, err
	}
	return b.httpMs, b.httpsMs, nil
}

func (w *wanPage) proxyCounters() (uint64, uint64) { return 0, 0 }
func (w *wanPage) stack() *stack                   { return w.st }
func (w *wanPage) frontURL() string                { return "" }
func (w *wanPage) secure() *secureClient           { return nil }

func (w *wanPage) close() {
	if w.st != nil {
		w.st.close()
	}
}

// --- update-churn ------------------------------------------------------------

// virtualClock is the benchmark-owned clock certificates are issued and
// checked on in update-churn: advancing it past the 2 s certificate TTL
// is what forces a revalidation every cycle without two real seconds of
// waiting. The naming service stays on the real clock.
type virtualClock struct {
	base   time.Time
	offset atomic.Int64
}

func (v *virtualClock) Now() time.Time          { return v.base.Add(time.Duration(v.offset.Load())) }
func (v *virtualClock) advance(d time.Duration) { v.offset.Add(int64(d)) }

// updateChurn: a 64 × 4 KiB object lives on a primary (Amsterdam) and a
// secondary (Paris) object server; the location tree advertises only the
// secondary. One cycle: the clock jumps past the certificate TTL, the
// owner rewrites one element and re-signs (World.Reissue: hash 64
// elements, RSA-sign, server.Update on the primary), the secondary's
// puller fetches the Merkle delta, and the reader GETs the changed
// element — which must be the new bytes, from the secondary — then the
// other 63, which the revalidated certificate serves from the content
// cache with no RPC.
type updateChurn struct {
	cfg    runConfig
	st     *stack
	sv     *served
	clock  *virtualClock
	pub    *deploy.Publication
	puller *server.Puller
	names  []string
	// current is what each element holds now; the reader is checked
	// against it, so a stale read after an update is a failure.
	current map[string][]byte
	rng     *workload.Rand
}

const (
	churnElements    = 64
	churnElementSize = 4 * workload.KB
	churnTTL         = 2 * time.Second
	churnStep        = 3 * time.Second
	churnObject      = "churn.bench"
)

var errNoPull = errors.New("secondary saw no new version to pull")

func (w *updateChurn) setup() error {
	owners, err := loadOwnerKeys(w.cfg.keysDir, 1)
	if err != nil {
		return err
	}
	w.clock = &virtualClock{base: now()}
	if w.st, err = newNetsimStack(0, w.clock.Now); err != nil {
		return err
	}
	if _, err := w.st.startServer(serverSite, "srv-ams"); err != nil {
		return err
	}
	secondary, err := w.st.startServer(clientSite, "srv-paris")
	if err != nil {
		return err
	}
	doc := workload.WideDoc(churnElements, churnElementSize, newRand(w.cfg.seed, "update-churn").Uint64())
	if w.pub, err = w.st.publish(doc, churnObject, owners[0], churnTTL); err != nil {
		return err
	}
	if err := w.st.world.ReplicateTo(w.pub, clientSite); err != nil {
		return err
	}
	// Readers must land on the secondary: withdraw the primary's
	// contact address, leaving it reachable only by the puller.
	primary := location.ContactAddress{Address: w.st.addrs[serverSite], Protocol: object.Protocol}
	if err := w.st.tree.Delete(serverSite, w.pub.OID, primary); err != nil {
		return err
	}
	w.puller = server.NewPuller(secondary, w.pub.OID, "owner:"+churnObject,
		w.st.addrs[serverSite], w.st.world.DialFrom(clientSite), time.Hour)
	w.puller.SetTelemetry(w.st.tel)

	w.names = doc.Names()
	w.current = make(map[string][]byte, len(w.names))
	for _, name := range w.names {
		e, err := doc.Get(name)
		if err != nil {
			return err
		}
		w.current[name] = e.Data
	}
	w.rng = newRand(w.cfg.seed, "update-churn/updates")
	w.sv, err = serveProxy(w.st, vcache.New(vcache.Config{}), w.cfg.tap)
	return err
}

func (w *updateChurn) want(name string) want {
	return want{object: churnObject, element: name, data: w.current[name], replica: w.st.addrs[clientSite]}
}

// update is the write half of a cycle.
func (w *updateChurn) update(ctx context.Context, name string) error {
	data := w.rng.Bytes(churnElementSize)
	if err := w.pub.Doc.Put(document.Element{Name: name, ContentType: elementType, Data: data}); err != nil {
		return err
	}
	w.current[name] = data
	if err := w.st.world.Reissue(w.pub, churnTTL, w.clock.Now()); err != nil {
		return err
	}
	pulled, err := w.puller.CheckOnce(ctx)
	if err != nil {
		return err
	}
	if !pulled {
		return errNoPull
	}
	return nil
}

func (w *updateChurn) drive(ctx context.Context, _ int, iss issuer, stop func(int) bool, rec *recorder) {
	n := len(w.names)
	for i := 0; !stop(i); i++ {
		start := now()
		w.clock.advance(churnStep)
		k := w.rng.Intn(n)
		rec.request("update " + w.names[k])
		if err := w.update(ctx, w.names[k]); err != nil {
			rec.fail(err)
			continue
		}
		updated := now().Sub(start)
		var read time.Duration
		complete := true
		for j := 0; j < n; j++ {
			name := w.names[(k+j)%n]
			rec.request(name)
			d, err := iss.fetch(ctx, w.want(name))
			if err != nil {
				rec.fail(err)
				complete = false
				continue
			}
			rec.bytes += int64(churnElementSize)
			read += d
			if j == 0 {
				// The changed element: new bytes verified at the reader.
				rec.visible = append(rec.visible, updated+d)
			} else {
				rec.fetch = append(rec.fetch, d)
			}
		}
		if complete {
			rec.page = append(rec.page, read) // the 64 GETs, as the reader waited for them
		}
	}
}

func (w *updateChurn) proxyCounters() (uint64, uint64) { return w.sv.counters() }
func (w *updateChurn) stack() *stack                   { return w.st }
func (w *updateChurn) frontURL() string                { return w.sv.front.url }
func (w *updateChurn) secure() *secureClient           { return w.sv.client }

func (w *updateChurn) close() {
	w.sv.close()
	w.sv = nil
	if w.puller != nil {
		w.puller.Stop()
	}
	if w.st != nil {
		w.st.close()
	}
}
