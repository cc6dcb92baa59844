package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"globedoc/internal/document"
	"globedoc/internal/httpbase"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// runResult is everything one run of one workload measured.
type runResult struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	WallS     float64 `json:"wall_s"` // measured window, as it actually ran
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Problems lists failed cross-checks (generator vs proxy counters,
	// recorded security failures, failovers); any makes the run
	// incorrect even if every response looked right.
	Problems []string `json:"problems,omitempty"`
	// Notes qualify a number without making the run incorrect.
	Notes    []string `json:"notes,omitempty"`
	FirstErr string   `json:"first_error,omitempty"`
	// Samples is the sample count behind each timing family.
	Samples map[string]int `json:"samples"`
	Metrics metrics        `json:"metrics"`
	// Samples the full run pools across repetitions where one
	// repetition has too few for its percentile (wan-page).
	PageMs []float64 `json:"page_ms,omitempty"`
	// wan-page only: whole-object fetches of the same page over plain
	// HTTP and over HTTPS, the denominators of vs_http/vs_https_ratio.
	HTTPMs  []float64 `json:"http_ms,omitempty"`
	HTTPSMs []float64 `json:"https_ms,omitempty"`
}

func (r *runResult) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// session is one workload's deployment, set up and canary-checked, ready
// to be driven for one or more passes.
type session struct {
	sp      spec
	cfg     runConfig
	w       workloadRun
	setupsS []float64
	// ref is the machine-speed reference a single client interleaves with
	// its fetches (calibrate.go).
	ref *reference
}

const (
	// setupUnits reference units run between set-ups. setupBigmulUs is
	// the big-number part's duration there in the sandbox's fast spells:
	// slower than inside a window, because a set-up leaves the caches
	// cold. Like referenceNominalUs it only fixes the scale.
	setupUnits    = 10
	setupBigmulUs = 14.5
)

// openSession sets the workload up cfg.setups times over, keeping the
// last, and runs the tamper canary against it. One set-up's time depends
// on where the allocator and the scheduler happen to be; the median of
// several does not. Where set-up is mostly RSA signing, each set-up is
// scaled by how the reference's big-number part ran just before and just
// after it.
func openSession(ctx context.Context, cfg runConfig) (*session, error) {
	sp, ok := findSpec(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.clients == 0 {
		cfg.clients = sp.clients
	}
	s := &session{sp: sp, cfg: cfg, ref: newReference()}
	around := s.ref.units(setupUnits)
	for i := 0; i < max(cfg.setups, 1); i++ {
		if s.w != nil {
			s.w.close()
		}
		s.w = sp.build(cfg)
		start := now()
		if err := s.w.setup(); err != nil {
			s.close()
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		took := now().Sub(start)
		after := s.ref.units(setupUnits)
		slow := 1.0
		if sp.setupSigns {
			slow = partMedians(append(around, after...))[refBigmul] / setupBigmulUs
		}
		around = after
		s.setupsS = append(s.setupsS, took.Seconds()/slow)
	}
	if err := s.w.stack().runCanary(ctx, cfg.seed); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *session) close() {
	if s.w != nil {
		s.w.close()
		s.w = nil
	}
	s.ref.close()
}

// passResult is what one closed-loop pass over a session observed.
type passResult struct {
	rec        *recorder
	wall       time.Duration // excluding time spent in reference units
	mallocs    uint64        // process-wide, over the pass
	allocBytes uint64
	ref        []refSample // reference timings interleaved with the pass
	alt        *alternator // set by an alternating pass
}

// How a pass issues its fetches.
type passMode int

const (
	// viaHTTP is the browser-side generator: every end-to-end run.
	viaHTTP passMode = iota
	// alternating sends even-numbered fetches over HTTP and odd-numbered
	// ones directly at the proxy's core.Client (the traced run). The two
	// latencies are subtracted to get the proxy's own share, and
	// interleaving them makes machine drift hit both sides alike.
	alternating
)

// pass drives every client until stop(client, done) holds at an
// operation boundary.
func (s *session) pass(ctx context.Context, mode passMode, stop func(c, done int) bool, log *[]string) passResult {
	issuers := make([]issuer, s.cfg.clients)
	var (
		alt  *alternator
		refd *referenced
	)
	for c := range issuers {
		if s.w.frontURL() == "" {
			continue // the workload enters at core; its drive needs no issuer
		}
		h := newHTTPIssuer(s.w.frontURL(), s.cfg.tap)
		defer h.close()
		switch {
		case mode == alternating:
			alt = &alternator{issuers: [2]issuer{h, coreIssuer{client: s.w.secure, tp: s.cfg.tap}}}
			issuers[c] = alt
		case s.sp.referenceEvery > 0:
			// One reference, so one client: specs interleave it only on
			// single-client workloads.
			refd = &referenced{inner: h, ref: s.ref, every: s.sp.referenceEvery}
			issuers[c] = refd
		default:
			issuers[c] = h
		}
	}
	recs := make([]*recorder, s.cfg.clients)
	var wg sync.WaitGroup
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := now()
	for c := range recs {
		recs[c] = &recorder{}
		if c == 0 {
			recs[c].log = log
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.w.drive(ctx, c, issuers[c], func(done int) bool { return ctx.Err() != nil || stop(c, done) }, recs[c])
		}()
	}
	wg.Wait()
	wall := now().Sub(start)
	runtime.ReadMemStats(&after)
	p := passResult{
		rec:        mergeRecorders(recs),
		wall:       wall,
		mallocs:    after.Mallocs - before.Mallocs,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		alt:        alt,
	}
	if refd != nil {
		p.ref = refd.samples
		p.wall -= refd.spent
	}
	return p
}

// until stops every client once the wall clock passes d from now.
func until(d time.Duration) func(int, int) bool {
	deadline := now().Add(d)
	return func(int, int) bool { return !now().Before(deadline) }
}

// afterOps stops each client after n operations.
func afterOps(n int) func(int, int) bool {
	return func(_, done int) bool { return done >= n }
}

// runWorkload is one end-to-end run: set-up, tamper canary, warm-up,
// measured window, baselines, cross-checks.
func runWorkload(ctx context.Context, cfg runConfig) (*runResult, error) {
	s, err := openSession(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer s.close()

	var warm *recorder
	stop := afterOps(cfg.ops)
	if cfg.ops == 0 {
		// Warm-up: caches fill, pools connect, the heap reaches its
		// working size; nothing from it is reported.
		warm = s.pass(ctx, viaHTTP, until(cfg.warmup), nil).rec
		stop = until(cfg.window)
	}
	p := s.pass(ctx, viaHTTP, stop, cfg.log)

	res := &runResult{
		Workload:  cfg.workload,
		Seed:      cfg.seed,
		WallS:     p.wall.Seconds(),
		Attempted: p.rec.attempted,
		Failed:    p.rec.failed,
		Samples:   map[string]int{},
		Metrics:   metrics{},
	}
	if p.rec.firstErr != nil {
		res.FirstErr = p.rec.firstErr.Error()
	}
	if warm != nil && warm.failed > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d of %d warm-up operations failed: %v", warm.failed, warm.attempted, warm.firstErr))
	}
	res.crossCheck(s.w, p.rec, warm)

	if wp, ok := s.w.(*wanPage); ok {
		if res.HTTPMs, res.HTTPSMs, err = wp.baselines(); err != nil {
			return nil, fmt.Errorf("%s baselines: %w", cfg.workload, err)
		}
	}
	if err := res.fill(s, p); err != nil {
		return nil, err
	}
	return res, nil
}

// crossCheck compares what the generator saw with what the program
// under test says about itself. Responses that look right while the
// proxy counts failures, or a security check failing where no adversary
// exists, mean the numbers describe something other than the workload.
func (r *runResult) crossCheck(w workloadRun, rec, warm *recorder) {
	tel := w.stack().tel
	if n := tel.SecurityCheckFailures.Total(); n != 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("security_check_failures_total = %d on an honest deployment", n))
	}
	if n := tel.Failovers.Value(); n != 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("failovers_total = %d with every replica healthy", n))
	}
	if w.frontURL() == "" {
		return
	}
	_, bad := w.proxyCounters()
	failed := rec.failed
	if warm != nil {
		failed += warm.failed
	}
	if int(bad) > failed {
		r.Problems = append(r.Problems, fmt.Sprintf("proxy counted %d failed requests, generator saw %d", bad, failed))
		r.Failed += int(bad) - failed
	}
	if n := tel.ProxyRequests.With("secure", "fail").Value(); n != bad {
		r.Problems = append(r.Problems, fmt.Sprintf("proxy_requests_total{secure,fail} = %d but proxy.Counters failed = %d", n, bad))
	}
}

// Units.
const (
	unitMs    = "ms"
	unitS     = "s"
	unitRate  = "1/s"
	unitMBps  = "MB/s"
	unitCount = "count"
	unitRatio = "ratio"
)

// scaled divides every value by factor, in place.
func scaled(values []float64, factor float64) []float64 {
	for i := range values {
		values[i] /= factor
	}
	return values
}

// tooFewBeyond is the note on a p90 that fewer than minBeyond samples
// lie beyond.
func tooFewBeyond(pages int) string {
	return fmt.Sprintf("page_load_p90_ms has %d of %d page loads beyond it, fewer than %d", beyond(pages, 0.90), pages, minBeyond)
}

// fill derives every end-to-end metric from the window's samples. Where
// the workload's time is one client's CPU time (the spec interleaves the
// reference), times are brought to the reference machine speed — divided
// by how much slower than nominal the machine ran the reference in the
// same moments — and rates multiplied by it, with the values as measured
// printed beside them as raw_*. bulk-stream and wan-page report times as
// measured.
func (r *runResult) fill(s *session, p passResult) error {
	rec, wall, m := p.rec, p.wall, r.Metrics
	if len(rec.fetch) == 0 || len(rec.page) == 0 {
		return fmt.Errorf("%s: no operation succeeded in the measured window (%d attempted): %v", r.Workload, rec.attempted, rec.firstErr)
	}
	slow := slowdown(p.ref)
	fetch, page, visible := scaled(millis(rec.fetch), slow), scaled(millis(rec.page), slow), scaled(millis(rec.visible), slow)
	r.Samples["fetch"], r.Samples["page"] = len(fetch), len(page)
	r.PageMs = page
	verified := len(fetch) + len(visible) // every GET that ended in verified bytes

	m.set("setup_s", median(s.setupsS), unitS)
	m.set("fetch_p50_ms", percentile(fetch, 0.50), unitMs)
	m.set("fetch_p95_ms", percentile(fetch, 0.95), unitMs)
	m.set("fetch_p99_ms", percentile(fetch, 0.99), unitMs) // printed, never compared: too few samples beyond it
	m.set("fetch_per_s", slow*float64(verified)/wall.Seconds(), unitRate)
	m.set("goodput_mb_per_s", slow*float64(rec.bytes)/1e6/wall.Seconds(), unitMBps)
	m.set("page_load_p50_ms", percentile(page, 0.50), unitMs)
	m.set("page_load_p90_ms", percentile(page, 0.90), unitMs)
	if beyond(len(page), 0.90) < minBeyond {
		r.Notes = append(r.Notes, tooFewBeyond(len(page)))
	}
	m.set("allocs_per_fetch", float64(p.mallocs)/float64(verified), unitCount)
	m.set("alloc_bytes_per_payload_byte", float64(p.allocBytes)/float64(rec.bytes), unitRatio)
	m.set("failed_share", float64(r.Failed)/float64(r.Attempted), unitRatio)
	if len(visible) > 0 {
		r.Samples["update_visible"] = len(visible)
		m.set("update_visible_p50_ms", percentile(visible, 0.50), unitMs)
		m.set("update_visible_p95_ms", percentile(visible, 0.95), unitMs)
	}
	if len(r.HTTPMs) > 0 {
		r.Samples["baseline"] = len(r.HTTPMs)
		m.set("vs_http_ratio", percentile(page, 0.50)/median(r.HTTPMs), unitRatio)
		m.set("vs_https_ratio", percentile(page, 0.50)/median(r.HTTPSMs), unitRatio)
	}
	if len(p.ref) > 0 {
		// How the machine ran while this was measured, and the gated times
		// as the clock read them.
		r.Samples["reference"] = len(p.ref)
		m.set("reference_slowdown", slow, unitRatio)
		for _, name := range []string{"fetch_p50_ms", "page_load_p50_ms", "page_load_p90_ms"} {
			m.set("raw_"+name, m[name].Value*slow, unitMs)
		}
		m.set("raw_goodput_mb_per_s", m["goodput_mb_per_s"].Value/slow, unitMBps)
	}
	return nil
}

var errBaseline = errors.New("baseline transferred the wrong byte count")

// baseline serves doc over plain HTTP and over HTTPS from the server site
// and times whole-object fetches of it from the client site, across the
// same link the GlobeDoc fetch uses: the denominators of Figures 5–7.
// Every sample is a fresh connection (and TLS handshake), like the
// paper's wget runs.
type baseline struct {
	st                  *stack
	doc                 *document.Document
	plain               *httpbase.FileServer
	secure              *httpbase.TLSFileServer
	httpAddr, httpsAddr string
	httpMs, httpsMs     []float64
}

func openBaseline(st *stack, doc *document.Document) (*baseline, error) {
	b := &baseline{st: st, doc: doc}
	hl, addr, err := st.listen(serverSite, "http-baseline")
	if err != nil {
		return nil, err
	}
	b.httpAddr = addr
	b.plain = httpbase.NewFileServer(doc)
	b.plain.Start(hl)
	sl, addr, err := st.listen(serverSite, "https-baseline")
	if err != nil {
		b.plain.Close()
		return nil, err
	}
	b.httpsAddr = addr
	if b.secure, err = httpbase.NewTLSFileServer(doc, serverSite); err != nil {
		b.plain.Close()
		sl.Close()
		return nil, err
	}
	b.secure.Start(sl)
	return b, nil
}

func (b *baseline) close() {
	b.plain.Close()
	b.secure.Close()
}

// sample takes n plain-HTTP and n HTTPS whole-object fetches, alternating.
func (b *baseline) sample(n int) error {
	elements := b.doc.Names()
	timed := func(c *httpbase.Client) (float64, error) {
		defer c.CloseIdle()
		d, got, err := c.TimedGetAll(elements)
		if err != nil {
			return 0, err
		}
		if got != b.doc.TotalSize() {
			return 0, fmt.Errorf("%w: %d of %d", errBaseline, got, b.doc.TotalSize())
		}
		return float64(d) / float64(time.Millisecond), nil
	}
	for i := 0; i < n; i++ {
		plain, err := timed(httpbase.NewClient(b.st.dial(clientSite, b.httpAddr), nil, serverSite))
		if err != nil {
			return err
		}
		secure, err := timed(httpbase.NewClient(b.st.dial(clientSite, b.httpsAddr), b.secure.Pool, serverSite))
		if err != nil {
			return err
		}
		b.httpMs = append(b.httpMs, plain)
		b.httpsMs = append(b.httpsMs, secure)
	}
	return nil
}
