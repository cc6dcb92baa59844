package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"globedoc/internal/netsim"
	"globedoc/internal/vcache"
)

// The traced run. For one workload it replays a fixed number of that
// workload's operations, single-threaded, over two identical
// deployments — one untouched, one with every boundary tapped. On each,
// successive fetches go alternately over HTTP and directly at the
// proxy's core.Client, and from the differences it derives what each
// layer costs:
//
//	proxy's share  = HTTP latency − direct latency, same sequence, untapped
//	core's self    = direct span − the resolve/lookup/dial/rpc spans under it
//	tracing cost   = tapped HTTP latency vs untapped HTTP latency
//
// Counts (dials, round trips, wire bytes, resolves, lookups per fetch;
// cache hit ratios; pipeline runs) come from the tap and from the
// deployment's own telemetry counters over the same passes.
//
// BENCHMARK.json's contract has every traced run report every per-layer
// metric (README, "The contract"), so every traced run does the same
// work — it replays all four workloads and runs the leaf-layer ledger —
// and the workload it is named after selects only whose per-fetch counts
// its JSON line carries. Time metrics are read from whichever replay
// exercises the layer: cold-path costs from first-visit, per-byte costs
// from bulk-stream, and so on.

// replayPass is one replay pass, reduced.
type replayPass struct {
	httpUs, directUs []float64 // per-fetch client-side latency by issuer
	verified         int       // fetches that ended in verified bytes
	pages            int
	spans            []span
	counts           tapCounts
}

func microseconds(samples []time.Duration) []float64 {
	us := millis(samples)
	for i := range us {
		us[i] *= 1e3
	}
	return us
}

func reducePass(p passResult) replayPass {
	r := replayPass{verified: len(p.rec.fetch) + len(p.rec.visible), pages: len(p.rec.page)}
	if p.alt != nil {
		r.httpUs, r.directUs = microseconds(p.alt.samples[0]), microseconds(p.alt.samples[1])
	} else {
		// The workload enters at core: every fetch is a direct one.
		r.directUs = microseconds(p.rec.fetch)
		r.httpUs = r.directUs
	}
	return r
}

// counterSnapshot reads the deployment counters the ratios are made of.
type counterSnapshot struct {
	vcHits, vcMisses, sigHits       uint64
	bindHits, bindMisses, pipelines uint64
	failovers                       uint64
	overheadSum                     float64
	overheadN                       uint64
	proxyOK, proxyBad               uint64
}

func snapshotCounters(w workloadRun) counterSnapshot {
	tel := w.stack().tel
	ok, bad := w.proxyCounters()
	return counterSnapshot{
		vcHits: tel.VCacheHits.Value(), vcMisses: tel.VCacheMisses.Value(), sigHits: tel.SigCacheHits.Value(),
		bindHits: tel.BindingCacheHits.Value(), bindMisses: tel.BindingCacheMisses.Value(), pipelines: tel.PipelineRuns.Value(),
		failovers:   tel.Failovers.Value(),
		overheadSum: tel.SecurityOverhead.Sum(), overheadN: tel.SecurityOverhead.Count(),
		proxyOK: ok, proxyBad: bad,
	}
}

// replayResult is one workload's traced replay.
type replayResult struct {
	plain, traced replayPass
	before, after counterSnapshot // around the untapped pass
	link          netsim.LinkProfile
	failed        int
	// What the passes cannot isolate, measured on the untapped
	// deployment after them (see extras).
	securityOverheadPct          float64
	coreAllocs, httpAllocs       float64
	deltaBytesPerPull, fallbacks float64
}

// replay runs one workload's passes. timeScale applies to wan-page only.
func replay(ctx context.Context, o options, sp spec, timeScale float64) (*replayResult, error) {
	cfg := o.runConfig()
	cfg.workload, cfg.clients, cfg.setups, cfg.timeScale = sp.name, 1, 1, &timeScale
	r := &replayResult{}
	ops := sp.replayOps
	if cfg.small {
		ops = max(ops/20, 2)
	}

	run := func(tp *tap) (replayPass, error) {
		cfg.tap = tp
		s, err := openSession(ctx, cfg)
		if err != nil {
			return replayPass{}, err
		}
		defer s.close()
		// Warm-up: a long-lived proxy binds and fills its cache, as it
		// has long since done in the end-to-end run's window.
		r.failed += s.pass(ctx, viaHTTP, afterOps(sp.replayWarmOps), nil).rec.failed
		if tp == nil {
			r.before = snapshotCounters(s.w)
		} else {
			tp.drain()
		}
		p := s.pass(ctx, alternating, afterOps(ops), nil)
		r.failed += p.rec.failed
		pass := reducePass(p)
		if tp != nil {
			pass.spans, pass.counts = tp.drain()
			return pass, nil
		}
		r.after = snapshotCounters(s.w)
		if st := s.w.stack(); st.world != nil {
			r.link = st.world.Net.Link(clientSite, serverSite)
		}
		r.extras(ctx, s)
		return pass, nil
	}
	var err error
	if r.plain, err = run(nil); err != nil {
		return nil, err
	}
	if r.traced, err = run(newTap()); err != nil {
		return nil, err
	}
	if r.failed > 0 {
		return nil, fmt.Errorf("%s replay: %d operations failed", sp.name, r.failed)
	}
	return r, nil
}

// extras measures, on the untapped deployment after its pass, what the
// pass itself cannot isolate: allocations of one fetch alone (no client
// construction, no write side), and the paper's Figure-4 quantity.
func (r *replayResult) extras(ctx context.Context, s *session) {
	count := func(iss issuer, wt want) float64 {
		mallocs, _ := allocsPer(1, func() {
			if _, err := iss.fetch(ctx, wt); err != nil {
				r.failed++
			}
		})
		return mallocs
	}
	direct := coreIssuer{client: s.w.secure}
	if n := r.after.overheadN - r.before.overheadN; n > 0 {
		r.securityOverheadPct = (r.after.overheadSum - r.before.overheadSum) / float64(n)
	}
	const n = 100
	switch w := s.w.(type) {
	case *firstVisit:
		h := newHTTPIssuer(w.frontURL(), nil)
		defer h.close()
		for i := 0; i < 2*n; i++ {
			// Cold: a brand-new client per fetch, built outside the count.
			if err := w.swap(); err != nil {
				r.failed++
				continue
			}
			if wt := w.wants[i%len(w.wants)]; i%2 == 0 {
				r.httpAllocs += count(h, wt) / n
			} else {
				r.coreAllocs += count(direct, wt) / n
			}
		}
	case *updateChurn:
		// Warm: the certificate is current and the bytes are cached.
		for i := 0; i < n; i++ {
			r.coreAllocs += count(direct, w.want(w.names[i%len(w.names)])) / n
		}
		if pulls := w.puller.DeltaPulls(); pulls > 0 {
			r.deltaBytesPerPull = float64(w.puller.BytesDelta()) / float64(pulls)
		}
		r.fallbacks = float64(w.puller.DeltaFallbacks())
	case *wanPage:
		// FetchAll's per-element results carry no binding phases, so
		// the security share of a cold fetch is read off a few cold
		// single-element fetches, as the paper's Figure 4 was.
		var sum float64
		const fetches = 5
		for i := 0; i < fetches; i++ {
			c, err := w.st.newClient(vcache.New(vcache.Config{}), nil, nil)
			if err != nil {
				r.failed++
				continue
			}
			res, err := c.FetchNamed(ctx, w.pub.Name, "page.txt")
			c.close()
			if err != nil {
				r.failed++
				continue
			}
			sum += res.Timing.OverheadPercent() / fetches
		}
		r.securityOverheadPct = sum
	}
}

// Per-layer units beyond the end-to-end ones.
const (
	unitUs      = "us"
	unitNs      = "ns"
	unitPct     = "%"
	unitBytes   = "bytes"
	unitVirtual = "ms_virtual" // charged by the simulator's model, not measured
)

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// countMetrics fills m with the replayed workload's per-fetch counts and
// ratios.
func (r *replayResult) countMetrics(m metrics) {
	d := func(a, b uint64) uint64 { return a - b }
	fetches := float64(max(r.traced.verified, 1))
	c := r.traced.counts
	m.set("transport.dials_per_fetch", float64(c.Dials)/fetches, unitCount)
	m.set("transport.round_trips_per_fetch", float64(c.RoundTrips)/fetches, unitCount)
	m.set("transport.wire_bytes_per_fetch", float64(c.WireBytes)/fetches, unitBytes)
	m.set("naming.resolves_per_fetch", float64(c.Resolves)/fetches, unitCount)
	m.set("location.lookups_per_fetch", float64(c.Lookups)/fetches, unitCount)

	hits, misses := d(r.after.vcHits, r.before.vcHits), d(r.after.vcMisses, r.before.vcMisses)
	pipelines := d(r.after.pipelines, r.before.pipelines)
	m.set("vcache.hit_ratio", ratio(hits, hits+misses), unitRatio)
	m.set("vcache.sig_memo_hit_ratio", ratio(d(r.after.sigHits, r.before.sigHits), pipelines), unitRatio)
	bh, bm := d(r.after.bindHits, r.before.bindHits), d(r.after.bindMisses, r.before.bindMisses)
	m.set("core.binding_cache_hit_ratio", ratio(bh, bh+bm), unitRatio)
	m.set("core.pipeline_runs_per_fetch", ratio(pipelines, uint64(max(r.plain.verified, 1))), unitCount)
	m.set("core.failovers", float64(d(r.after.failovers, r.before.failovers)), unitCount)
	m.set("core.security_overhead_pct", r.securityOverheadPct, unitPct)
	m.set("proxy.requests_ok", float64(d(r.after.proxyOK, r.before.proxyOK)), unitCount)
	m.set("proxy.requests_failed", float64(d(r.after.proxyBad, r.before.proxyBad)), unitCount)
	m.set("server.delta_bytes_per_pull", r.deltaBytesPerPull, unitBytes)
	m.set("server.delta_fallbacks", r.fallbacks, unitCount)

	// What the simulator's model charges one page: every direction
	// change costs the link's one-way latency, every byte its share of
	// the bandwidth. On the paper's testbed this plus the page's CPU
	// time is the page load; on loopback TCP there is no model.
	pages := float64(max(r.traced.pages, 1))
	turnarounds, wire := float64(c.Turnarounds)/pages, float64(c.WireBytes)/pages
	if r.link == (netsim.LinkProfile{}) {
		turnarounds, wire = 0, 0
	}
	charged := time.Duration(turnarounds*float64(r.link.Latency)) + r.link.TransferTime(int(wire))
	m.set("netsim.turnarounds_per_page", turnarounds, unitCount)
	m.set("netsim.wire_bytes_per_page", wire, unitBytes)
	m.set("netsim.charged_ms_per_page", float64(charged)/float64(time.Millisecond), unitVirtual)

	plain, traced := median(r.plain.httpUs), median(r.traced.httpUs)
	m.set("trace.overhead_pct", 100*(traced-plain)/plain, unitPct)
}

// proxySelfUs is the proxy's own share of a request: HTTP latency minus
// the direct core call, interleaved over one sequence, untapped.
func (r *replayResult) proxySelfUs() float64 {
	return median(r.plain.httpUs) - median(r.plain.directUs)
}

// layerReport is a traced run's complete result: the times, which are
// the same whichever workload the run was named after, and each
// workload's own per-fetch counts and ratios.
type layerReport struct {
	Times  metrics            `json:"times"`
	Counts map[string]metrics `json:"counts"`
}

// of returns every per-layer metric as the traced run of workload
// reports it.
func (l layerReport) of(workload string) metrics {
	m := metrics{}
	for name, v := range l.Times {
		m[name] = v
	}
	for name, v := range l.Counts[workload] {
		m[name] = v
	}
	return m
}

// tracedRun is `-workload X -trace 1`: the four replays and the
// leaf-layer ledger, every per-layer metric printed with X's counts, one
// span file written per workload.
func tracedRun(ctx context.Context, o options) error {
	if _, ok := findSpec(o.workload); !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	oneProcessorPerClient(1) // every replay is single-client
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	report := layerReport{Times: metrics{}, Counts: map[string]metrics{}}
	replays := make(map[string]*replayResult, len(specs))
	for _, sp := range specs {
		// wan-page at the paper's latencies; the other workloads have none.
		r, err := replay(ctx, o, sp, 1.0)
		if err != nil {
			return err
		}
		replays[sp.name] = r
		report.Counts[sp.name] = metrics{}
		r.countMetrics(report.Counts[sp.name])
		path := filepath.Join(o.outDir, "trace-"+sp.name+".json")
		if err := writeTrace(path, traceFile{Workload: sp.name, Seed: o.seed, Counts: r.traced.counts, Spans: r.traced.spans}); err != nil {
			return err
		}
		fmt.Printf("%s: %d spans written to %s\n", sp.name, len(r.traced.spans), path)
	}
	wan, _ := findSpec("wan-page")
	cpuPage, err := replay(ctx, o, wan, 0) // the page's CPU share
	if err != nil {
		return err
	}

	m := report.Times
	cold, bulk, churn := replays["first-visit"], replays["bulk-stream"], replays["update-churn"]
	m.set("core.fetch_cold_us", median(cold.plain.directUs), unitUs)
	m.set("core.self_cold_us", median(selfSamples(closed(cold.traced.spans), spanCore)), unitUs)
	m.set("core.allocs_per_cold_fetch", cold.coreAllocs, unitCount)
	m.set("core.fetch_warm_hit_us", median(churn.plain.directUs), unitUs)
	m.set("core.allocs_per_warm_hit", churn.coreAllocs, unitCount)
	m.set("core.fetch_warm_miss_1mib_us", median(bulk.plain.directUs), unitUs)
	m.set("core.fetchall_cold_cpu_ms", median(cpuPage.plain.directUs)/1e3, unitMs)
	m.set("proxy.self_cold_us", cold.proxySelfUs(), unitUs)
	m.set("proxy.self_warm_us", churn.proxySelfUs(), unitUs)
	m.set("proxy.self_1mib_us", bulk.proxySelfUs(), unitUs)
	m.set("proxy.allocs_per_request", cold.httpAllocs-cold.coreAllocs, unitCount)
	if err := measureLayers(ctx, o, m); err != nil {
		return err
	}

	tr := replays[o.workload]
	all := report.of(o.workload)
	printMetrics(os.Stdout, o.workload, all)
	printLayerTable(o.workload, tr)
	if o.detail != "" {
		if err := writeJSON(o.detail, report); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(resultLine{
		Correct:   true, // a failed replay operation aborted the run above
		Attempted: tr.plain.verified + tr.traced.verified,
		Metrics:   all,
	})
}

// printLayerTable prints, per span name, what one fetch of the traced
// HTTP pass spent there in total and in self time.
func printLayerTable(workload string, r *replayResult) {
	spans := closed(r.traced.spans)
	fetches := float64(max(r.traced.verified, 1))
	fmt.Printf("%s: where one fetch's time goes (traced pass: fetches alternate HTTP and direct; µs per fetch)\n", workload)
	fmt.Printf("  %-18s %8s %12s %12s\n", "span", "calls", "total", "self")
	for _, lt := range byLayer(spans) {
		fmt.Printf("  %-18s %8.2f %12.2f %12.2f\n", lt.Name,
			float64(lt.Count)/fetches, float64(lt.TotalNs)/1e3/fetches, float64(lt.SelfNs)/1e3/fetches)
	}
}
