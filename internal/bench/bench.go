// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§4) on the simulated testbed:
//
//	Table 1   — the experimental setting (hosts + links);
//	Figure 4  — security overhead (%) vs. element size, per client site;
//	Figures 5–7 — GlobeDoc vs. HTTP vs. HTTPS full-object fetch time for
//	              the 15/105/1005 KB composite objects, per client site.
//
// The harness runs the real protocol stack — secure client, object
// server, naming and location services, baseline HTTP/TLS servers — over
// netsim links, and prints the same rows/series the paper reports.
// DESIGN.md §3 maps each experiment to these entry points; EXPERIMENTS.md
// records measured-vs-paper shapes.
package bench

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"globedoc/internal/core"
	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/httpbase"
	"globedoc/internal/keys"
	"globedoc/internal/naming"
	"globedoc/internal/netsim"
	"globedoc/internal/server"
	"globedoc/internal/workload"
)

// now is the wall clock for benchmark timing; a variable so replayed
// runs can substitute a deterministic clock.
var now = time.Now

// benchEpoch is where the experiments' virtual clocks start (the
// paper's publication month); certificate validity is expired from here
// by advancing the clock, never by waiting.
var benchEpoch = time.Date(2005, 4, 4, 12, 0, 0, 0, time.UTC)

// Config controls experiment scale.
type Config struct {
	// TimeScale scales simulated link delays (1.0 = the paper's
	// latencies; tests use small values).
	TimeScale float64
	// Iterations per measured point (the paper averaged 24h of samples;
	// we average repeated in-process runs).
	Iterations int
	// Sizes overrides the Figure-4 element sizes (defaults to the
	// paper's six sizes).
	Sizes []int
	// ImageSizes overrides the Figures-5–7 per-image sizes (defaults to
	// the paper's 1/10/100 KB).
	ImageSizes []int
	// Clients overrides the measured client sites (defaults to
	// Amsterdam secondary, Paris, Ithaca).
	Clients []string
	// KeyAlgorithm for object keys (defaults to RSA2048 as in the
	// paper's prototype).
	KeyAlgorithm keys.Algorithm
	// Concurrency is the closed-loop worker count of the concurrent
	// experiment.
	Concurrency int
	// DisableVCache runs the cache experiment without the
	// verified-content cache (the ablation).
	DisableVCache bool
}

func (c Config) withDefaults() Config {
	if c.Iterations == 0 {
		c.Iterations = 5
	}
	if c.Sizes == nil {
		c.Sizes = workload.Fig4Sizes
	}
	if c.ImageSizes == nil {
		c.ImageSizes = workload.Fig5ImageSizes
	}
	if c.Clients == nil {
		c.Clients = netsim.ClientHosts
	}
	if c.KeyAlgorithm == 0 {
		c.KeyAlgorithm = keys.RSA2048
	}
	return c
}

// Sample aggregates repeated duration measurements.
type Sample struct {
	N    int
	Mean time.Duration
	Std  time.Duration
}

// Collect reduces raw durations to a Sample.
func Collect(values []time.Duration) Sample {
	if len(values) == 0 {
		return Sample{}
	}
	var sum float64
	for _, v := range values {
		sum += float64(v)
	}
	mean := sum / float64(len(values))
	var sq float64
	for _, v := range values {
		d := float64(v) - mean
		sq += d * d
	}
	return Sample{
		N:    len(values),
		Mean: time.Duration(mean),
		Std:  time.Duration(math.Sqrt(sq / float64(len(values)))),
	}
}

// Phase is the latency distribution of one measured phase of an
// experiment: a cold fetch, a warm fetch, a revalidation, a replica
// pull.
type Phase struct {
	Ops  int           `json:"ops"`
	Mean time.Duration `json:"latency_mean_ns"`
	P50  time.Duration `json:"latency_p50_ns"`
	P95  time.Duration `json:"latency_p95_ns"`
	P99  time.Duration `json:"latency_p99_ns"`
	Max  time.Duration `json:"latency_max_ns"`
}

func toPhase(samples []time.Duration) Phase {
	s := workload.ComputeLatencyStats(samples)
	return Phase{Ops: s.N, Mean: s.Mean, P50: s.P50, P95: s.P95, P99: s.P99, Max: s.Max}
}

// phaseHeader and Phase.row render the "ops mean p50 p95 p99" table
// the experiments share; width is the name column's.
func phaseHeader(b *strings.Builder, width int, label string) {
	fmt.Fprintf(b, "  %-*s %6s %12s %12s %12s %12s\n", width, label, "ops", "mean", "p50", "p95", "p99")
}

func (p Phase) row(b *strings.Builder, width int, name string) {
	fmt.Fprintf(b, "  %-*s %6d %12s %12s %12s %12s\n", width, name, p.Ops,
		p.Mean.Round(time.Microsecond), p.P50.Round(time.Microsecond),
		p.P95.Round(time.Microsecond), p.P99.Round(time.Microsecond))
}

// --- Table 1 --------------------------------------------------------------

// RunTable1 renders the experimental setting.
func RunTable1(timeScale float64) string {
	n := netsim.PaperTestbed(timeScale)
	defer n.Close()
	return "Table 1: experimental setting (simulated)\n\n" + netsim.FormatTable1(n)
}

// --- Figure 4 ---------------------------------------------------------------

// Fig4Point is one measured point of Figure 4.
type Fig4Point struct {
	Size            int
	Client          string
	OverheadPercent float64
	Security        Sample
	Total           Sample
	Breakdown       core.Timing // mean per-phase times
}

// Fig4Result is the full figure: points[size][client].
type Fig4Result struct {
	Sizes   []int
	Clients []string
	Points  map[int]map[string]Fig4Point
}

// RunFig4 measures security overhead versus element size for each client
// site, reproducing Figure 4. Every iteration is a cold secure fetch:
// binding cache and name cache are flushed so the client pays the full
// pipeline, as the paper's periodic wget runs did.
func RunFig4(cfg Config) (*Fig4Result, error) {
	cfg = cfg.withDefaults()
	w, err := deploy.NewWorld(deploy.Options{TimeScale: cfg.TimeScale})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv-ams", nil, nil, server.Limits{}); err != nil {
		return nil, err
	}

	// One object per size, all replicated on the Amsterdam primary.
	pubs := make(map[int]*deploy.Publication, len(cfg.Sizes))
	for i, size := range cfg.Sizes {
		doc := workload.SingleElementDoc(size, uint64(i+1))
		pub, err := w.Publish(doc, deploy.PublishOptions{
			Name:         fmt.Sprintf("fig4-%d.bench", size),
			TTL:          24 * time.Hour,
			KeyAlgorithm: cfg.KeyAlgorithm,
		})
		if err != nil {
			return nil, err
		}
		pubs[size] = pub
	}

	result := &Fig4Result{
		Sizes:   cfg.Sizes,
		Clients: cfg.Clients,
		Points:  make(map[int]map[string]Fig4Point),
	}
	for _, size := range cfg.Sizes {
		result.Points[size] = make(map[string]Fig4Point)
		for _, client := range cfg.Clients {
			point, err := measureFig4Point(w, pubs[size], client, size, cfg.Iterations)
			if err != nil {
				return nil, err
			}
			result.Points[size][client] = point
		}
	}
	return result, nil
}

func measureFig4Point(w *deploy.World, pub *deploy.Publication, client string, size, iterations int) (Fig4Point, error) {
	sc := w.NewSecureClient(client)
	defer sc.Close()
	var securities, totals []time.Duration
	var sumTiming core.Timing
	for i := 0; i < iterations; i++ {
		sc.Close()
		if r, ok := sc.Binder.Names.(*naming.Resolver); ok {
			r.FlushCache()
		}
		//lint:ignore ctxfirst the benchmark harness is the top of the call tree; there is no caller context to inherit
		res, err := sc.FetchNamed(context.Background(), pub.Name, "image.bin")
		if err != nil {
			return Fig4Point{}, fmt.Errorf("fig4 %s/%d: %w", client, size, err)
		}
		securities = append(securities, res.Timing.Security())
		totals = append(totals, res.Timing.Total())
		sumTiming.Add(res.Timing)
	}
	sec := Collect(securities)
	tot := Collect(totals)
	overhead := 0.0
	if tot.Mean > 0 {
		overhead = 100 * float64(sec.Mean) / float64(tot.Mean)
	}
	return Fig4Point{
		Size:            size,
		Client:          client,
		OverheadPercent: overhead,
		Security:        sec,
		Total:           tot,
		Breakdown:       sumTiming.Scale(iterations),
	}, nil
}

// Format renders the figure as the paper's series: one line per client,
// overhead percentage per size.
func (r *Fig4Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 4: security overhead (%) vs element size\n\n")
	fmt.Fprintf(&b, "%-12s", "Size")
	for _, client := range r.Clients {
		fmt.Fprintf(&b, "%14s", netsim.ClientLabel(client))
	}
	b.WriteString("\n")
	for _, size := range r.Sizes {
		fmt.Fprintf(&b, "%-12s", fmtSize(size))
		for _, client := range r.Clients {
			p := r.Points[size][client]
			fmt.Fprintf(&b, "%13.1f%%", p.OverheadPercent)
		}
		b.WriteString("\n")
	}
	b.WriteString("\nMean totals (per size, per client):\n")
	for _, size := range r.Sizes {
		fmt.Fprintf(&b, "%-12s", fmtSize(size))
		for _, client := range r.Clients {
			p := r.Points[size][client]
			fmt.Fprintf(&b, "%14s", p.Total.Mean.Round(100*time.Microsecond))
		}
		b.WriteString("\n")
	}
	return b.String()
}

func fmtSize(size int) string {
	if size >= 1024*1024 {
		return fmt.Sprintf("%dMB", size/(1024*1024))
	}
	return fmt.Sprintf("%dKB", size/1024)
}

// --- Figures 5–7 -----------------------------------------------------------

// Fig5Row compares the three transports for one composite object.
type Fig5Row struct {
	TotalBytes int
	GlobeDoc   Sample
	HTTP       Sample
	HTTPS      Sample
}

// Fig5Result is the full figure for one client site.
type Fig5Result struct {
	Client string
	Rows   []Fig5Row
}

// RunFig5 reproduces Figures 5 (Amsterdam), 6 (Paris) or 7 (Ithaca)
// depending on client: fetching each composite object in full via the
// secure GlobeDoc pipeline, plain HTTP, and HTTPS, from the given client
// site. Every sample is a cold run: fresh bindings, no connection reuse
// across samples.
func RunFig5(client string, cfg Config) (*Fig5Result, error) {
	cfg = cfg.withDefaults()
	w, err := deploy.NewWorld(deploy.Options{TimeScale: cfg.TimeScale})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv-ams", nil, nil, server.Limits{}); err != nil {
		return nil, err
	}

	result := &Fig5Result{Client: client}
	for i, imageSize := range cfg.ImageSizes {
		doc := workload.CompositeDoc(imageSize, uint64(100+i))
		row, err := measureFig5Row(w, doc, client, i, cfg)
		if err != nil {
			return nil, err
		}
		result.Rows = append(result.Rows, row)
	}
	return result, nil
}

func measureFig5Row(w *deploy.World, doc *document.Document, client string, idx int, cfg Config) (Fig5Row, error) {
	pub, err := w.Publish(doc, deploy.PublishOptions{
		Name:         fmt.Sprintf("fig5-%d.bench", idx),
		TTL:          24 * time.Hour,
		KeyAlgorithm: cfg.KeyAlgorithm,
	})
	if err != nil {
		return Fig5Row{}, err
	}
	elements := doc.Names()

	// Baseline servers share the primary host, like the paper's Apache
	// on the same machine as the GlobeDoc server.
	httpSvc := fmt.Sprintf("http-%d", idx)
	httpsSvc := fmt.Sprintf("https-%d", idx)
	hl, err := w.Net.Listen(netsim.AmsterdamPrimary, httpSvc)
	if err != nil {
		return Fig5Row{}, err
	}
	fs := httpbase.NewFileServer(doc)
	fs.Start(hl)
	defer fs.Close()
	sl, err := w.Net.Listen(netsim.AmsterdamPrimary, httpsSvc)
	if err != nil {
		return Fig5Row{}, err
	}
	ts, err := httpbase.NewTLSFileServer(doc, netsim.AmsterdamPrimary)
	if err != nil {
		return Fig5Row{}, err
	}
	ts.Start(sl)
	defer ts.Close()

	var globedoc, plain, secure []time.Duration
	for i := 0; i < cfg.Iterations; i++ {
		// GlobeDoc: cold secure full-object fetch.
		sc := w.NewSecureClient(client)
		start := now()
		//lint:ignore ctxfirst the benchmark harness is the top of the call tree; there is no caller context to inherit
		if _, err := sc.FetchAll(context.Background(), pub.OID); err != nil {
			sc.Close()
			return Fig5Row{}, fmt.Errorf("fig5 globedoc: %w", err)
		}
		globedoc = append(globedoc, now().Sub(start))
		sc.Close()

		// Plain HTTP (fresh connection per run).
		hc := httpbase.NewClient(w.Net.Dialer(client, netsim.AmsterdamPrimary+":"+httpSvc), nil, netsim.AmsterdamPrimary)
		elapsed, _, err := hc.TimedGetAll(elements)
		if err != nil {
			return Fig5Row{}, fmt.Errorf("fig5 http: %w", err)
		}
		plain = append(plain, elapsed)
		hc.CloseIdle()

		// HTTPS (fresh connection per run: pays the handshake).
		tc := httpbase.NewClient(w.Net.Dialer(client, netsim.AmsterdamPrimary+":"+httpsSvc), ts.Pool, netsim.AmsterdamPrimary)
		elapsed, _, err = tc.TimedGetAll(elements)
		if err != nil {
			return Fig5Row{}, fmt.Errorf("fig5 https: %w", err)
		}
		secure = append(secure, elapsed)
		tc.CloseIdle()
	}
	return Fig5Row{
		TotalBytes: doc.TotalSize(),
		GlobeDoc:   Collect(globedoc),
		HTTP:       Collect(plain),
		HTTPS:      Collect(secure),
	}, nil
}

// Format renders the figure as the paper's bar groups.
func (r *Fig5Result) Format(figureNumber int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %d: performance comparison — %s client\n\n",
		figureNumber, netsim.ClientLabel(r.Client))
	fmt.Fprintf(&b, "%-12s %14s %14s %14s\n", "Object", "GlobeDoc", "HTTP", "HTTPS")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %14s %14s %14s\n",
			fmtSize(row.TotalBytes),
			row.GlobeDoc.Mean.Round(100*time.Microsecond),
			row.HTTP.Mean.Round(100*time.Microsecond),
			row.HTTPS.Mean.Round(100*time.Microsecond))
	}
	return b.String()
}
