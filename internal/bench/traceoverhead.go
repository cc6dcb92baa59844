package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"globedoc/internal/clock"
	"globedoc/internal/core"
	"globedoc/internal/deploy"
	"globedoc/internal/globeid"
	"globedoc/internal/netsim"
	"globedoc/internal/server"
	"globedoc/internal/telemetry"
	"globedoc/internal/workload"
)

// TraceOverheadResult is the -experiment traceoverhead output: cold
// single-element fetch latency with tracing fully sampled (rate 1.0,
// every span exported) against the -trace-sample 0 ablation (spans
// timed but never exported), plus the export counters that prove each
// phase ran in the mode it claims.
type TraceOverheadResult struct {
	// ElementBytes is the size of the fetched element.
	ElementBytes int `json:"element_bytes"`

	// SampledCold fetches with sample rate 1.0: the full pipeline with
	// every span exported to the ring and exemplar trace IDs recorded on
	// the latency histogram.
	SampledCold Phase `json:"sampled_cold"`
	// UnsampledCold is the ablation at sample rate 0: identical fetches,
	// spans still timed (core.Timing needs the durations) but dropped at
	// End() instead of exported.
	UnsampledCold Phase `json:"unsampled_cold"`

	// P50Ratio is SampledCold.P50 / UnsampledCold.P50 — the acceptance
	// metric (full tracing must stay within a few percent of the
	// ablation; the simulated link delays dominate either way).
	P50Ratio float64 `json:"p50_ratio"`

	// SpansSampled counts spans exported during the sampled phase; it
	// must be large (client pipeline + server serve spans, per sample).
	SpansSampled uint64 `json:"spans_sampled"`
	// SpansUnsampled counts spans exported during the ablation; it must
	// be zero — nothing errored, so nothing may export at rate 0.
	SpansUnsampled uint64 `json:"spans_unsampled"`
	// ExemplarBuckets counts fetch-latency histogram buckets carrying an
	// exemplar trace ID after the sampled phase (>= 1 proves the
	// histogram→trace link works end to end).
	ExemplarBuckets int `json:"exemplar_buckets"`
}

// traceOverheadElementBytes keeps the element small so per-span
// bookkeeping is as large a fraction of the fetch as the testbed allows
// — the regime where tracing overhead would show first.
const traceOverheadElementBytes = 4 * workload.KB

// tracePhase is one arm of the ablation: an isolated world whose
// client traces at a fixed sample rate.
type tracePhase struct {
	world   *deploy.World
	client  *core.Client
	tel     *telemetry.Telemetry
	oid     globeid.OID
	samples []time.Duration
}

func (p *tracePhase) close() {
	if p.client != nil {
		p.client.Close()
	}
	if p.world != nil {
		p.world.Close()
	}
}

// fetchCold runs one cold fetch and optionally records its latency.
func (p *tracePhase) fetchCold(ctx context.Context, record bool) error {
	p.client.FlushBindings()
	start := now()
	if _, err := p.client.Fetch(ctx, p.oid, "image.bin"); err != nil {
		return err
	}
	if record {
		p.samples = append(p.samples, now().Sub(start))
	}
	return nil
}

func newTracePhase(cfg Config, rate float64) (*tracePhase, error) {
	clk := clock.NewFake(benchEpoch)
	tel := telemetry.New(nil)
	w, err := deploy.NewWorld(deploy.Options{TimeScale: cfg.TimeScale, Telemetry: tel, Clock: clk.Now})
	if err != nil {
		return nil, err
	}
	p := &tracePhase{world: w, tel: tel}
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv-ams", nil, nil, server.Limits{}); err != nil {
		p.close()
		return nil, err
	}
	doc := workload.SingleElementDoc(traceOverheadElementBytes, WorkloadSeed)
	// Subject gives the object a CA-certified identity the client
	// trusts: nothing on the happy path records an error, so the
	// ablation phase must export exactly zero spans.
	pub, err := w.Publish(doc, deploy.PublishOptions{
		Name:         "traceoverhead.bench",
		Subject:      "GlobeDoc benchmark",
		TTL:          time.Hour,
		KeyAlgorithm: cfg.KeyAlgorithm,
		Clock:        clk.Now,
	})
	if err != nil {
		p.close()
		return nil, err
	}
	p.oid = pub.OID
	sc, err := w.NewSecureClientOpts(netsim.Paris, core.Options{Now: clk.Now, TraceSampleRate: &rate})
	if err != nil {
		p.close()
		return nil, err
	}
	p.client = sc
	return p, nil
}

// RunTraceOverhead measures the cost of distributed tracing (the
// -experiment traceoverhead entry point). It runs the same cold
// single-element secure fetch in two isolated worlds — one tracing at
// sample rate 1.0 (every span exported, exemplars recorded), one at
// rate 0 (the ablation: spans timed but dropped at End) — with the two
// arms' samples interleaved fetch by fetch, so ambient load lands on
// both equally instead of biasing whichever phase ran second. The
// per-phase export totals prove each world ran in its claimed mode.
func RunTraceOverhead(cfg Config) (*TraceOverheadResult, error) {
	cfg = cfg.withDefaults()

	sampled, err := newTracePhase(cfg, 1.0)
	if err != nil {
		return nil, fmt.Errorf("traceoverhead sampled phase: %w", err)
	}
	defer sampled.close()
	unsampled, err := newTracePhase(cfg, 0)
	if err != nil {
		return nil, fmt.Errorf("traceoverhead ablation phase: %w", err)
	}
	defer unsampled.close()

	//lint:ignore ctxfirst the benchmark harness is the top of the call tree; there is no caller context to inherit
	ctx := context.Background()

	// One discarded warm-up fetch per arm absorbs process-level lazy
	// initialization (first-connection setup, page faults) that would
	// otherwise swamp the microsecond-scale effect being measured.
	if err := sampled.fetchCold(ctx, false); err != nil {
		return nil, fmt.Errorf("traceoverhead sampled warm-up: %w", err)
	}
	if err := unsampled.fetchCold(ctx, false); err != nil {
		return nil, fmt.Errorf("traceoverhead ablation warm-up: %w", err)
	}

	for i := 0; i < cfg.Iterations; i++ {
		// Alternate which arm goes first so any cost of having just run
		// a fetch (scheduler state, cache residency) is paid evenly.
		first, second := sampled, unsampled
		if i%2 == 1 {
			first, second = unsampled, sampled
		}
		if err := first.fetchCold(ctx, true); err != nil {
			return nil, fmt.Errorf("traceoverhead fetch %d: %w", i, err)
		}
		if err := second.fetchCold(ctx, true); err != nil {
			return nil, fmt.Errorf("traceoverhead fetch %d: %w", i, err)
		}
	}

	res := &TraceOverheadResult{
		ElementBytes:   traceOverheadElementBytes,
		SampledCold:    toPhase(sampled.samples),
		UnsampledCold:  toPhase(unsampled.samples),
		SpansSampled:   sampled.tel.Ring.Total(),
		SpansUnsampled: unsampled.tel.Ring.Total(),
	}
	for _, b := range sampled.tel.FetchLatency.Snapshot().Buckets {
		if b.ExemplarTraceID != 0 {
			res.ExemplarBuckets++
		}
	}
	if res.UnsampledCold.P50 > 0 {
		res.P50Ratio = float64(res.SampledCold.P50) / float64(res.UnsampledCold.P50)
	}
	return res, nil
}

// Format renders the trace-overhead experiment as a human-readable
// table.
func (r *TraceOverheadResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Trace overhead ablation (%s element, client at %s, cold fetches)\n\n",
		fmtSize(r.ElementBytes), netsim.Paris)
	phaseHeader(&b, 22, "phase")
	r.SampledCold.row(&b, 22, "sampled (rate 1.0)")
	r.UnsampledCold.row(&b, 22, "ablation (rate 0)")
	fmt.Fprintf(&b, "\n  p50 ratio (sampled / ablation): %.3fx\n", r.P50Ratio)
	fmt.Fprintf(&b, "  spans exported: sampled=%d ablation=%d; exemplar buckets=%d\n",
		r.SpansSampled, r.SpansUnsampled, r.ExemplarBuckets)
	return b.String()
}

// traceMaxP50Ratio is the traceoverhead gate's bar on P50Ratio.
const traceMaxP50Ratio = 1.05

// gate: the fully traced cold-fetch p50 stays within the bar of the
// rate-0 ablation, the sampled phase really traced (at least the fetch
// root and one child per sample) and the ablation exported nothing —
// nothing errored, so nothing may export at rate 0.
func (t *TraceOverheadResult) gate() (string, error) {
	switch {
	case t.SampledCold.Ops == 0 || t.UnsampledCold.Ops == 0:
		return "", fmt.Errorf("missing phase samples: sampled=%d ablation=%d", t.SampledCold.Ops, t.UnsampledCold.Ops)
	case t.P50Ratio > traceMaxP50Ratio:
		return "", fmt.Errorf("cold-fetch p50 with full tracing is %.3fx the untraced ablation, want <= %.2fx (sampled %s, ablation %s)",
			t.P50Ratio, traceMaxP50Ratio, t.SampledCold.P50, t.UnsampledCold.P50)
	case t.SpansSampled < uint64(t.SampledCold.Ops)*2:
		return "", fmt.Errorf("sampled phase exported %d spans, want >= %d", t.SpansSampled, t.SampledCold.Ops*2)
	case t.ExemplarBuckets == 0:
		return "", errors.New("sampled phase left no exemplar trace IDs on the fetch-latency histogram")
	case t.SpansUnsampled != 0:
		return "", fmt.Errorf("ablation phase exported %d spans at sample rate 0, want 0", t.SpansUnsampled)
	}
	return fmt.Sprintf("sampled p50 %s, ablation p50 %s (%.3fx <= %.2fx), spans sampled=%d ablation=%d, exemplar buckets=%d",
		t.SampledCold.P50, t.UnsampledCold.P50, t.P50Ratio, traceMaxP50Ratio,
		t.SpansSampled, t.SpansUnsampled, t.ExemplarBuckets), nil
}
