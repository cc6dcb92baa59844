package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"globedoc/internal/clock"
	"globedoc/internal/core"
	"globedoc/internal/deploy"
	"globedoc/internal/netsim"
	"globedoc/internal/server"
	"globedoc/internal/telemetry"
	"globedoc/internal/workload"
)

// MultiplexResult is the -experiment multiplex output: cold fetch
// latency for one element vs. the whole wide object over the batched v2
// transport, the serial-RPC ablation for contrast, and the transport
// counters that prove the batch path actually ran.
type MultiplexResult struct {
	// Elements is the width of the measured object; ElementBytes the
	// size of each element.
	Elements     int `json:"elements"`
	ElementBytes int `json:"element_bytes"`

	// SingleCold fetches one element from cold bindings: the full secure
	// pipeline plus one element round trip.
	SingleCold Phase `json:"single_cold"`
	// BatchCold fetches all elements from cold bindings: the same
	// pipeline, whose one obj.bind exchange carries every element.
	BatchCold Phase `json:"batch_cold"`
	// SerialCold is the ablation: batch fetch disabled and one fetch
	// worker, so every element pays its own round trip in sequence.
	SerialCold Phase `json:"serial_cold"`

	// BatchRatio is BatchCold.Mean / SingleCold.Mean — the acceptance
	// metric (a wide object over the multiplexed transport must cost at
	// most ~2x a single element, not Elements x).
	BatchRatio float64 `json:"batch_ratio"`
	// SerialRatio is SerialCold.Mean / SingleCold.Mean, for contrast.
	SerialRatio float64 `json:"serial_ratio"`

	// Transport counters accumulated across the run.
	BatchFetches  uint64 `json:"batch_fetch_total"`
	BatchElements uint64 `json:"batch_fetch_elements_total"`
	StreamsOpened uint64 `json:"transport_streams_opened_total"`
	NegotiatedV2  uint64 `json:"negotiations_v2"`

	// AblationIdentical reports the in-run check: the serial-RPC client
	// fetched bytes identical to the batched client's, element by
	// element.
	AblationIdentical bool `json:"ablation_identical"`
}

const (
	// muxElements is the object width: wide enough that per-element
	// round trips dominate a serial cold fetch.
	muxElements = 16
	// muxElementBytes keeps transfer time small relative to round trips,
	// which is the regime batching is about.
	muxElementBytes = 4 * workload.KB
)

// RunMultiplex measures the multiplexed transport with batched element
// fetch (the -experiment multiplex entry point). It publishes one
// 16-element document and measures, from cold bindings every sample:
//
//   - single: fetch one element — the secure pipeline plus one element
//     round trip, the baseline;
//   - batch: FetchAll over the v2 transport — the same pipeline, whose
//     one obj.bind exchange carries all 16 elements;
//   - serial: FetchAll with DisableBatchFetch and one worker — every
//     element pays its own sequential round trip, the pre-v2 cost.
//
// The run finishes by checking the batched and serial clients fetched
// byte-identical content.
func RunMultiplex(cfg Config) (*MultiplexResult, error) {
	cfg = cfg.withDefaults()
	clk := clock.NewFake(benchEpoch)
	tel := telemetry.New(nil)
	w, err := deploy.NewWorld(deploy.Options{TimeScale: cfg.TimeScale, Telemetry: tel, Clock: clk.Now})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv-ams", nil, nil, server.Limits{}); err != nil {
		return nil, err
	}
	doc := workload.WideDoc(muxElements, muxElementBytes, WorkloadSeed)
	pub, err := w.Publish(doc, deploy.PublishOptions{
		Name:         "multiplex.bench",
		TTL:          time.Hour,
		KeyAlgorithm: cfg.KeyAlgorithm,
		Clock:        clk.Now,
	})
	if err != nil {
		return nil, err
	}

	batched, err := w.NewSecureClientOpts(netsim.Paris, core.Options{Now: clk.Now})
	if err != nil {
		return nil, err
	}
	defer batched.Close()
	serial, err := w.NewSecureClientOpts(netsim.Paris, core.Options{
		Now:               clk.Now,
		DisableBatchFetch: true,
		FetchWorkers:      1,
	})
	if err != nil {
		return nil, err
	}
	defer serial.Close()
	//lint:ignore ctxfirst the benchmark harness is the top of the call tree; there is no caller context to inherit
	ctx := context.Background()

	res := &MultiplexResult{Elements: muxElements, ElementBytes: muxElementBytes}

	// Single-element baseline: cold bindings, one element round trip.
	var single []time.Duration
	for i := 0; i < cfg.Iterations; i++ {
		batched.FlushBindings()
		start := now()
		if _, err := batched.Fetch(ctx, pub.OID, "el-00.bin"); err != nil {
			return nil, fmt.Errorf("multiplex single fetch: %w", err)
		}
		single = append(single, now().Sub(start))
	}
	res.SingleCold = toPhase(single)

	// Whole-object fetch from cold bindings, returning the bytes of the
	// last sample per element for the ablation compare.
	fetchAllCold := func(label string, c *core.Client) (Phase, map[string][]byte, error) {
		content := make(map[string][]byte, muxElements)
		var samples []time.Duration
		for i := 0; i < cfg.Iterations; i++ {
			c.FlushBindings()
			start := now()
			results, err := c.FetchAll(ctx, pub.OID)
			if err != nil {
				return Phase{}, nil, fmt.Errorf("multiplex %s fetch: %w", label, err)
			}
			samples = append(samples, now().Sub(start))
			if len(results) != muxElements {
				return Phase{}, nil, fmt.Errorf("multiplex %s fetch %d returned %d elements, want %d", label, i, len(results), muxElements)
			}
			for _, r := range results {
				content[r.Element.Name] = r.Element.Data
			}
		}
		return toPhase(samples), content, nil
	}
	// Batched: one obj.bind exchange carries the elements. Serial ablation:
	// individual sequential GetElement calls.
	var content, serialContent map[string][]byte
	if res.BatchCold, content, err = fetchAllCold("batch", batched); err != nil {
		return nil, err
	}
	if res.SerialCold, serialContent, err = fetchAllCold("serial", serial); err != nil {
		return nil, err
	}

	if res.SingleCold.Mean > 0 {
		res.BatchRatio = float64(res.BatchCold.Mean) / float64(res.SingleCold.Mean)
		res.SerialRatio = float64(res.SerialCold.Mean) / float64(res.SingleCold.Mean)
	}

	res.AblationIdentical = len(content) == muxElements && len(serialContent) == muxElements
	for name, data := range content {
		if !bytes.Equal(serialContent[name], data) {
			res.AblationIdentical = false
		}
	}

	res.BatchFetches = tel.BatchFetches.Value()
	res.BatchElements = tel.BatchElements.Value()
	res.StreamsOpened = tel.StreamsOpened.Value()
	res.NegotiatedV2 = tel.Negotiations.With("v2").Value()
	return res, nil
}

// Format renders the multiplex experiment as a human-readable table.
func (r *MultiplexResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multiplexed transport with batched element fetch (%d x %s elements, client at %s)\n\n",
		r.Elements, fmtSize(r.ElementBytes), netsim.Paris)
	phaseHeader(&b, 14, "phase")
	r.SingleCold.row(&b, 14, "single cold")
	r.BatchCold.row(&b, 14, "batch cold")
	r.SerialCold.row(&b, 14, "serial cold")
	fmt.Fprintf(&b, "\n  batch ratio (batch cold / single cold): %.2fx (serial ablation: %.2fx)\n",
		r.BatchRatio, r.SerialRatio)
	fmt.Fprintf(&b, "  counters: batch_fetches=%d batch_elements=%d streams_opened=%d negotiations{v2}=%d\n",
		r.BatchFetches, r.BatchElements, r.StreamsOpened, r.NegotiatedV2)
	fmt.Fprintf(&b, "  ablation (serial client fetches identical bytes): %v\n", r.AblationIdentical)
	return b.String()
}

// multiplexMaxBatchRatio is the multiplex gate's bar on BatchRatio.
const multiplexMaxBatchRatio = 2.0

// gate: a cold wide-object fetch stays within the bar of a cold
// single-element fetch, the batch path really ran over negotiated v2,
// and the serial-RPC ablation fetched identical bytes.
func (m *MultiplexResult) gate() (string, error) {
	wantFetches := uint64(m.BatchCold.Ops)
	switch {
	case m.SingleCold.Ops == 0 || m.BatchCold.Ops == 0 || m.SerialCold.Ops == 0:
		return "", fmt.Errorf("missing phase samples: single=%d batch=%d serial=%d", m.SingleCold.Ops, m.BatchCold.Ops, m.SerialCold.Ops)
	case m.BatchRatio > multiplexMaxBatchRatio:
		return "", fmt.Errorf("cold %d-element fetch is %.2fx a cold single-element fetch, want <= %.1fx (single %s, batch %s)",
			m.Elements, m.BatchRatio, multiplexMaxBatchRatio, m.SingleCold.Mean, m.BatchCold.Mean)
	case m.BatchFetches < wantFetches:
		return "", fmt.Errorf("batch_fetch_total = %d, want >= %d (one exchange per batch sample)", m.BatchFetches, wantFetches)
	case m.BatchElements < wantFetches*uint64(m.Elements):
		return "", fmt.Errorf("batch_fetch_elements_total = %d, want >= %d (%d elements per exchange)",
			m.BatchElements, wantFetches*uint64(m.Elements), m.Elements)
	case m.NegotiatedV2 == 0:
		return "", errors.New("negotiations{v2} = 0: the run never negotiated the multiplexed transport")
	case !m.AblationIdentical:
		return "", errors.New("ablation check failed: serial-RPC client fetched different bytes")
	}
	return fmt.Sprintf("single %s, batch %s (%.2fx <= %.1fx), serial %s (%.2fx), batch_fetches=%d batch_elements=%d",
		m.SingleCold.Mean, m.BatchCold.Mean, m.BatchRatio, multiplexMaxBatchRatio,
		m.SerialCold.Mean, m.SerialRatio, m.BatchFetches, m.BatchElements), nil
}
