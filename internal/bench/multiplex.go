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
	// SerialCold is the ablation: the table of contents (Elements), then
	// one Fetch per element over the binding it left warm, so every
	// element pays its own round trip in sequence.
	SerialCold Phase `json:"serial_cold"`

	// BatchRatio is BatchCold.Mean / SingleCold.Mean, transfer time
	// included; LatencyRatio below is the gated one.
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

	// SingleNet, BatchNet and SerialNet are what the simulated network
	// charged per sample of each phase, before TimeScale.
	SingleNet NetCharge `json:"single_net"`
	BatchNet  NetCharge `json:"batch_net"`
	SerialNet NetCharge `json:"serial_net"`
	// LatencyRatio is the acceptance metric: the batch's mean less its
	// modelled transfer time over the single fetch's mean less its own,
	// the part of each fetch that round trips and CPU decide. A wide
	// object over the multiplexed transport must cost at most ~2x a
	// single element in that part, not Elements x; what its bytes cost at
	// the link's bandwidth is no round trip batching could save.
	LatencyRatio float64 `json:"latency_ratio"`
}

// NetCharge is a phase's netsim.Charge per sample.
type NetCharge struct {
	// Bursts counts the writes that started a burst, on either end: two
	// per round trip.
	Bursts float64 `json:"bursts"`
	// Latency is what those bursts paid in one-way link latency,
	// Transfer what every byte paid at the link's bandwidth.
	Latency  time.Duration `json:"latency_ns"`
	Transfer time.Duration `json:"transfer_ns"`
}

// perSample averages a charge over n samples.
func perSample(c netsim.Charge, n int) NetCharge {
	if n == 0 {
		return NetCharge{}
	}
	return NetCharge{
		Bursts:   float64(c.Bursts) / float64(n),
		Latency:  c.Latency / time.Duration(n),
		Transfer: c.Transfer / time.Duration(n),
	}
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
//   - serial: Elements, then one Fetch per entry on a client that keeps
//     the binding warm — every element pays its own sequential round
//     trip, the pre-v2 cost.
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
	serial, err := w.NewSecureClientOpts(netsim.Paris, core.Options{Now: clk.Now, CacheBindings: true})
	if err != nil {
		return nil, err
	}
	defer serial.Close()
	//lint:ignore ctxfirst the benchmark harness is the top of the call tree; there is no caller context to inherit
	ctx := context.Background()

	res := &MultiplexResult{Elements: muxElements, ElementBytes: muxElementBytes}

	// measure times cfg.Iterations cold samples of fetch and totals what
	// the network charged for them.
	measure := func(c *core.Client, fetch func(i int) error) (Phase, NetCharge, error) {
		var samples []time.Duration
		var charged netsim.Charge
		for i := 0; i < cfg.Iterations; i++ {
			c.Close()
			before := w.Net.Charged()
			start := now()
			if err := fetch(i); err != nil {
				return Phase{}, NetCharge{}, err
			}
			samples = append(samples, now().Sub(start))
			d := w.Net.Charged().Sub(before)
			charged.Bursts += d.Bursts
			charged.Latency += d.Latency
			charged.Transfer += d.Transfer
		}
		return toPhase(samples), perSample(charged, len(samples)), nil
	}

	// Single-element baseline: cold bindings, one element round trip.
	if res.SingleCold, res.SingleNet, err = measure(batched, func(int) error {
		if _, err := batched.Fetch(ctx, pub.OID, "el-00.bin"); err != nil {
			return fmt.Errorf("multiplex single fetch: %w", err)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// fetch, a whole-object download by c from cold bindings, measured;
	// the bytes of its last sample per element are kept for the ablation
	// compare.
	wholeCold := func(label string, c *core.Client, fetch func() ([]core.FetchResult, error)) (Phase, NetCharge, map[string][]byte, error) {
		content := make(map[string][]byte, muxElements)
		phase, charged, err := measure(c, func(i int) error {
			results, err := fetch()
			if err != nil {
				return fmt.Errorf("multiplex %s fetch: %w", label, err)
			}
			if len(results) != muxElements {
				return fmt.Errorf("multiplex %s fetch %d returned %d elements, want %d", label, i, len(results), muxElements)
			}
			for _, r := range results {
				content[r.Element.Name] = r.Element.Data
			}
			return nil
		})
		return phase, charged, content, err
	}
	// Batched: one obj.bind exchange carries the elements. Serial ablation:
	// a cold bind for the certificate, then one warm exchange per element.
	var content, serialContent map[string][]byte
	if res.BatchCold, res.BatchNet, content, err = wholeCold("batch", batched, func() ([]core.FetchResult, error) {
		return batched.FetchAll(ctx, pub.OID)
	}); err != nil {
		return nil, err
	}
	if res.SerialCold, res.SerialNet, serialContent, err = wholeCold("serial", serial, func() ([]core.FetchResult, error) {
		entries, err := serial.Elements(ctx, pub.OID)
		if err != nil {
			return nil, err
		}
		results := make([]core.FetchResult, 0, len(entries))
		for _, e := range entries {
			r, err := serial.Fetch(ctx, pub.OID, e.Name)
			if err != nil {
				return results, err
			}
			results = append(results, r)
		}
		return results, nil
	}); err != nil {
		return nil, err
	}

	if res.SingleCold.Mean > 0 {
		res.BatchRatio = float64(res.BatchCold.Mean) / float64(res.SingleCold.Mean)
		res.SerialRatio = float64(res.SerialCold.Mean) / float64(res.SingleCold.Mean)
	}
	// The transfer time the run actually slept is the charge at its scale.
	beyondTransfer := func(p Phase, n NetCharge) float64 {
		return float64(p.Mean) - float64(n.Transfer)*cfg.TimeScale
	}
	if single := beyondTransfer(res.SingleCold, res.SingleNet); single > 0 {
		res.LatencyRatio = beyondTransfer(res.BatchCold, res.BatchNet) / single
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
	fmt.Fprintf(&b, "\n  network per sample (bursts, latency, transfer; before time scale):\n")
	for _, p := range []struct {
		label string
		n     NetCharge
	}{{"single cold", r.SingleNet}, {"batch cold", r.BatchNet}, {"serial cold", r.SerialNet}} {
		fmt.Fprintf(&b, "    %-12s %5.1f  %9s  %9s\n", p.label, p.n.Bursts, p.n.Latency, p.n.Transfer)
	}
	fmt.Fprintf(&b, "\n  latency ratio (batch cold / single cold, each less its transfer time): %.2fx\n", r.LatencyRatio)
	fmt.Fprintf(&b, "  batch ratio (batch cold / single cold): %.2fx (serial ablation: %.2fx)\n",
		r.BatchRatio, r.SerialRatio)
	fmt.Fprintf(&b, "  counters: batch_fetches=%d batch_elements=%d streams_opened=%d negotiations{v2}=%d\n",
		r.BatchFetches, r.BatchElements, r.StreamsOpened, r.NegotiatedV2)
	fmt.Fprintf(&b, "  ablation (serial client fetches identical bytes): %v\n", r.AblationIdentical)
	return b.String()
}

// multiplexMaxLatencyRatio is the multiplex gate's bar on LatencyRatio.
const multiplexMaxLatencyRatio = 2.0

// gate: a cold wide-object fetch makes no more round trips than a cold
// single-element fetch and, apart from what its bytes take at the link's
// bandwidth, stays within the bar of one; the batch path really ran over
// negotiated v2, and the serial-RPC ablation fetched identical bytes.
func (m *MultiplexResult) gate() (string, error) {
	wantFetches := uint64(m.BatchCold.Ops)
	switch {
	case m.SingleCold.Ops == 0 || m.BatchCold.Ops == 0 || m.SerialCold.Ops == 0:
		return "", fmt.Errorf("missing phase samples: single=%d batch=%d serial=%d", m.SingleCold.Ops, m.BatchCold.Ops, m.SerialCold.Ops)
	case m.SingleNet.Bursts == 0:
		return "", errors.New("the single-element phase charged no network burst: the run measured no network")
	case m.BatchNet.Bursts > m.SingleNet.Bursts:
		return "", fmt.Errorf("cold %d-element fetch sends %.1f bursts per sample, a cold single-element fetch %.1f: want no more (the elements ride the same exchanges)",
			m.Elements, m.BatchNet.Bursts, m.SingleNet.Bursts)
	case m.LatencyRatio > multiplexMaxLatencyRatio:
		return "", fmt.Errorf("cold %d-element fetch is %.2fx a cold single-element fetch beyond transfer time, want <= %.1fx (single %s, batch %s; transfer %s, %s)",
			m.Elements, m.LatencyRatio, multiplexMaxLatencyRatio, m.SingleCold.Mean, m.BatchCold.Mean, m.SingleNet.Transfer, m.BatchNet.Transfer)
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
	return fmt.Sprintf("single %s, batch %s (%.2fx <= %.1fx beyond transfer, %.2fx with it), bursts %.0f / %.0f, serial %s (%.2fx, %.0f bursts), batch_fetches=%d batch_elements=%d",
		m.SingleCold.Mean, m.BatchCold.Mean, m.LatencyRatio, multiplexMaxLatencyRatio, m.BatchRatio,
		m.SingleNet.Bursts, m.BatchNet.Bursts, m.SerialCold.Mean, m.SerialRatio, m.SerialNet.Bursts,
		m.BatchFetches, m.BatchElements), nil
}
