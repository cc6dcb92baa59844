package bench_test

import (
	"strings"
	"testing"

	"globedoc/internal/bench"
)

func TestRunMultiplexQuick(t *testing.T) {
	res, err := bench.RunMultiplex(quickCfg())
	if err != nil {
		t.Fatalf("RunMultiplex: %v", err)
	}
	if res.Elements != 16 {
		t.Errorf("Elements = %d, want 16", res.Elements)
	}
	if res.SingleCold.Ops != 2 || res.BatchCold.Ops != 2 || res.SerialCold.Ops != 2 {
		t.Errorf("phase ops: single=%d batch=%d serial=%d, want 2 each",
			res.SingleCold.Ops, res.BatchCold.Ops, res.SerialCold.Ops)
	}
	if res.SingleCold.Mean <= 0 || res.BatchCold.Mean <= 0 || res.SerialCold.Mean <= 0 {
		t.Errorf("means: single=%v batch=%v serial=%v",
			res.SingleCold.Mean, res.BatchCold.Mean, res.SerialCold.Mean)
	}
	// Each batch sample issues exactly one GetElements exchange carrying
	// all 16 elements; the single and serial phases issue none.
	if res.BatchFetches != 2 {
		t.Errorf("batch_fetch_total = %d, want 2", res.BatchFetches)
	}
	if res.BatchElements != 32 {
		t.Errorf("batch_fetch_elements_total = %d, want 32", res.BatchElements)
	}
	if res.StreamsOpened < 2 {
		t.Errorf("transport_streams_opened_total = %d, want >= 2 (a stream per batch sample)", res.StreamsOpened)
	}
	if !res.AblationIdentical {
		t.Error("serial-RPC client fetched different bytes")
	}
	if res.BatchRatio <= 0 || res.SerialRatio <= 0 || res.LatencyRatio <= 0 {
		t.Errorf("ratios: batch=%v serial=%v latency=%v", res.BatchRatio, res.SerialRatio, res.LatencyRatio)
	}
	// The network charges are counts, the same at any time scale: the
	// batch rides the single fetch's exchanges, the serial ablation pays
	// more of its own, and sixteen elements take longer to transfer.
	if res.SingleNet.Bursts == 0 || res.BatchNet.Bursts != res.SingleNet.Bursts || res.SerialNet.Bursts <= res.BatchNet.Bursts {
		t.Errorf("bursts per sample: single=%v batch=%v serial=%v, want single = batch < serial",
			res.SingleNet.Bursts, res.BatchNet.Bursts, res.SerialNet.Bursts)
	}
	if res.BatchNet.Transfer <= res.SingleNet.Transfer {
		t.Errorf("transfer per sample: single=%v batch=%v, want batch above single", res.SingleNet.Transfer, res.BatchNet.Transfer)
	}
	out := res.Format()
	for _, want := range []string{"single cold", "batch cold", "serial cold", "latency ratio", "batch ratio", "ablation"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
}
