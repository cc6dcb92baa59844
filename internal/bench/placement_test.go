package bench_test

import (
	"strings"
	"testing"

	"globedoc/internal/bench"
)

func TestRunPlacementQuick(t *testing.T) {
	res, err := bench.RunPlacement(quickCfg())
	if err != nil {
		t.Fatalf("RunPlacement: %v", err)
	}
	if res.Servers != 12 || res.Continents != 3 || res.ReplicationFactor != 3 {
		t.Errorf("fleet shape: servers=%d continents=%d factor=%d",
			res.Servers, res.Continents, res.ReplicationFactor)
	}
	if res.Objects != 16 || res.FarObjects != 4 {
		t.Errorf("workload: objects=%d far=%d, want 16/4", res.Objects, res.FarObjects)
	}
	if res.PublishAttempts < res.Objects {
		t.Errorf("publish attempts %d < accepted objects %d", res.PublishAttempts, res.Objects)
	}
	wantOps := 16 * 2
	for _, v := range []bench.PlacementVariant{res.HealthRanked, res.Ordered} {
		if v.Cold.Ops != wantOps || v.Warm.Ops != wantOps {
			t.Errorf("%s ops: cold=%d warm=%d, want %d each", v.Selector, v.Cold.Ops, v.Warm.Ops, wantOps)
		}
		if v.Cold.Mean <= 0 || v.Warm.Mean <= 0 {
			t.Errorf("%s means: cold=%v warm=%v", v.Selector, v.Cold.Mean, v.Warm.Mean)
		}
	}
	if res.HealthRanked.Selector != "health-ranked" || res.Ordered.Selector != "ordered" {
		t.Errorf("selector names: %q / %q", res.HealthRanked.Selector, res.Ordered.Selector)
	}
	// At TimeScale 0 the latency ratios are CPU noise, so only their
	// presence is asserted here; the placement gate (make
	// bench-placement) checks the real-latency run.
	if res.ColdP99Ratio <= 0 || res.WarmP99Ratio <= 0 {
		t.Errorf("ratios: cold=%v warm=%v", res.ColdP99Ratio, res.WarmP99Ratio)
	}
	if !res.AblationIdentical {
		t.Error("ordered client fetched different bytes")
	}
	out := res.Format()
	for _, want := range []string{"health-ranked cold", "ordered cold", "health-ranked warm", "p99 ratio", "ablation"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
}
