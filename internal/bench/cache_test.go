package bench_test

import (
	"strings"
	"testing"

	"globedoc/internal/bench"
)

func TestRunCacheQuick(t *testing.T) {
	res, err := bench.RunCache(quickCfg())
	if err != nil {
		t.Fatalf("RunCache: %v", err)
	}
	if !res.VCacheEnabled {
		t.Error("VCacheEnabled = false on an enabled run")
	}
	if res.Cold.Ops != 2 || res.Warm.Ops != 2 {
		t.Errorf("phase ops: cold=%d warm=%d, want 2 each", res.Cold.Ops, res.Warm.Ops)
	}
	if res.Revalidate == nil || res.Revalidate.Ops != 2 {
		t.Errorf("revalidate phase = %+v, want 2 ops", res.Revalidate)
	}
	if res.Cold.Mean <= 0 || res.Warm.Mean <= 0 {
		t.Errorf("means: cold=%v warm=%v", res.Cold.Mean, res.Warm.Mean)
	}
	// The warm phase (2 ops) and each revalidation (2 ops) hit the cache.
	if res.Hits < 4 {
		t.Errorf("vcache hits = %d, want >= 4", res.Hits)
	}
	if res.Revalidations != 2 {
		t.Errorf("revalidations = %d, want 2", res.Revalidations)
	}
	if !res.AblationIdentical {
		t.Error("uncached client fetched different bytes")
	}
	if res.ContentSHA == "" {
		t.Error("content digest not recorded")
	}
	out := res.Format()
	for _, want := range []string{"cold", "warm", "revalidate", "speedup", "ablation"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCacheAblation(t *testing.T) {
	cfg := quickCfg()
	cfg.DisableVCache = true
	res, err := bench.RunCache(cfg)
	if err != nil {
		t.Fatalf("RunCache(disable): %v", err)
	}
	if res.VCacheEnabled {
		t.Error("VCacheEnabled = true on an ablated run")
	}
	if res.Revalidate != nil {
		t.Error("ablated run measured a revalidate phase")
	}
	if res.Hits != 0 || res.Misses != 0 {
		t.Errorf("ablated run touched the cache: hits=%d misses=%d", res.Hits, res.Misses)
	}
	if !res.AblationIdentical {
		t.Error("ablated run bytes differ")
	}
}
