package bench

import (
	"bytes"
	"context"
	"encoding/hex"
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
	"globedoc/internal/vcache"
	"globedoc/internal/workload"
)

// CacheResult is the -experiment cache output: cold/warm/revalidate
// fetch latency through the verified-content cache, the cache counters
// accumulated over the run, and the ablation check that a cache-disabled
// client fetches byte-identical content.
type CacheResult struct {
	// VCacheEnabled is false when the run was the -disable-vcache
	// ablation: every fetch pays the full pipeline and Warm/Revalidate
	// measure the uncached warm-binding path.
	VCacheEnabled bool `json:"vcache_enabled"`
	// ElementBytes is the size of the measured element.
	ElementBytes int `json:"element_bytes"`

	// Cold samples start from an empty cache (full pipeline + element
	// transfer); Warm samples are served from the cache against the
	// current certificate.
	Cold Phase `json:"cold"`
	Warm Phase `json:"warm"`
	// Revalidate is measured only when the cache is enabled: each sample
	// expires the certificate, reissues it, and fetches — paying for a
	// certificate but not for the element bytes.
	Revalidate *Phase `json:"revalidate,omitempty"`

	// WarmSpeedup is Cold.Mean / Warm.Mean.
	WarmSpeedup float64 `json:"warm_speedup"`

	// Cache counters accumulated across the whole run.
	Hits          uint64 `json:"vcache_hits"`
	Misses        uint64 `json:"vcache_misses"`
	Revalidations uint64 `json:"vcache_revalidations"`
	SigCacheHits  uint64 `json:"signature_cache_hits"`

	// ContentSHA is the hex digest of the element bytes every measured
	// fetch returned, for cross-run comparison of ablated runs.
	ContentSHA string `json:"content_sha"`
	// AblationIdentical reports the in-run check: a second client with
	// the cache disabled fetched bytes identical to the cached ones.
	AblationIdentical bool `json:"ablation_identical"`
}

// cacheTTL is the certificate validity used by the cache experiment;
// each revalidation sample advances the virtual clock past it.
const cacheTTL = time.Hour

// RunCache measures the verified-content cache (the -experiment cache
// entry point). It publishes one 64 KB element, then measures:
//
//   - cold: bindings flushed and the element evicted before every fetch,
//     so each sample pays the full secure pipeline plus the transfer;
//   - warm: back-to-back fetches against the warm cache — with the cache
//     enabled every sample is served from memory, no RPC at all;
//   - revalidate (enabled runs only): the certificate is expired and
//     reissued before every fetch, so each sample re-runs the binding
//     pipeline but reuses the cached bytes instead of transferring them.
//
// Every run finishes with the ablation check: a cache-disabled client
// fetches the same element and the bytes are compared. With
// cfg.DisableVCache the measured client itself runs without the cache.
func RunCache(cfg Config) (*CacheResult, error) {
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
	const elementBytes = 64 * workload.KB
	doc := workload.SingleElementDoc(elementBytes, WorkloadSeed)
	pub, err := w.Publish(doc, deploy.PublishOptions{
		Name:         "cache.bench",
		TTL:          cacheTTL,
		KeyAlgorithm: cfg.KeyAlgorithm,
		Clock:        clk.Now,
	})
	if err != nil {
		return nil, err
	}

	var vc *vcache.Cache
	if !cfg.DisableVCache {
		vc = vcache.New(vcache.Config{})
	}
	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{
		CacheBindings: true,
		VCache:        vc,
		Now:           clk.Now,
	})
	if err != nil {
		return nil, err
	}
	defer client.Close()
	//lint:ignore ctxfirst the benchmark harness is the top of the call tree; there is no caller context to inherit
	ctx := context.Background()

	res := &CacheResult{VCacheEnabled: !cfg.DisableVCache, ElementBytes: elementBytes}
	var content []byte

	// Cold: every sample starts from an empty binding cache and (when
	// enabled) no cached copy of the element.
	var cold []time.Duration
	for i := 0; i < cfg.Iterations; i++ {
		client.Close()
		if vc != nil {
			vc.InvalidateOID(pub.OID)
		}
		start := now()
		r, err := client.Fetch(ctx, pub.OID, "image.bin")
		if err != nil {
			return nil, fmt.Errorf("cache cold fetch: %w", err)
		}
		cold = append(cold, now().Sub(start))
		content = r.Element.Data
	}
	res.Cold = toPhase(cold)

	// Warm: the binding and (when enabled) the content cache stay hot.
	var warm []time.Duration
	for i := 0; i < cfg.Iterations; i++ {
		start := now()
		r, err := client.Fetch(ctx, pub.OID, "image.bin")
		if err != nil {
			return nil, fmt.Errorf("cache warm fetch: %w", err)
		}
		warm = append(warm, now().Sub(start))
		if vc != nil && !r.FromCache {
			return nil, fmt.Errorf("cache warm fetch %d not served from cache", i)
		}
		if !bytes.Equal(r.Element.Data, content) {
			return nil, fmt.Errorf("cache warm fetch %d returned different bytes", i)
		}
	}
	res.Warm = toPhase(warm)
	if res.Warm.Mean > 0 {
		res.WarmSpeedup = float64(res.Cold.Mean) / float64(res.Warm.Mean)
	}

	// Revalidate: expire and reissue the certificate before each sample,
	// so only a fresh certificate crosses the wire.
	if vc != nil {
		var reval []time.Duration
		for i := 0; i < cfg.Iterations; i++ {
			clk.Advance(cacheTTL + time.Second)
			if err := w.Reissue(pub, cacheTTL, clk.Now()); err != nil {
				return nil, fmt.Errorf("cache reissue: %w", err)
			}
			start := now()
			r, err := client.Fetch(ctx, pub.OID, "image.bin")
			if err != nil {
				return nil, fmt.Errorf("cache revalidate fetch: %w", err)
			}
			reval = append(reval, now().Sub(start))
			if !r.FromCache {
				return nil, fmt.Errorf("cache revalidate fetch %d re-transferred the element", i)
			}
			if !bytes.Equal(r.Element.Data, content) {
				return nil, fmt.Errorf("cache revalidate fetch %d returned different bytes", i)
			}
		}
		p := toPhase(reval)
		res.Revalidate = &p
	}

	// Ablation: a client with no verified-content cache must fetch
	// byte-identical content.
	plain, err := w.NewSecureClientOpts(netsim.Paris, core.Options{Now: clk.Now})
	if err != nil {
		return nil, err
	}
	defer plain.Close()
	pr, err := plain.Fetch(ctx, pub.OID, "image.bin")
	if err != nil {
		return nil, fmt.Errorf("cache ablation fetch: %w", err)
	}
	res.AblationIdentical = bytes.Equal(pr.Element.Data, content)

	digest := globeid.HashElement(content)
	res.ContentSHA = hex.EncodeToString(digest[:])
	res.Hits = tel.VCacheHits.Value()
	res.Misses = tel.VCacheMisses.Value()
	res.Revalidations = tel.VCacheRevalidations.Value()
	res.SigCacheHits = tel.SigCacheHits.Value()
	return res, nil
}

// Format renders the cache experiment as a human-readable table.
func (r *CacheResult) Format() string {
	var b strings.Builder
	state := "enabled"
	if !r.VCacheEnabled {
		state = "DISABLED (ablation)"
	}
	fmt.Fprintf(&b, "Verified-content cache (%s element, client at %s, cache %s)\n\n",
		fmtSize(r.ElementBytes), netsim.Paris, state)
	phaseHeader(&b, 12, "phase")
	r.Cold.row(&b, 12, "cold")
	r.Warm.row(&b, 12, "warm")
	if r.Revalidate != nil {
		r.Revalidate.row(&b, 12, "revalidate")
	}
	fmt.Fprintf(&b, "\n  warm speedup (cold mean / warm mean): %.1fx\n", r.WarmSpeedup)
	fmt.Fprintf(&b, "  counters: hits=%d misses=%d revalidations=%d signature_cache_hits=%d\n",
		r.Hits, r.Misses, r.Revalidations, r.SigCacheHits)
	fmt.Fprintf(&b, "  ablation (uncached client fetches identical bytes): %v\n", r.AblationIdentical)
	return b.String()
}

// cacheMinWarmSpeedup is the cache gate's bar on WarmSpeedup.
const cacheMinWarmSpeedup = 5.0

// gate: the warm path beats the cold one by the bar, the counters show
// every warm and revalidate sample served from the cache, and the
// cache-disabled client fetched identical bytes.
func (c *CacheResult) gate() (string, error) {
	switch {
	case !c.VCacheEnabled:
		return "", ErrNotApplicable
	case c.Cold.Ops == 0 || c.Warm.Ops == 0 || c.Revalidate == nil || c.Revalidate.Ops == 0:
		return "", fmt.Errorf("missing phase samples: cold=%d warm=%d revalidate=%v", c.Cold.Ops, c.Warm.Ops, c.Revalidate)
	case c.WarmSpeedup < cacheMinWarmSpeedup:
		return "", fmt.Errorf("warm fetch speedup %.2fx is below the required %.1fx (cold %s, warm %s)",
			c.WarmSpeedup, cacheMinWarmSpeedup, c.Cold.Mean, c.Warm.Mean)
	case c.Hits < uint64(c.Warm.Ops+c.Revalidate.Ops):
		return "", fmt.Errorf("vcache hits = %d, want >= %d (warm + revalidate samples)", c.Hits, c.Warm.Ops+c.Revalidate.Ops)
	case c.Revalidations != uint64(c.Revalidate.Ops):
		return "", fmt.Errorf("revalidations = %d, want %d", c.Revalidations, c.Revalidate.Ops)
	case !c.AblationIdentical:
		return "", errors.New("ablation check failed: cache-disabled client fetched different bytes")
	}
	return fmt.Sprintf("cold %s, warm %s (%.0fx >= %.1fx), revalidate %s, hits=%d reval=%d, ablation identical",
		c.Cold.Mean, c.Warm.Mean, c.WarmSpeedup, cacheMinWarmSpeedup, c.Revalidate.Mean, c.Hits, c.Revalidations), nil
}
