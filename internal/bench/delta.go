package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/netsim"
	"globedoc/internal/server"
	"globedoc/internal/workload"
)

// DeltaResult is the -experiment delta output: bytes moved and pull
// latency for keeping a secondary replica of a wide document in sync
// when one element changes per version, via the Merkle-delta path vs.
// the full-bundle ablation.
type DeltaResult struct {
	// Elements is the document width, ElementBytes each element's size,
	// ChangedPerUpdate how many elements each new version rewrites.
	Elements         int `json:"elements"`
	ElementBytes     int `json:"element_bytes"`
	ChangedPerUpdate int `json:"changed_per_update"`

	// DeltaPull times Puller.CheckOnce over obj.getdelta; FullPull is
	// the ablation with the delta path disabled, replaying the identical
	// signed bundles.
	DeltaPull Phase `json:"delta_pull"`
	FullPull  Phase `json:"full_pull"`

	// BytesDeltaPerPull / BytesFullPerPull are wire bytes per pull
	// (request + reply), averaged over the run.
	BytesDeltaPerPull uint64 `json:"bytes_delta_per_pull"`
	BytesFullPerPull  uint64 `json:"bytes_full_per_pull"`
	// ByteRatio is BytesFullPerPull / BytesDeltaPerPull — the acceptance
	// metric (a one-element change must move at least 4x fewer bytes
	// than a full transfer).
	ByteRatio float64 `json:"byte_ratio"`

	// Puller counters from the delta run: every pull must have taken the
	// delta path, with no declines or fallbacks.
	DeltaPulls     uint64 `json:"delta_pulls"`
	DeltaDeclines  uint64 `json:"delta_declines"`
	DeltaFallbacks uint64 `json:"delta_fallbacks"`

	// AblationIdentical reports that the delta-synced secondary and the
	// full-pull secondary ended byte-identical: same marshalled bundle
	// from the same replayed updates.
	AblationIdentical bool `json:"ablation_identical"`
}

const (
	// deltaElements x deltaElementBytes is the replicated document:
	// wide enough that a one-element change makes the full-bundle
	// transfer grossly disproportionate.
	deltaElements     = 64
	deltaElementBytes = 4 * workload.KB
	deltaOwner        = "owner:delta.bench"
)

// deltaBundles precomputes the whole update sequence once: an initial
// 64-element document plus one signed bundle per iteration with a single
// element rewritten. Both measurement runs replay these exact bundles —
// signatures are randomized (RSA-PSS), so re-signing per run would break
// the byte-identical ablation check.
func deltaBundles(cfg Config, iterations int) (globeid.OID, []*server.Bundle, error) {
	owner, err := keys.Generate(cfg.KeyAlgorithm)
	if err != nil {
		return globeid.OID{}, nil, err
	}
	oid := globeid.FromPublicKey(owner.Public())
	doc := workload.WideDoc(deltaElements, deltaElementBytes, WorkloadSeed)
	r := workload.NewRand(WorkloadSeed + 1)

	bundles := make([]*server.Bundle, 0, iterations+1)
	issue := func(version uint64) error {
		elems, _ := doc.Snapshot()
		doc.Replace(elems, version)
		icert, err := document.IssueCertificate(doc, oid, owner,
			benchEpoch.Add(time.Duration(version)*time.Second), document.UniformTTL(24*time.Hour))
		if err != nil {
			return err
		}
		bundles = append(bundles, server.BundleFromDocument(oid, owner.Public(), doc, icert, nil))
		return nil
	}
	if err := issue(1); err != nil {
		return globeid.OID{}, nil, err
	}
	for i := 1; i <= iterations; i++ {
		// One element changes per version; everything else is untouched.
		name := fmt.Sprintf("el-%02d.bin", i%deltaElements)
		if err := doc.Put(document.Element{
			Name:        name,
			ContentType: "application/octet-stream",
			Data:        r.Bytes(deltaElementBytes),
		}); err != nil {
			return globeid.OID{}, nil, err
		}
		if err := issue(uint64(i + 1)); err != nil {
			return globeid.OID{}, nil, err
		}
	}
	return oid, bundles, nil
}

// runDeltaOnce replays the precomputed bundle sequence into a fresh
// primary/secondary world and times every CheckOnce on the secondary's
// puller, with the delta path on or off.
func runDeltaOnce(cfg Config, oid globeid.OID, bundles []*server.Bundle, disableDelta bool) (phase Phase, bytesPerPull uint64, p *server.Puller, final []byte, err error) {
	w, err := deploy.NewWorld(deploy.Options{TimeScale: cfg.TimeScale})
	if err != nil {
		return Phase{}, 0, nil, nil, err
	}
	defer w.Close()
	primary, err := w.StartServer(netsim.AmsterdamPrimary, "srv-ams", nil, nil, server.Limits{})
	if err != nil {
		return Phase{}, 0, nil, nil, err
	}
	secondary, err := w.StartServer(netsim.Paris, "srv-paris", nil, nil, server.Limits{})
	if err != nil {
		return Phase{}, 0, nil, nil, err
	}
	if err := primary.Install(bundles[0], deltaOwner); err != nil {
		return Phase{}, 0, nil, nil, err
	}
	if err := secondary.Install(bundles[0], deltaOwner); err != nil {
		return Phase{}, 0, nil, nil, err
	}
	puller := server.NewPuller(secondary, oid, deltaOwner,
		w.Addrs[netsim.AmsterdamPrimary], w.DialFrom(netsim.Paris), time.Hour)
	defer puller.Stop()
	puller.DisableDelta = disableDelta

	//lint:ignore ctxfirst the benchmark harness is the top of the call tree; there is no caller context to inherit
	ctx := context.Background()
	var samples []time.Duration
	for _, b := range bundles[1:] {
		if err := primary.Update(b, deltaOwner); err != nil {
			return Phase{}, 0, nil, nil, err
		}
		start := now()
		pulled, err := puller.CheckOnce(ctx)
		if err != nil {
			return Phase{}, 0, nil, nil, fmt.Errorf("delta bench pull: %w", err)
		}
		samples = append(samples, now().Sub(start))
		if !pulled {
			return Phase{}, 0, nil, nil, fmt.Errorf("delta bench: secondary did not pull update %d", b.Version)
		}
	}
	pulls := uint64(len(samples))
	totalBytes := puller.BytesDelta()
	if disableDelta {
		totalBytes = puller.BytesFull()
	}
	fb, err := secondary.ExportBundle(oid)
	if err != nil {
		return Phase{}, 0, nil, nil, err
	}
	return toPhase(samples), totalBytes / pulls, puller, fb.Marshal(), nil
}

// RunDelta measures Merkle-delta replication (the -experiment delta
// entry point). A 64 x 4 KB document is updated once per iteration with
// a single changed element; a secondary replica pulls each update twice,
// from identical signed bundles: once as a delta (key/cert tables plus
// the one changed element) and once as the full state (the DisableDelta
// ablation, every check asking from version 0). Reported: wire bytes per pull for each path, the byte ratio
// (acceptance gate: >= 4x), pull latency distributions, and the
// byte-identical ablation check on the resulting replica state.
func RunDelta(cfg Config) (*DeltaResult, error) {
	cfg = cfg.withDefaults()
	oid, bundles, err := deltaBundles(cfg, cfg.Iterations)
	if err != nil {
		return nil, err
	}

	res := &DeltaResult{
		Elements:         deltaElements,
		ElementBytes:     deltaElementBytes,
		ChangedPerUpdate: 1,
	}
	var deltaFinal, fullFinal []byte
	var deltaPuller *server.Puller
	res.DeltaPull, res.BytesDeltaPerPull, deltaPuller, deltaFinal, err = runDeltaOnce(cfg, oid, bundles, false)
	if err != nil {
		return nil, err
	}
	res.DeltaPulls = deltaPuller.DeltaPulls()
	res.DeltaDeclines = deltaPuller.DeltaDeclines()
	res.DeltaFallbacks = deltaPuller.DeltaFallbacks()
	res.FullPull, res.BytesFullPerPull, _, fullFinal, err = runDeltaOnce(cfg, oid, bundles, true)
	if err != nil {
		return nil, err
	}
	if res.BytesDeltaPerPull > 0 {
		res.ByteRatio = float64(res.BytesFullPerPull) / float64(res.BytesDeltaPerPull)
	}
	res.AblationIdentical = len(deltaFinal) > 0 && bytes.Equal(deltaFinal, fullFinal)
	return res, nil
}

// Format renders the delta experiment as a human-readable table.
func (r *DeltaResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Merkle-delta replication (%d x %s elements, %d changed per update, secondary at %s)\n\n",
		r.Elements, fmtSize(r.ElementBytes), r.ChangedPerUpdate, netsim.Paris)
	fmt.Fprintf(&b, "  %-12s %6s %12s %12s %12s %14s\n", "path", "pulls", "mean", "p50", "p99", "bytes/pull")
	row := func(name string, p Phase, bytesPer uint64) {
		fmt.Fprintf(&b, "  %-12s %6d %12s %12s %12s %14d\n", name, p.Ops,
			p.Mean.Round(time.Microsecond), p.P50.Round(time.Microsecond),
			p.P99.Round(time.Microsecond), bytesPer)
	}
	row("delta", r.DeltaPull, r.BytesDeltaPerPull)
	row("full", r.FullPull, r.BytesFullPerPull)
	fmt.Fprintf(&b, "\n  byte ratio (full / delta): %.2fx\n", r.ByteRatio)
	fmt.Fprintf(&b, "  counters: delta_pulls=%d declines=%d fallbacks=%d\n",
		r.DeltaPulls, r.DeltaDeclines, r.DeltaFallbacks)
	fmt.Fprintf(&b, "  ablation (full-pull replica byte-identical): %v\n", r.AblationIdentical)
	return b.String()
}

// deltaMinByteRatio is the delta gate's bar on ByteRatio.
const deltaMinByteRatio = 4.0

// gate: a one-element update moves the bar's multiple fewer bytes than a
// full transfer, every pull took the delta path (a decline or fallback
// would hide full-bundle bytes in the delta column), and the full-pull
// ablation replica ended byte-identical.
func (d *DeltaResult) gate() (string, error) {
	switch {
	case d.DeltaPull.Ops == 0 || d.FullPull.Ops == 0:
		return "", fmt.Errorf("missing phase samples: delta=%d full=%d", d.DeltaPull.Ops, d.FullPull.Ops)
	case d.BytesDeltaPerPull == 0 || d.BytesFullPerPull == 0:
		return "", fmt.Errorf("missing byte counters: delta=%d full=%d", d.BytesDeltaPerPull, d.BytesFullPerPull)
	case d.ByteRatio < deltaMinByteRatio:
		return "", fmt.Errorf("delta pull moved %d bytes vs %d full (%.2fx), want >= %.1fx reduction",
			d.BytesDeltaPerPull, d.BytesFullPerPull, d.ByteRatio, deltaMinByteRatio)
	case d.DeltaPulls != uint64(d.DeltaPull.Ops):
		return "", fmt.Errorf("delta_pulls = %d, want %d (one per sample)", d.DeltaPulls, d.DeltaPull.Ops)
	case d.DeltaDeclines != 0 || d.DeltaFallbacks != 0:
		return "", fmt.Errorf("delta run was not pure: declines=%d fallbacks=%d", d.DeltaDeclines, d.DeltaFallbacks)
	case !d.AblationIdentical:
		return "", errors.New("ablation check failed: full-pull replica ended with different bytes")
	}
	return fmt.Sprintf("%d bytes/pull vs %d full (%.2fx >= %.1fx), p50 %s vs %s, pulls=%d declines=%d fallbacks=%d",
		d.BytesDeltaPerPull, d.BytesFullPerPull, d.ByteRatio, deltaMinByteRatio,
		d.DeltaPull.P50, d.FullPull.P50, d.DeltaPulls, d.DeltaDeclines, d.DeltaFallbacks), nil
}
