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
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/netsim"
	"globedoc/internal/object"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
	"globedoc/internal/workload"
)

// Placement-experiment workload shape. The interesting comparison lives
// in the objects WITHOUT a replica on the client's own continent: there
// the location service surfaces all replicas in one ring, sorted by
// (lexicographic) site name, so the ordered ablation routinely tries the
// alphabetically-first far continent while the health-ranked selector
// has RTT estimates telling it better.
const (
	// placementObjects is the total measured object count.
	placementObjects = 16
	// placementFarObjects of them are pinned to the far-mixed placement
	// class: no same-continent replica, but replicas on BOTH other
	// continents. Publishing draws fresh keys until the consistent-hash
	// placement yields this composition, so the workload shape (and the
	// meaning of p99) is stable run to run while every individual
	// placement stays organic.
	placementFarObjects = 4
	// placementElementBytes keeps transfers small so round trips — the
	// thing selection policy controls — dominate each fetch.
	placementElementBytes = 4 * workload.KB
	// placementMaxAttempts bounds the key-drawing loop.
	placementMaxAttempts = 400
)

// PlacementVariant is one selector's measured latency distributions.
type PlacementVariant struct {
	// Selector is the Selector.Name() of the ranking policy measured.
	Selector string `json:"selector"`
	// Cold fetches run the full secure pipeline from flushed bindings.
	Cold Phase `json:"cold"`
	// Warm fetches reuse the cached verified binding (one element round
	// trip to whichever replica the selector bound).
	Warm Phase `json:"warm"`
}

// PlacementResult is the -experiment placement output: cold and warm
// fetch latency over the sharded fleet for the default health-ranked
// selector against the location-order ablation, from one client vantage.
type PlacementResult struct {
	// Servers, Continents and ReplicationFactor describe the fleet.
	Servers           int `json:"servers"`
	Continents        int `json:"continents"`
	ReplicationFactor int `json:"replication_factor"`
	// Objects is the measured object count; FarObjects of them have no
	// replica on the client's continent (the placement class where
	// selection policy decides between the far continents).
	Objects    int `json:"objects"`
	FarObjects int `json:"far_objects"`
	// PublishAttempts is how many keys were drawn to reach the workload
	// composition (rejected draws publish nothing).
	PublishAttempts int `json:"publish_attempts"`
	// Client is the measuring vantage host.
	Client string `json:"client"`

	// HealthRanked is the default selector; Ordered is the ablation that
	// trusts location order blindly (pre-selector behaviour).
	HealthRanked PlacementVariant `json:"health_ranked"`
	Ordered      PlacementVariant `json:"ordered"`

	// ColdP99Ratio and WarmP99Ratio are HealthRanked p99 / Ordered p99 —
	// the acceptance metrics (must be well under 1).
	ColdP99Ratio float64 `json:"cold_p99_ratio"`
	WarmP99Ratio float64 `json:"warm_p99_ratio"`

	// AblationIdentical reports the in-run check: both selectors fetched
	// byte-identical content for every object.
	AblationIdentical bool `json:"ablation_identical"`
}

// placementObject is one published measured object.
type placementObject struct {
	oid     globeid.OID
	name    string
	element string
}

// RunPlacement measures replica selection over the sharded fleet (the
// -experiment placement entry point). It stands up the twelve-server,
// three-continent fleet world, publishes a fixed-composition workload
// through the consistent-hash placement (12 objects with a replica on
// the client's continent, 4 without), and measures cold and warm fetch
// latency from the Europe client twice: once with the default
// health-ranked selector (whose telemetry is first primed with one RTT
// probe per server, standing in for a long-running proxy's accumulated
// history), once with the ordered ablation that takes the location
// service's order as-is. The run finishes by checking both clients
// fetched byte-identical content.
func RunPlacement(cfg Config) (*PlacementResult, error) {
	cfg = cfg.withDefaults()
	clk := clock.NewFake(benchEpoch)
	w, err := deploy.NewFleetWorld(deploy.Options{TimeScale: cfg.TimeScale, Clock: clk.Now})
	if err != nil {
		return nil, err
	}
	defer w.Close()

	client := netsim.FleetClient(netsim.ContinentEurope)
	res := &PlacementResult{
		Servers:           len(netsim.FleetServers()),
		Continents:        len(netsim.FleetContinents),
		ReplicationFactor: deploy.FleetReplicationFactor,
		Objects:           placementObjects,
		FarObjects:        placementFarObjects,
		Client:            client,
	}

	objects, attempts, err := publishPlacementWorkload(w, client, cfg, clk)
	if err != nil {
		return nil, err
	}
	res.PublishAttempts = attempts

	//lint:ignore ctxfirst the benchmark harness is the top of the call tree; there is no caller context to inherit
	ctx := context.Background()

	telHR := telemetry.New(nil)
	primeHealth(ctx, w, client, telHR)
	hr, hrBytes, err := measurePlacementVariant(ctx, w, client, cfg, objects, core.Options{
		Now:           clk.Now,
		CacheBindings: true,
		Telemetry:     telHR,
	})
	if err != nil {
		return nil, fmt.Errorf("placement health-ranked variant: %w", err)
	}
	hr.Selector = core.HealthRankedSelector{Zone: netsim.ContinentEurope}.Name()
	res.HealthRanked = hr

	ord, ordBytes, err := measurePlacementVariant(ctx, w, client, cfg, objects, core.Options{
		Now:           clk.Now,
		CacheBindings: true,
		Telemetry:     telemetry.New(nil),
		Selector:      core.OrderedSelector{},
	})
	if err != nil {
		return nil, fmt.Errorf("placement ordered variant: %w", err)
	}
	ord.Selector = core.OrderedSelector{}.Name()
	res.Ordered = ord

	if res.Ordered.Cold.P99 > 0 {
		res.ColdP99Ratio = float64(res.HealthRanked.Cold.P99) / float64(res.Ordered.Cold.P99)
	}
	if res.Ordered.Warm.P99 > 0 {
		res.WarmP99Ratio = float64(res.HealthRanked.Warm.P99) / float64(res.Ordered.Warm.P99)
	}

	res.AblationIdentical = len(hrBytes) == len(objects) && len(ordBytes) == len(objects)
	for oid, data := range hrBytes {
		if !bytes.Equal(ordBytes[oid], data) {
			res.AblationIdentical = false
		}
	}
	return res, nil
}

// publishPlacementWorkload draws object keys until the consistent-hash
// placement yields the fixed workload composition, publishing only the
// accepted draws: nearWant objects with at least one replica on the
// client's continent and farWant objects whose replicas span both other
// continents but miss the client's. Degenerate draws (every replica on
// one far continent) are rejected — they measure placement luck, not
// selection policy.
func publishPlacementWorkload(w *deploy.FleetWorld, client string, cfg Config, clk *clock.Fake) ([]placementObject, int, error) {
	clientZone := netsim.FleetContinentOf(client)
	nearWant := placementObjects - placementFarObjects
	farWant := placementFarObjects
	var objects []placementObject
	attempts := 0
	for len(objects) < placementObjects {
		attempts++
		if attempts > placementMaxAttempts {
			return nil, attempts, fmt.Errorf("placement workload not reached after %d key draws (have %d/%d)",
				attempts, len(objects), placementObjects)
		}
		key, err := keys.Generate(cfg.KeyAlgorithm)
		if err != nil {
			return nil, attempts, err
		}
		oid := globeid.FromPublicKey(key.Public())
		continents := make(map[string]bool)
		for _, site := range w.Placement.ServersFor(oid) {
			continents[netsim.FleetContinentOf(site)] = true
		}
		accept := false
		switch {
		case continents[clientZone] && nearWant > 0:
			nearWant--
			accept = true
		case !continents[clientZone] && len(continents) > 1 && farWant > 0:
			farWant--
			accept = true
		}
		if !accept {
			continue
		}
		i := len(objects)
		name := fmt.Sprintf("placement-%02d.bench", i)
		doc := workload.WideDoc(1, placementElementBytes, WorkloadSeed+uint64(100+i))
		if _, err := w.PublishPlaced(doc, deploy.PublishOptions{
			Name:         name,
			TTL:          time.Hour,
			OwnerKey:     key,
			KeyAlgorithm: cfg.KeyAlgorithm,
			Clock:        clk.Now,
		}); err != nil {
			return nil, attempts, fmt.Errorf("publishing %s: %w", name, err)
		}
		objects = append(objects, placementObject{oid: oid, name: name, element: doc.Names()[0]})
	}
	return objects, attempts, nil
}

// primeHealth records a few RTT samples per fleet server into tel,
// standing in for the per-address history a long-running client proxy
// accumulates: the health-ranked selector ranks on measured RTT EWMAs,
// and a freshly started benchmark client has none.
func primeHealth(ctx context.Context, w *deploy.FleetWorld, client string, tel *telemetry.Telemetry) {
	for _, site := range netsim.FleetServers() {
		addr := w.Addrs[site]
		oc := object.NewClient(globeid.OID{}, addr, w.DialFrom(client)(addr))
		oc.Transport().Configure(transport.Config{Telemetry: tel})
		for i := 0; i < 2; i++ {
			if err := oc.Ping(ctx); err != nil {
				break // a dead server simply stays unmeasured
			}
		}
		oc.Close()
	}
}

// measurePlacementVariant measures one selector variant: cold fetches
// (bindings flushed before every sample) then warm fetches (cached
// bindings) across every object, returning the two distributions and the
// bytes fetched per object for the ablation check.
func measurePlacementVariant(ctx context.Context, w *deploy.FleetWorld, client string, cfg Config, objects []placementObject, opts core.Options) (PlacementVariant, map[globeid.OID][]byte, error) {
	var v PlacementVariant
	c, err := w.NewSecureClientOpts(client, opts)
	if err != nil {
		return v, nil, err
	}
	defer c.Close()

	fetched := make(map[globeid.OID][]byte, len(objects))
	var cold, warm []time.Duration
	for i := 0; i < cfg.Iterations; i++ {
		for _, obj := range objects {
			c.Close()
			start := now()
			r, err := c.Fetch(ctx, obj.oid, obj.element)
			if err != nil {
				return v, nil, fmt.Errorf("cold fetch %s: %w", obj.name, err)
			}
			cold = append(cold, now().Sub(start))
			fetched[obj.oid] = r.Element.Data
		}
	}
	for i := 0; i < cfg.Iterations; i++ {
		for _, obj := range objects {
			start := now()
			r, err := c.Fetch(ctx, obj.oid, obj.element)
			if err != nil {
				return v, nil, fmt.Errorf("warm fetch %s: %w", obj.name, err)
			}
			warm = append(warm, now().Sub(start))
			if !bytes.Equal(r.Element.Data, fetched[obj.oid]) {
				return v, nil, fmt.Errorf("warm fetch %s returned different bytes than cold", obj.name)
			}
		}
	}
	v.Cold = toPhase(cold)
	v.Warm = toPhase(warm)
	return v, fetched, nil
}

// Format renders the placement experiment as a human-readable table.
func (r *PlacementResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharded fleet replica selection (%d servers / %d continents, factor %d; %d objects, %d without a %s replica; client at %s)\n\n",
		r.Servers, r.Continents, r.ReplicationFactor, r.Objects, r.FarObjects,
		netsim.FleetContinentOf(r.Client), r.Client)
	phaseHeader(&b, 22, "selector / phase")
	r.HealthRanked.Cold.row(&b, 22, r.HealthRanked.Selector+" cold")
	r.Ordered.Cold.row(&b, 22, r.Ordered.Selector+" cold")
	r.HealthRanked.Warm.row(&b, 22, r.HealthRanked.Selector+" warm")
	r.Ordered.Warm.row(&b, 22, r.Ordered.Selector+" warm")
	fmt.Fprintf(&b, "\n  p99 ratio (health-ranked / ordered): cold %.2fx, warm %.2fx\n", r.ColdP99Ratio, r.WarmP99Ratio)
	fmt.Fprintf(&b, "  workload: %d key draws for %d accepted placements\n", r.PublishAttempts, r.Objects)
	fmt.Fprintf(&b, "  ablation (ordered client fetches identical bytes): %v\n", r.AblationIdentical)
	return b.String()
}

// placementMaxP99Ratio is the placement gate's bar on both P99 ratios.
const placementMaxP99Ratio = 0.7

// gate: health-ranked cold AND warm fetch p99 are within the bar of the
// location-order ablation's, over a workload that differentiates the
// two, and the ordered client fetched identical bytes.
func (p *PlacementResult) gate() (string, error) {
	for _, v := range []PlacementVariant{p.HealthRanked, p.Ordered} {
		if v.Cold.Ops == 0 || v.Warm.Ops == 0 {
			return "", fmt.Errorf("missing %s phase samples: cold=%d warm=%d", v.Selector, v.Cold.Ops, v.Warm.Ops)
		}
	}
	switch {
	case p.FarObjects == 0:
		return "", errors.New("workload has no far-placed objects; the selectors were never differentiated")
	case p.ColdP99Ratio <= 0 || p.ColdP99Ratio > placementMaxP99Ratio:
		return "", fmt.Errorf("cold p99 ratio %.2fx exceeds the required <= %.2fx (health-ranked %s, ordered %s)",
			p.ColdP99Ratio, placementMaxP99Ratio, p.HealthRanked.Cold.P99, p.Ordered.Cold.P99)
	case p.WarmP99Ratio <= 0 || p.WarmP99Ratio > placementMaxP99Ratio:
		return "", fmt.Errorf("warm p99 ratio %.2fx exceeds the required <= %.2fx (health-ranked %s, ordered %s)",
			p.WarmP99Ratio, placementMaxP99Ratio, p.HealthRanked.Warm.P99, p.Ordered.Warm.P99)
	case !p.AblationIdentical:
		return "", errors.New("ablation check failed: ordered client fetched different bytes")
	}
	return fmt.Sprintf("cold p99 %s vs %s (%.2fx <= %.2fx), warm p99 %s vs %s (%.2fx), %d objects (%d far), ablation identical",
		p.HealthRanked.Cold.P99, p.Ordered.Cold.P99, p.ColdP99Ratio, placementMaxP99Ratio,
		p.HealthRanked.Warm.P99, p.Ordered.Warm.P99, p.WarmP99Ratio, p.Objects, p.FarObjects), nil
}
