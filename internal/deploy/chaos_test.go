package deploy_test

// Chaos integration suite: the full publish → replicate → fetch → verify
// pipeline under seeded, deterministic fault injection. The paper's
// security argument (DESIGN.md §5) must survive an unreliable network,
// not just a hostile one:
//
//   - with at least one honest reachable replica, every fetch completes
//     within a bounded time and all four security properties hold;
//   - with zero reachable replicas, fetches fail cleanly and promptly —
//     degraded infrastructure is at worst denial of service.
//
// Faults are driven by a seed, settable with
//
//	go test ./internal/deploy/ -run Chaos -seed 12345
//
// so any chaos failure reproduces exactly. -short runs fewer iterations.

import (
	"context"
	"flag"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"globedoc/internal/core"
	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/netsim"
	"globedoc/internal/server"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

var chaosSeed = flag.Int64("seed", 20050404, "fault-injection seed for the chaos suite")

// chaosConfig is the hardened client configuration the suite runs with:
// tight per-attempt deadlines and a fast retry policy, so injected drops
// cost milliseconds, not hangs.
func chaosConfig() transport.Config {
	return transport.Config{
		DialTimeout: 300 * time.Millisecond,
		CallTimeout: 300 * time.Millisecond,
		Retry: &transport.RetryPolicy{
			MaxAttempts: 4,
			BaseDelay:   time.Millisecond,
			MaxDelay:    20 * time.Millisecond,
			Multiplier:  2,
			Jitter:      0.5,
		},
	}
}

// chaosWorld publishes one document with replicas at amsterdam-primary
// (home), paris and ithaca, and seeds the network's fault layer. The
// returned Telemetry observes the whole world — every service and every
// client it creates — so tests can assert on the failure counters the
// chaos actually drove.
func chaosWorld(t *testing.T, seed int64) (*deploy.World, *deploy.Publication, *telemetry.Telemetry) {
	return chaosWorldCfg(t, seed, chaosConfig())
}

// chaosWorldCfg is chaosWorld with an explicit client transport config,
// for tests that need to pin the wire-protocol version.
func chaosWorldCfg(t *testing.T, seed int64, cfg transport.Config) (*deploy.World, *deploy.Publication, *telemetry.Telemetry) {
	t.Helper()
	tel := telemetry.New(nil)
	w, err := deploy.NewWorld(deploy.Options{
		TimeScale:         0,
		Client:            cfg,
		ServerIdleTimeout: 2 * time.Second,
		Telemetry:         tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	for _, site := range []string{netsim.AmsterdamPrimary, netsim.Paris, netsim.Ithaca} {
		if _, err := w.StartServer(site, "srv-"+site, nil, nil, server.Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	doc := document.New()
	doc.Put(document.Element{Name: "index.html", ContentType: "text/html",
		Data: []byte("<html>chaos-resistant home page</html>")})
	doc.Put(document.Element{Name: "data.bin", Data: []byte("0123456789abcdef0123456789abcdef")})
	pub, err := w.Publish(doc, deploy.PublishOptions{
		Name:     "chaos.vu.nl",
		Subject:  "Vrije Universiteit Amsterdam",
		OwnerKey: keytest.RSA(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range []string{netsim.Paris, netsim.Ithaca} {
		if err := w.ReplicateTo(pub, site); err != nil {
			t.Fatal(err)
		}
	}
	w.Net.SetFaultSeed(seed)
	return w, pub, tel
}

// verifyProperties asserts DESIGN.md §5's four security properties on a
// completed fetch. The pipeline enforced them before returning; the
// assertions here pin the observable consequences.
func verifyProperties(t *testing.T, w *deploy.World, pub *deploy.Publication, element string, data []byte, certifiedAs string) {
	t.Helper()
	// Authenticity: the delivered bytes are exactly what the owner
	// published and signed — no replica or link corruption got through.
	want, err := pub.Doc.Get(element)
	if err != nil {
		t.Fatalf("published document lost element %q: %v", element, err)
	}
	if string(data) != string(want.Data) {
		t.Fatalf("element %q: got %q, want published %q", element, data, want.Data)
	}
	// Freshness: the served element's validity interval covers now.
	entry, err := pub.Cert.Lookup(element)
	if err != nil {
		t.Fatalf("certificate entry for %q: %v", element, err)
	}
	if now := time.Now(); now.After(entry.Expires) {
		t.Fatalf("element %q served stale: expired %v", element, entry.Expires)
	}
	// Consistency: the element delivered is the one requested, under the
	// certificate of this object — not substituted from elsewhere.
	if entry.Name != element {
		t.Fatalf("certificate names %q, requested %q", entry.Name, element)
	}
	// Self-certification: the owner key the pipeline verified hashes to
	// the OID the client asked for.
	if oid := globeid.FromPublicKey(pub.OwnerKey.Public()); oid != pub.OID {
		t.Fatalf("owner key hashes to %s, OID is %s", oid.Short(), pub.OID.Short())
	}
	if certifiedAs != "Vrije Universiteit Amsterdam" {
		t.Errorf("CertifiedAs = %q; identity check lost under faults", certifiedAs)
	}
}

func chaosIterations(t *testing.T) int {
	if testing.Short() {
		return 5
	}
	return 25
}

func TestChaosFetchHoldsWithHonestReplica(t *testing.T) {
	// The client sits in paris; its local replica and the ithaca replica
	// sit behind lossy, corrupting, stalling links. The amsterdam-primary
	// replica (and the naming/location services there) stay clean — the
	// "at least one honest reachable replica" regime. Every fetch must
	// complete within a deadline with all four properties intact.
	w, pub, tel := chaosWorld(t, *chaosSeed)
	faults := w.Net.TraceFaults()
	lossy := netsim.FaultPlan{
		DropProb:    0.25,
		CorruptProb: 0.15,
		StallProb:   0.10,
		Stall:       5 * time.Millisecond,
	}
	w.Net.SetFaults(netsim.Paris, netsim.Paris, lossy)
	w.Net.SetFaults(netsim.Paris, netsim.Ithaca, lossy)

	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{CacheBindings: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	elements := []string{"index.html", "data.bin"}
	for i := 0; i < chaosIterations(t); i++ {
		element := elements[i%len(elements)]
		start := time.Now()
		res, err := client.FetchNamed(context.Background(), "chaos.vu.nl", element)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("fetch %d (%s) failed under chaos (seed %d): %v", i, element, *chaosSeed, err)
		}
		if elapsed > 10*time.Second {
			t.Fatalf("fetch %d took %v; latency must stay bounded with an honest replica", i, elapsed)
		}
		verifyProperties(t, w, pub, element, res.Element.Data, res.CertifiedAs)
	}
	// The lossy links cost retries, never verification failures that stick:
	// a transport-level drop or corruption can delay a fetch but must not be
	// reported as a replica serving bad signed state. (Failed checks that
	// the pipeline recovers from by failover are permitted.) A dropped
	// request can only be recovered by its deadline and a retry; a seed
	// whose faults spared every request — or only corrupted one, which the
	// replica refuses and the client fails over from — forces none.
	dropped := faults.Count(netsim.Paris, netsim.Paris, "client", netsim.FaultDrop) +
		faults.Count(netsim.Paris, netsim.Ithaca, "client", netsim.FaultDrop)
	if dropped > 0 && tel.RPCRetries.Value() == 0 {
		t.Errorf("rpc_retries_total = 0 after %d dropped requests; each should have forced a retry", dropped)
	}
	if hits := tel.BindingCacheHits.Value(); hits == 0 {
		t.Error("binding_cache_hits_total = 0 with CacheBindings enabled across repeated fetches")
	}
}

func TestChaosFetchHoldsWithFlappingLink(t *testing.T) {
	// A scripted schedule flaps the client's local-replica link while
	// fetches run. Fetches that land in a down window must fail over or
	// retry — never return wrong data, never exceed the latency bound.
	w, pub, tel := chaosWorld(t, *chaosSeed)
	stop := w.Net.RunScript(netsim.FlapLink(netsim.Paris, netsim.Paris, 30*time.Millisecond, 50))
	defer stop()

	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{CacheBindings: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	for i := 0; i < chaosIterations(t); i++ {
		start := time.Now()
		res, err := client.FetchNamed(context.Background(), "chaos.vu.nl", "index.html")
		if err != nil {
			t.Fatalf("fetch %d failed during link flaps: %v", i, err)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("fetch %d took %v under flapping link", i, elapsed)
		}
		verifyProperties(t, w, pub, "index.html", res.Element.Data, res.CertifiedAs)
	}
	// A flapping link is an availability fault, not an attack: every
	// replica served exactly what the owner signed, so no security check
	// may have failed — down windows surface as transport errors, failover
	// and retry, never as verification failures.
	if n := tel.SecurityCheckFailures.Total(); n != 0 {
		t.Errorf("security_check_failures_total = %d on an honest (flapping) run, want 0: %v",
			n, tel.SecurityCheckFailures.Values())
	}
}

func TestChaosFailoverIsCountedWhenReplicaFlaps(t *testing.T) {
	// Deterministic flap: bind to the local replica, sever its link, and
	// fetch again. The pipeline must fail over to a remote replica — and
	// failovers_total must record that it did, while the honest outage
	// registers zero security failures.
	w, pub, tel := chaosWorld(t, *chaosSeed)
	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{CacheBindings: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	res, err := client.FetchNamed(context.Background(), "chaos.vu.nl", "index.html")
	if err != nil {
		t.Fatalf("fetch before flap: %v", err)
	}
	verifyProperties(t, w, pub, "index.html", res.Element.Data, res.CertifiedAs)
	bound := res.ReplicaAddr

	// Crash the replica the cached binding points at, killing its pooled
	// connection, so the next fetch must abandon it mid-flight. (Severing
	// the link would not do: same-host dials ignore link state, and fault
	// plans only apply to connections dialled after they are set.)
	w.Servers[strings.SplitN(bound, ":", 2)[0]].Close()
	res, err = client.FetchNamed(context.Background(), "chaos.vu.nl", "index.html")
	if err != nil {
		t.Fatalf("fetch after flap did not fail over: %v", err)
	}
	verifyProperties(t, w, pub, "index.html", res.Element.Data, res.CertifiedAs)
	if res.ReplicaAddr == bound {
		t.Errorf("second fetch still served by %s over a severed link", bound)
	}
	if n := tel.Failovers.Value(); n == 0 {
		t.Error("failovers_total = 0 after a forced replica failover")
	}
	if n := tel.SecurityCheckFailures.Total(); n != 0 {
		t.Errorf("security_check_failures_total = %d after an honest outage, want 0: %v",
			n, tel.SecurityCheckFailures.Values())
	}
}

func TestChaosHealthTrackerObservesFaultedReplica(t *testing.T) {
	// Per-address replica health must attribute faults to the address
	// that caused them: crash the bound replica, fetch through the
	// failover, and the crashed address's error EWMA and consecutive
	// failures rise while the replica that actually served stays clean.
	w, pub, tel := chaosWorld(t, *chaosSeed)
	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{CacheBindings: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	res, err := client.FetchNamed(context.Background(), "chaos.vu.nl", "index.html")
	if err != nil {
		t.Fatalf("fetch before crash: %v", err)
	}
	faulted := res.ReplicaAddr
	w.Servers[strings.SplitN(faulted, ":", 2)[0]].Close()
	res, err = client.FetchNamed(context.Background(), "chaos.vu.nl", "index.html")
	if err != nil {
		t.Fatalf("fetch after crash did not fail over: %v", err)
	}
	verifyProperties(t, w, pub, "index.html", res.Element.Data, res.CertifiedAs)
	healthy := res.ReplicaAddr

	bad, ok := tel.Health.Lookup(faulted)
	if !ok {
		t.Fatalf("no health state for crashed replica %s", faulted)
	}
	if bad.ErrorRate == 0 || bad.ConsecutiveFailures == 0 {
		t.Errorf("crashed replica %s: error EWMA %v, consecutive failures %d; both must rise",
			faulted, bad.ErrorRate, bad.ConsecutiveFailures)
	}
	good, ok := tel.Health.Lookup(healthy)
	if !ok {
		t.Fatalf("no health state for serving replica %s", healthy)
	}
	if good.ErrorRate != 0 || good.ConsecutiveFailures != 0 {
		t.Errorf("healthy replica %s: error EWMA %v, consecutive failures %d; both must stay zero",
			healthy, good.ErrorRate, good.ConsecutiveFailures)
	}
	if good.Samples == 0 || good.RTTMillis <= 0 {
		t.Errorf("healthy replica %s: samples %d, RTT EWMA %vms; successes must feed the tracker",
			healthy, good.Samples, good.RTTMillis)
	}

	// The demoted address also sorts behind the healthy ones, so the next
	// cold binding skips the known-bad replica without a failover.
	if tel.Health.Penalty(faulted) <= tel.Health.Penalty(healthy) {
		t.Errorf("Penalty(%s) = %v not above Penalty(%s) = %v",
			faulted, tel.Health.Penalty(faulted), healthy, tel.Health.Penalty(healthy))
	}
	if snap := tel.Health.Snapshot(); snap.Schema != telemetry.HealthSchema {
		t.Errorf("health snapshot schema = %q, want %q", snap.Schema, telemetry.HealthSchema)
	}
}

func TestChaosZeroHonestReplicasFailsCleanly(t *testing.T) {
	// Every path to every replica drops all frames; only the naming and
	// location services stay reachable. The fetch must return an error —
	// promptly — rather than hang or fabricate data.
	w, _, _ := chaosWorld(t, *chaosSeed)
	blackhole := netsim.FaultPlan{DropProb: 1}
	w.Net.SetFaults(netsim.Paris, netsim.Paris, blackhole)
	w.Net.SetFaults(netsim.Paris, netsim.Ithaca, blackhole)
	// amsterdam-primary hosts naming/location too, so black-hole only the
	// object server by taking its replica out of the location tree.
	client := w.NewSecureClient(netsim.Paris)
	t.Cleanup(client.Close)
	oidAddrs, err := w.LocationTree.Lookup(context.Background(), netsim.Paris, mustOID(t, w))
	if err != nil || len(oidAddrs.Addresses) == 0 {
		t.Fatalf("lookup before unpublish: %v", err)
	}
	for _, a := range oidAddrs.Addresses {
		if a.Address == netsim.AmsterdamPrimary+":"+deploy.ObjectService {
			if err := w.LocationTree.Delete(netsim.AmsterdamPrimary, mustOID(t, w), a); err != nil {
				t.Fatal(err)
			}
		}
	}

	start := time.Now()
	_, err = client.FetchNamed(context.Background(), "chaos.vu.nl", "index.html")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("fetch succeeded with zero reachable replicas")
	}
	if elapsed > 30*time.Second {
		t.Fatalf("zero-replica failure took %v; must be bounded", elapsed)
	}
}

func TestChaosStalledStreamNoHeadOfLineBlocking(t *testing.T) {
	// The multiplexed-transport chaos scenario: a replica handler that
	// stalls indefinitely on one request while sibling requests keep
	// arriving on the SAME connection (MaxConns=1 forces total sharing).
	// Under v1 one-call-per-conn semantics the siblings would queue
	// behind the stalled call until its slot freed; under v2 they must
	// complete promptly on interleaved streams across the simulated
	// transatlantic link, and the stalled stream must still complete
	// once the replica recovers. Runs under -race via make test.
	n := netsim.PaperTestbed(0)
	t.Cleanup(n.Close)
	l, err := n.Listen(netsim.Paris, "obj")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	arrived := make(chan struct{}, 1)
	srv := transport.NewServer()
	srv.Handle("stall", func(b []byte) ([]byte, error) {
		arrived <- struct{}{}
		<-release // the chaos: a replica wedged mid-request
		return []byte("eventually"), nil
	})
	srv.Handle("fetch", func(b []byte) ([]byte, error) { return b, nil })
	srv.Start(l)
	t.Cleanup(srv.Close)

	var dials int32
	c := transport.NewClient(func() (net.Conn, error) {
		atomic.AddInt32(&dials, 1)
		return n.Dialer(netsim.Ithaca, "paris:obj")()
	})
	c.Pool = transport.PoolConfig{MaxConns: 1}
	defer c.Close()

	stalled := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), "stall", nil)
		stalled <- err
	}()
	<-arrived // the stalled stream is wedged server-side

	// Siblings must complete while the stall persists; the deadline
	// turns a head-of-line block into a clean failure, not a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		resp, err := c.Call(ctx, "fetch", []byte("payload"))
		if err != nil {
			t.Fatalf("sibling fetch %d blocked behind a stalled stream: %v", i, err)
		}
		if string(resp) != "payload" {
			t.Fatalf("sibling fetch %d = %q", i, resp)
		}
	}
	close(release)
	if err := <-stalled; err != nil {
		t.Fatalf("stalled call after recovery: %v", err)
	}
	if got := atomic.LoadInt32(&dials); got != 1 {
		t.Errorf("dialed %d conns, want 1 (siblings must interleave on the stalled stream's conn)", got)
	}
}

// mustOID returns the single published OID in the world's home server.
func mustOID(t *testing.T, w *deploy.World) globeid.OID {
	t.Helper()
	hosted := w.Servers[netsim.AmsterdamPrimary].Hosted()
	if len(hosted) != 1 {
		t.Fatalf("hosted = %v, want exactly one OID", hosted)
	}
	return hosted[0]
}

func TestChaosSameSeedReproducesFaultSchedule(t *testing.T) {
	// The whole point of seeding: running the identical workload twice
	// with the same seed yields a byte-identical fault trace, so any
	// chaos failure replays exactly from its seed. Stalls are left out of
	// the plan here — they do not change RNG consumption, and excluding
	// them keeps the workload's wall-clock behaviour identical too.
	if testing.Short() {
		t.Skip("determinism replay skipped in -short mode")
	}
	run := func(seed int64) string {
		// Pinned to wire-protocol v1: this test replays a byte-exact
		// fault schedule, and v2's negotiation preamble and frame
		// headers shift which bytes each seeded fault lands on. The
		// multiplexed path gets its own chaos coverage elsewhere in
		// this suite.
		cfg := chaosConfig()
		cfg.Version = transport.V1
		w, _, _ := chaosWorldCfg(t, seed, cfg)
		trace := w.Net.TraceFaults()
		w.Net.SetFaults(netsim.Paris, netsim.Paris, netsim.FaultPlan{DropProb: 0.3, CorruptProb: 0.2})
		client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{CacheBindings: true})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		for i := 0; i < 8; i++ {
			if _, err := client.FetchNamed(context.Background(), "chaos.vu.nl", "index.html"); err != nil {
				t.Fatalf("seeded fetch %d: %v", i, err)
			}
		}
		return trace.String()
	}
	first := run(*chaosSeed)
	second := run(*chaosSeed)
	if first != second {
		t.Fatalf("same seed produced different fault schedules:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if first == "" {
		t.Fatal("fault trace empty; the chaos plan injected nothing")
	}
	if other := run(*chaosSeed + 1); other == first {
		t.Error("different seed reproduced the identical fault schedule")
	}
}
