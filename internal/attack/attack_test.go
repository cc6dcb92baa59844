package attack_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"globedoc/internal/attack"
	"globedoc/internal/cert"
	"globedoc/internal/core"
	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/location"
	"globedoc/internal/netsim"
	"globedoc/internal/object"
	"globedoc/internal/server"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
	"globedoc/internal/vcache"
)

var t0 = time.Date(2005, 4, 4, 12, 0, 0, 0, time.UTC)

// genuineState builds a signed replica state for a fresh object.
func genuineState(t *testing.T, owner *keys.KeyPair, elems map[string][]byte, issued time.Time, ttl time.Duration) attack.ReplicaState {
	t.Helper()
	oid := globeid.FromPublicKey(owner.Public())
	doc := document.New()
	for name, data := range elems {
		if err := doc.Put(document.Element{Name: name, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	icert, err := document.IssueCertificate(doc, oid, owner, issued, document.UniformTTL(ttl))
	if err != nil {
		t.Fatal(err)
	}
	return attack.ReplicaState{OID: oid, Key: owner.Public(), Doc: doc, Cert: icert}
}

// newVictimClient stands up a malicious server on the testbed and returns
// a secure client whose (malicious) location service directs every lookup
// to it. now fixes the client clock.
func newVictimClient(t *testing.T, srv *attack.MaliciousServer, now time.Time) *core.Client {
	t.Helper()
	return newVictimClientOpts(t, srv, core.Options{Now: func() time.Time { return now }})
}

// newVictimClientOpts is newVictimClient with full control over the
// client options, for victims with binding or content caches enabled.
// A victim without telemetry of its own gets a fresh one, so no earlier
// test's health evidence re-ranks its candidates.
func newVictimClientOpts(t *testing.T, srv *attack.MaliciousServer, opts core.Options) *core.Client {
	t.Helper()
	if opts.Telemetry == nil {
		opts.Telemetry = telemetry.New(nil)
	}
	n := netsim.PaperTestbed(0)
	t.Cleanup(n.Close)
	l, err := n.Listen(netsim.Paris, "evil")
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(l)
	t.Cleanup(srv.Close)

	rogue := location.ContactAddress{Address: "paris:evil", Protocol: object.Protocol}
	binder := &object.Binder{
		Locator: attack.MaliciousLocation{Rogue: rogue},
		Dial: func(addr string) transport.DialFunc {
			return n.Dialer(netsim.AmsterdamSecondary, addr)
		},
		Site: netsim.AmsterdamSecondary,
	}
	client, err := core.NewClient(binder, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	return client
}

func TestHonestControlPasses(t *testing.T) {
	owner := keytest.RSA()
	state := genuineState(t, owner, map[string][]byte{"index.html": []byte("genuine")}, t0, time.Hour)
	srv := attack.NewMaliciousServer(attack.Honest, state)
	client := newVictimClient(t, srv, t0.Add(time.Minute))
	res, err := client.Fetch(context.Background(), state.OID, "index.html")
	if err != nil {
		t.Fatalf("honest replica rejected: %v", err)
	}
	if string(res.Element.Data) != "genuine" {
		t.Errorf("Data = %q", res.Element.Data)
	}
}

func TestTamperedContentDetected(t *testing.T) {
	owner := keytest.RSA()
	state := genuineState(t, owner, map[string][]byte{"index.html": []byte("genuine content")}, t0, time.Hour)
	srv := attack.NewMaliciousServer(attack.TamperContent, state)
	client := newVictimClient(t, srv, t0.Add(time.Minute))
	_, err := client.Fetch(context.Background(), state.OID, "index.html")
	if !errors.Is(err, core.ErrSecurityCheckFailed) {
		t.Fatalf("err = %v, want security check failure", err)
	}
	if !errors.Is(err, cert.ErrAuthenticity) {
		t.Fatalf("err = %v, want authenticity violation", err)
	}
}

func TestElementSubstitutionDetected(t *testing.T) {
	owner := keytest.RSA()
	state := genuineState(t, owner, map[string][]byte{
		"index.html": []byte("the real index"),
		"other.html": []byte("a different genuine page"),
	}, t0, time.Hour)
	srv := attack.NewMaliciousServer(attack.SubstituteElement, state)
	client := newVictimClient(t, srv, t0.Add(time.Minute))
	_, err := client.Fetch(context.Background(), state.OID, "index.html")
	if !errors.Is(err, core.ErrSecurityCheckFailed) || !errors.Is(err, cert.ErrAuthenticity) {
		t.Fatalf("err = %v, want authenticity violation (consistency attack)", err)
	}
}

func TestStaleReplayDetectedAfterExpiry(t *testing.T) {
	owner := keytest.RSA()
	// v1 with a short TTL; the owner later publishes v2.
	v1 := genuineState(t, owner, map[string][]byte{"news.html": []byte("old news")}, t0, time.Minute)
	v2doc := document.New()
	v2doc.Put(document.Element{Name: "news.html", Data: []byte("fresh news")})
	v2cert, err := document.IssueCertificate(v2doc, v1.OID, owner, t0.Add(2*time.Minute), document.UniformTTL(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	current := attack.ReplicaState{OID: v1.OID, Key: owner.Public(), Doc: v2doc, Cert: v2cert}

	srv := attack.NewMaliciousServer(attack.StaleReplay, current)
	srv.SetStale(v1)
	// The client asks after v1's certificate expired: replaying v1 must
	// fail the freshness check.
	client := newVictimClient(t, srv, t0.Add(2*time.Minute+30*time.Second))
	_, err = client.Fetch(context.Background(), v1.OID, "news.html")
	if !errors.Is(err, core.ErrSecurityCheckFailed) || !errors.Is(err, cert.ErrFreshness) {
		t.Fatalf("err = %v, want freshness violation", err)
	}
}

func TestStaleReplayWithinValiditySucceeds(t *testing.T) {
	// The paper's freshness guarantee is bounded by the validity
	// interval: replaying a version that is still inside its interval is
	// undetectable BY DESIGN — owners bound staleness via per-element
	// TTLs. This test pins that documented semantics.
	owner := keytest.RSA()
	v1 := genuineState(t, owner, map[string][]byte{"news.html": []byte("old news")}, t0, time.Hour)
	srv := attack.NewMaliciousServer(attack.StaleReplay, v1)
	srv.SetStale(v1)
	client := newVictimClient(t, srv, t0.Add(time.Minute))
	res, err := client.Fetch(context.Background(), v1.OID, "news.html")
	if err != nil {
		t.Fatalf("in-validity replay rejected: %v", err)
	}
	if string(res.Element.Data) != "old news" {
		t.Errorf("Data = %q", res.Element.Data)
	}
}

func TestForgedCertificateDetected(t *testing.T) {
	owner := keytest.RSA()
	state := genuineState(t, owner, map[string][]byte{"index.html": []byte("genuine")}, t0, time.Hour)

	// The attacker crafts a certificate matching the tampered content
	// ("genuine" with first byte flipped) and signs it with their own key.
	attacker := keytest.Ed()
	tampered := append([]byte(nil), []byte("genuine")...)
	tampered[0] ^= 0xff
	forgedCert := &cert.IntegrityCertificate{ObjectID: state.OID, Version: 99, Issued: t0}
	forgedCert.Entries = []cert.ElementEntry{{
		Name:      "index.html",
		Hash:      globeid.HashElement(tampered),
		NotBefore: t0,
		Expires:   t0.Add(time.Hour),
	}}
	if err := forgedCert.Sign(attacker); err != nil {
		t.Fatal(err)
	}

	srv := attack.NewMaliciousServer(attack.ForgeCertificate, state)
	srv.SetForgery(attacker, forgedCert)
	client := newVictimClient(t, srv, t0.Add(time.Minute))
	_, err := client.Fetch(context.Background(), state.OID, "index.html")
	// The attacker's key does not hash to the OID, so the pipeline dies
	// at self-certification — before the forged certificate is even
	// consulted.
	if !errors.Is(err, core.ErrSecurityCheckFailed) || !errors.Is(err, globeid.ErrKeyMismatch) {
		t.Fatalf("err = %v, want self-certification failure", err)
	}
}

func TestWrongObjectMasqueradeDetected(t *testing.T) {
	victim := keytest.RSA()
	state := genuineState(t, victim, map[string][]byte{"index.html": []byte("victim site")}, t0, time.Hour)
	// A completely different, internally consistent object.
	decoyOwner := keytest.Ed()
	decoy := genuineState(t, decoyOwner, map[string][]byte{"index.html": []byte("decoy site")}, t0, time.Hour)

	srv := attack.NewMaliciousServer(attack.WrongObject, state)
	srv.SetDecoy(decoy)
	client := newVictimClient(t, srv, t0.Add(time.Minute))
	_, err := client.Fetch(context.Background(), state.OID, "index.html")
	if !errors.Is(err, core.ErrSecurityCheckFailed) || !errors.Is(err, globeid.ErrKeyMismatch) {
		t.Fatalf("err = %v, want self-certification failure", err)
	}
}

func TestAllAttackModesAtMostDoS(t *testing.T) {
	// The paper's bottom line (§3.1.2): whatever the untrusted
	// infrastructure does, the client either gets verified data or an
	// error — never silently wrong data.
	owner := keytest.RSA()
	genuineContent := []byte("the one true content")
	for _, mode := range attack.AllModes {
		t.Run(mode.String(), func(t *testing.T) {
			state := genuineState(t, owner, map[string][]byte{
				"index.html": genuineContent,
				"other.html": []byte("another element"),
			}, t0, time.Hour)
			srv := attack.NewMaliciousServer(mode, state)
			switch mode {
			case attack.StaleReplay:
				old := genuineState(t, owner, map[string][]byte{"index.html": []byte("ancient")}, t0.Add(-2*time.Hour), time.Hour)
				srv.SetStale(old)
			case attack.WrongObject:
				srv.SetDecoy(genuineState(t, keytest.Ed(), map[string][]byte{"index.html": []byte("decoy")}, t0, time.Hour))
			case attack.ForgeCertificate:
				attacker := keytest.Ed()
				forged := &cert.IntegrityCertificate{ObjectID: state.OID, Issued: t0}
				forged.Entries = []cert.ElementEntry{{Name: "index.html", Hash: globeid.HashElement([]byte("x")), Expires: t0.Add(time.Hour)}}
				if err := forged.Sign(attacker); err != nil {
					t.Fatal(err)
				}
				srv.SetForgery(attacker, forged)
			}
			client := newVictimClient(t, srv, t0.Add(time.Minute))
			res, err := client.Fetch(context.Background(), state.OID, "index.html")
			if err == nil && string(res.Element.Data) != string(genuineContent) {
				t.Fatalf("mode %s: client ACCEPTED wrong data %q", mode, res.Element.Data)
			}
		})
	}
}

// multiReplicaLocator returns several fixed contact addresses in order.
type multiReplicaLocator struct {
	addrs []location.ContactAddress
}

func (m multiReplicaLocator) Lookup(_ context.Context, fromSite string, oid globeid.OID) (location.LookupResult, error) {
	return location.LookupResult{Addresses: m.addrs}, nil
}

// multiReplicaClient builds a secure victim client at amsterdam-secondary
// that sees the replicas at addrs in order, over transport config cfg,
// reporting into tel — its own, so no earlier test's health evidence
// re-ranks its candidates.
func multiReplicaClient(t *testing.T, n *netsim.Network, tel *telemetry.Telemetry, cfg transport.Config, addrs ...string) *core.Client {
	t.Helper()
	contacts := make([]location.ContactAddress, len(addrs))
	for i, a := range addrs {
		contacts[i] = location.ContactAddress{Address: a, Protocol: object.Protocol}
	}
	client, err := core.NewClient(&object.Binder{
		Locator: multiReplicaLocator{addrs: contacts},
		Dial: func(addr string) transport.DialFunc {
			return n.Dialer(netsim.AmsterdamSecondary, addr)
		},
		Site:      netsim.AmsterdamSecondary,
		Transport: cfg,
	}, core.Options{Now: func() time.Time { return t0.Add(time.Minute) }, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	return client
}

// fetchOps are the fetch plan's two operations, each run as an extra
// input of the failover tests: Fetch of index.html and FetchAll of the
// whole (multi-element, so batched) document. Both return what they
// delivered.
var fetchOps = []struct {
	name string
	run  func(ctx context.Context, c *core.Client, oid globeid.OID) ([]core.FetchResult, error)
}{
	{"Fetch", func(ctx context.Context, c *core.Client, oid globeid.OID) ([]core.FetchResult, error) {
		res, err := c.Fetch(ctx, oid, "index.html")
		if err != nil {
			return nil, err
		}
		return []core.FetchResult{res}, nil
	}},
	{"FetchAll", func(ctx context.Context, c *core.Client, oid globeid.OID) ([]core.FetchResult, error) {
		return c.FetchAll(ctx, oid)
	}},
}

// checkFailedOver fails t unless results carry state's genuine bytes,
// all from the replica at want, after exactly one failover.
func checkFailedOver(t *testing.T, results []core.FetchResult, state attack.ReplicaState, want string, tel *telemetry.Telemetry) {
	t.Helper()
	for _, res := range results {
		genuine, err := state.Doc.Get(res.Element.Name)
		if err != nil || string(res.Element.Data) != string(genuine.Data) {
			t.Fatalf("%s: Data = %q", res.Element.Name, res.Element.Data)
		}
		if res.ReplicaAddr != want {
			t.Errorf("%s served from %q, want %q", res.Element.Name, res.ReplicaAddr, want)
		}
	}
	if n := tel.Failovers.Value(); n != 1 {
		t.Errorf("failovers_total = %d, want 1: the bad replica was tried first and abandoned", n)
	}
}

func TestFailoverPastMaliciousReplica(t *testing.T) {
	// The NEAREST replica is malicious (tampering); an honest replica
	// exists one ring out. The client must detect the tampering and
	// transparently recover via the honest replica — an attack degrades
	// to a slower fetch, not a failure.
	owner := keytest.RSA()
	state := genuineState(t, owner, map[string][]byte{
		"index.html": []byte("the real thing"),
		"logo.png":   []byte("the real logo"),
	}, t0, time.Hour)
	for _, op := range fetchOps {
		t.Run(op.name, func(t *testing.T) {
			n := netsim.PaperTestbed(0)
			t.Cleanup(n.Close)
			evilL, err := n.Listen(netsim.Paris, "evil")
			if err != nil {
				t.Fatal(err)
			}
			evil := attack.NewMaliciousServer(attack.TamperContent, state)
			evil.Start(evilL)
			t.Cleanup(evil.Close)
			honestL, err := n.Listen(netsim.AmsterdamPrimary, "honest")
			if err != nil {
				t.Fatal(err)
			}
			honest := attack.NewMaliciousServer(attack.Honest, state)
			honest.Start(honestL)
			t.Cleanup(honest.Close)

			tel := telemetry.New(nil)
			client := multiReplicaClient(t, n, tel, transport.Config{}, "paris:evil", "amsterdam-primary:honest")
			results, err := op.run(context.Background(), client, state.OID)
			if err != nil {
				t.Fatalf("fetch with honest fallback failed: %v", err)
			}
			checkFailedOver(t, results, state, "amsterdam-primary:honest", tel)
		})
	}
}

func TestFailoverPastMasqueradingReplica(t *testing.T) {
	// The nearest replica fails self-certification (wrong object); the
	// establish loop must move on without ever fetching an element.
	owner := keytest.RSA()
	state := genuineState(t, owner, map[string][]byte{
		"index.html": []byte("genuine"),
		"logo.png":   []byte("genuine logo"),
	}, t0, time.Hour)
	decoy := genuineState(t, keytest.Ed(), map[string][]byte{"index.html": []byte("decoy")}, t0, time.Hour)
	for _, op := range fetchOps {
		t.Run(op.name, func(t *testing.T) {
			n := netsim.PaperTestbed(0)
			t.Cleanup(n.Close)
			evilL, _ := n.Listen(netsim.Paris, "evil")
			evil := attack.NewMaliciousServer(attack.WrongObject, state)
			evil.SetDecoy(decoy)
			evil.Start(evilL)
			t.Cleanup(evil.Close)
			honestL, _ := n.Listen(netsim.AmsterdamPrimary, "honest")
			honest := attack.NewMaliciousServer(attack.Honest, state)
			honest.Start(honestL)
			t.Cleanup(honest.Close)

			tel := telemetry.New(nil)
			client := multiReplicaClient(t, n, tel, transport.Config{}, "paris:evil", "amsterdam-primary:honest")
			results, err := op.run(context.Background(), client, state.OID)
			if err != nil {
				t.Fatalf("fetch: %v", err)
			}
			checkFailedOver(t, results, state, "amsterdam-primary:honest", tel)
		})
	}
}

func TestAllReplicasMaliciousIsDoS(t *testing.T) {
	// With no honest replica anywhere, the fetch fails — but never
	// returns wrong data.
	owner := keytest.RSA()
	state := genuineState(t, owner, map[string][]byte{"index.html": []byte("genuine")}, t0, time.Hour)
	n := netsim.PaperTestbed(0)
	t.Cleanup(n.Close)
	for i, host := range []string{netsim.Paris, netsim.AmsterdamPrimary} {
		l, err := n.Listen(host, "evil")
		if err != nil {
			t.Fatal(err)
		}
		srv := attack.NewMaliciousServer(attack.TamperContent, state)
		srv.Start(l)
		t.Cleanup(srv.Close)
		_ = i
	}
	client := multiReplicaClient(t, n, telemetry.New(nil), transport.Config{}, "paris:evil", "amsterdam-primary:evil")
	_, err := client.Fetch(context.Background(), state.OID, "index.html")
	if !errors.Is(err, core.ErrSecurityCheckFailed) {
		t.Fatalf("err = %v, want security failure", err)
	}
}

// attackClock is a mutable test clock shared with the victim client.
type attackClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *attackClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *attackClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestStaleCachedElementAfterExpiryDetected(t *testing.T) {
	// A victim with the verified-content cache warm cannot be fed its own
	// cached bytes past the certificate's validity: when the replica can
	// only produce the expired certificate again, the fetch fails the
	// freshness check (counted under phase="freshness") and the stale
	// entry is evicted — cached content is never fresher than its
	// certificate.
	owner := keytest.RSA()
	state := genuineState(t, owner, map[string][]byte{"index.html": []byte("short-lived")}, t0, time.Minute)
	entry, err := state.Cert.Lookup("index.html")
	if err != nil {
		t.Fatal(err)
	}

	clk := &attackClock{t: t0.Add(10 * time.Second)}
	tel := telemetry.New(nil)
	vc := vcache.New(vcache.Config{})
	srv := attack.NewMaliciousServer(attack.Honest, state)
	client := newVictimClientOpts(t, srv, core.Options{
		Now:           clk.Now,
		CacheBindings: true,
		VCache:        vc,
		Telemetry:     tel,
	})

	// Warm the cache inside the validity interval.
	res, err := client.Fetch(context.Background(), state.OID, "index.html")
	if err != nil {
		t.Fatalf("warming fetch: %v", err)
	}
	if res.FromCache || !vc.Contains(entry.Hash) {
		t.Fatal("warming fetch did not populate the content cache")
	}

	// Past expiry the replica still replays the same certificate; the
	// cached bytes must not be served.
	clk.Advance(2 * time.Minute)
	_, err = client.Fetch(context.Background(), state.OID, "index.html")
	if !errors.Is(err, core.ErrSecurityCheckFailed) || !errors.Is(err, cert.ErrFreshness) {
		t.Fatalf("err = %v, want freshness violation", err)
	}
	if got := tel.SecurityCheckFailures.With("freshness").Value(); got == 0 {
		t.Error("security_check_failures_total{phase=\"freshness\"} not incremented")
	}
	if vc.Contains(entry.Hash) {
		t.Error("stale element still cached after freshness failure")
	}
}

func TestSeededCacheLosesToRevocation(t *testing.T) {
	// Under every attack mode, a verified-content cache seeded with a
	// revoked (superseded) version never resurfaces it: the client serves
	// the current version or fails — and on any successful fetch the
	// reconciliation against the current certificate has evicted the
	// seeded entry.
	owner := keytest.RSA()
	oldContent := []byte("revoked version")
	oldHash := globeid.HashElement(oldContent)
	current := []byte("current version")
	for _, mode := range attack.AllModes {
		t.Run(mode.String(), func(t *testing.T) {
			state := genuineState(t, owner, map[string][]byte{
				"index.html": current,
				"other.html": []byte("another element"),
			}, t0, time.Hour)
			srv := attack.NewMaliciousServer(mode, state)
			switch mode {
			case attack.StaleReplay:
				old := genuineState(t, owner, map[string][]byte{"index.html": oldContent}, t0.Add(-2*time.Hour), time.Hour)
				srv.SetStale(old)
			case attack.WrongObject:
				srv.SetDecoy(genuineState(t, keytest.Ed(), map[string][]byte{"index.html": []byte("decoy")}, t0, time.Hour))
			case attack.ForgeCertificate:
				attacker := keytest.Ed()
				forged := &cert.IntegrityCertificate{ObjectID: state.OID, Issued: t0}
				forged.Entries = []cert.ElementEntry{{Name: "index.html", Hash: oldHash, Expires: t0.Add(time.Hour)}}
				if err := forged.Sign(attacker); err != nil {
					t.Fatal(err)
				}
				srv.SetForgery(attacker, forged)
			}

			// Seed the cache with the revoked bytes, marked valid far into
			// the future — only certificate reconciliation can drop them.
			vc := vcache.New(vcache.Config{})
			vc.Put(state.OID, oldHash, vcache.Element{ContentType: "text/html", Data: oldContent}, t0.Add(24*time.Hour))

			client := newVictimClientOpts(t, srv, core.Options{
				Now:           func() time.Time { return t0.Add(time.Minute) },
				CacheBindings: true,
				VCache:        vc,
			})
			res, err := client.Fetch(context.Background(), state.OID, "index.html")
			if err != nil {
				return // at most denial of service
			}
			if string(res.Element.Data) != string(current) {
				t.Fatalf("mode %s: client ACCEPTED non-current data %q", mode, res.Element.Data)
			}
			if vc.Contains(oldHash) {
				t.Errorf("mode %s: revoked entry survived certificate reconciliation", mode)
			}
		})
	}
}

func TestMaliciousLocationIsOnlyDoS(t *testing.T) {
	// A malicious location service pointing at a dead address causes
	// denial of service, nothing worse.
	owner := keytest.RSA()
	oid := globeid.FromPublicKey(owner.Public())
	n := netsim.PaperTestbed(0)
	defer n.Close()
	binder := &object.Binder{
		Locator: attack.MaliciousLocation{Rogue: location.ContactAddress{Address: "paris:void", Protocol: object.Protocol}},
		Dial: func(addr string) transport.DialFunc {
			return n.Dialer(netsim.AmsterdamSecondary, addr)
		},
		Site: netsim.AmsterdamSecondary,
	}
	client, err := core.NewClient(binder, core.Options{Telemetry: telemetry.New(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Fetch(context.Background(), oid, "index.html"); err == nil {
		t.Fatal("fetch through dead rogue address succeeded")
	}
}

func TestLocationReorderAndForgeIsOnlyDoS(t *testing.T) {
	// The full selector-targeted location attack: a lying location
	// service prepends a rogue replica dressed in forged same-zone,
	// high-weight metadata (plus a dead address), strips and reverses the
	// genuine results. The rogue serves tampered bytes for the real OID
	// under a genuinely-signed certificate. The selector, trusting the
	// forged advice, must be allowed to try the rogue first — and the
	// pipeline must still only ever return genuine bytes from a genuine
	// replica, at the price of failovers. At worst DoS, never corruption.
	tel := telemetry.New(nil)
	w, err := deploy.NewWorld(deploy.Options{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, site := range []string{netsim.AmsterdamPrimary, netsim.Paris} {
		if _, err := w.StartServer(site, "srv-"+site, nil, nil, server.Limits{}); err != nil {
			t.Fatal(err)
		}
	}

	owner := keytest.RSA()
	doc := document.New()
	if err := doc.Put(document.Element{Name: "index.html", Data: []byte("the genuine page")}); err != nil {
		t.Fatal(err)
	}
	pub, err := w.Publish(doc, deploy.PublishOptions{Name: "victim.example", OwnerKey: owner})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ReplicateTo(pub, netsim.Paris); err != nil {
		t.Fatal(err)
	}

	// The rogue replica holds the genuine state (it could have fetched it
	// like anyone) but tampers with every element it serves.
	srv := attack.NewMaliciousServer(attack.TamperContent, attack.ReplicaState{
		OID: pub.OID, Key: owner.Public(), Doc: pub.Doc, Cert: pub.Cert,
	})
	l, err := w.Net.Listen(netsim.Paris, "evil")
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(l)
	defer srv.Close()

	clientHost := netsim.AmsterdamSecondary
	binder := &object.Binder{
		Locator: attack.ReorderLocation{
			Genuine: w.LocationTree,
			Rogue: []location.ContactAddress{
				{Address: "paris:evil", Protocol: object.Protocol},
				{Address: "ghost:void", Protocol: object.Protocol},
			},
			ForgeZone:   "europe", // the client's own zone
			ForgeWeight: 1 << 20,
		},
		Dial: w.DialFrom(clientHost),
		Site: clientHost,
		Transport: transport.Config{
			DialTimeout: 300 * time.Millisecond,
			CallTimeout: 300 * time.Millisecond,
			Telemetry:   tel,
		},
	}
	client, err := core.NewClient(binder, core.Options{
		Telemetry: tel,
		Selector:  core.HealthRankedSelector{Zone: "europe"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	genuine := map[string]bool{
		w.Addrs[pub.HomeSite]: true,
		w.Addrs[netsim.Paris]: true,
	}
	for i := 0; i < 4; i++ {
		res, err := client.Fetch(context.Background(), pub.OID, "index.html")
		if err != nil {
			t.Fatalf("fetch %d under location attack: %v", i, err)
		}
		if string(res.Element.Data) != "the genuine page" {
			t.Fatalf("fetch %d ACCEPTED tampered data %q", i, res.Element.Data)
		}
		if !genuine[res.ReplicaAddr] {
			t.Fatalf("fetch %d served from non-genuine replica %s", i, res.ReplicaAddr)
		}
		client.Close()
	}

	// The attack was visible — the rogue's forged metadata got it tried
	// and its tampering detected — but strictly bounded: detected
	// tampering and the dead dial both count as failure evidence, so the
	// selector demotes the rogues and failovers stop accruing instead of
	// costing every fetch.
	failovers := tel.Failovers.Value()
	if failovers < 2 {
		t.Errorf("failovers_total = %d; forged metadata never got the rogues tried", failovers)
	}
	if failovers > 4 {
		t.Errorf("failovers_total = %d across 4 fetches; re-ranking did not demote the rogues", failovers)
	}
	for _, rogue := range []string{"paris:evil", "ghost:void"} {
		h, ok := tel.Health.Lookup(rogue)
		if !ok || h.ConsecutiveFailures == 0 {
			t.Errorf("no failure evidence recorded against rogue %s", rogue)
		}
	}
}
