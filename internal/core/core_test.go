package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"globedoc/internal/cert"
	"globedoc/internal/core"
	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/netsim"
	"globedoc/internal/server"
	"globedoc/internal/telemetry"
)

// world stands up a deployment with one published document and returns
// the world, the publication and a secure client at clientHost.
func world(t *testing.T, clientHost string) (*deploy.World, *deploy.Publication, *core.Client) {
	t.Helper()
	w, err := deploy.NewWorld(deploy.Options{TimeScale: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv-ams", nil, nil, server.Limits{}); err != nil {
		t.Fatal(err)
	}
	doc := document.New()
	doc.Put(document.Element{Name: "index.html", Data: []byte("<html>GlobeDoc home</html>")})
	doc.Put(document.Element{Name: "logo.png", Data: []byte{0x89, 0x50, 0x4e, 0x47}})
	pub, err := w.Publish(doc, deploy.PublishOptions{
		Name:     "home.vu.nl",
		Subject:  "Vrije Universiteit Amsterdam",
		OwnerKey: keytest.RSA(),
	})
	if err != nil {
		t.Fatal(err)
	}
	client := w.NewSecureClient(clientHost)
	t.Cleanup(client.Close)
	return w, pub, client
}

func TestSecureFetchEndToEnd(t *testing.T) {
	_, _, client := world(t, netsim.Paris)
	res, err := client.FetchNamed(context.Background(), "home.vu.nl", "index.html")
	if err != nil {
		t.Fatalf("FetchNamed: %v", err)
	}
	if string(res.Element.Data) != "<html>GlobeDoc home</html>" {
		t.Errorf("Data = %q", res.Element.Data)
	}
	if res.CertifiedAs != "Vrije Universiteit Amsterdam" {
		t.Errorf("CertifiedAs = %q", res.CertifiedAs)
	}
	if res.ReplicaAddr == "" {
		t.Error("ReplicaAddr empty")
	}
	if res.Timing.Total() <= 0 || res.Timing.Security() <= 0 {
		t.Errorf("Timing = %+v", res.Timing)
	}
	if res.WarmBinding {
		t.Error("first fetch reported warm binding")
	}
}

func TestFetchByOID(t *testing.T) {
	_, pub, client := world(t, netsim.Ithaca)
	res, err := client.Fetch(context.Background(), pub.OID, "logo.png")
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if len(res.Element.Data) != 4 {
		t.Errorf("Data = %v", res.Element.Data)
	}
	if res.Timing.NameResolve != 0 {
		t.Error("OID fetch should not pay name resolution")
	}
}

func TestFetchUnknownElement(t *testing.T) {
	_, pub, client := world(t, netsim.Paris)
	if _, err := client.Fetch(context.Background(), pub.OID, "ghost.html"); err == nil {
		t.Fatal("fetch of unknown element succeeded")
	}
}

func TestFetchUnknownName(t *testing.T) {
	_, _, client := world(t, netsim.Paris)
	if _, err := client.FetchNamed(context.Background(), "ghost.vu.nl", "index.html"); err == nil {
		t.Fatal("fetch of unregistered name succeeded")
	}
}

func TestWarmBindingCache(t *testing.T) {
	w, pub, _ := world(t, netsim.Paris)
	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{CacheBindings: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	first, err := client.Fetch(context.Background(), pub.OID, "index.html")
	if err != nil {
		t.Fatal(err)
	}
	if first.WarmBinding {
		t.Fatal("first fetch warm")
	}
	second, err := client.Fetch(context.Background(), pub.OID, "index.html")
	if err != nil {
		t.Fatal(err)
	}
	if !second.WarmBinding {
		t.Fatal("second fetch not warm")
	}
	// Warm fetches skip key/cert phases entirely.
	if second.Timing.KeyFetch != 0 || second.Timing.CertFetch != 0 || second.Timing.Bind != 0 {
		t.Errorf("warm timing = %+v", second.Timing)
	}
	client.Close()
	third, err := client.Fetch(context.Background(), pub.OID, "index.html")
	if err != nil {
		t.Fatal(err)
	}
	if third.WarmBinding {
		t.Fatal("fetch after flush reported warm")
	}
}

func TestFetchAllElements(t *testing.T) {
	_, pub, client := world(t, netsim.AmsterdamSecondary)
	results, err := client.FetchAll(context.Background(), pub.OID)
	if err != nil {
		t.Fatalf("FetchAll: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d elements", len(results))
	}
	// Certificate order is sorted by name.
	if results[0].Element.Name != "index.html" || results[1].Element.Name != "logo.png" {
		t.Errorf("order = %q, %q", results[0].Element.Name, results[1].Element.Name)
	}
}

func TestIdentityOptionalWhenNotRequired(t *testing.T) {
	w, err := deploy.NewWorld(deploy.Options{TimeScale: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv", nil, nil, server.Limits{}); err != nil {
		t.Fatal(err)
	}
	doc := document.New()
	doc.Put(document.Element{Name: "a.html", Data: []byte("anon")})
	// No Subject: object has no identity certificate.
	pub, err := w.Publish(doc, deploy.PublishOptions{Name: "anon.nl", OwnerKey: keytest.RSA()})
	if err != nil {
		t.Fatal(err)
	}
	client := w.NewSecureClient(netsim.Paris)
	t.Cleanup(client.Close)

	res, err := client.Fetch(context.Background(), pub.OID, "a.html")
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if res.CertifiedAs != "" {
		t.Errorf("CertifiedAs = %q for uncertified object", res.CertifiedAs)
	}

	strict, err := w.NewSecureClientOpts(netsim.Paris, core.Options{RequireIdentity: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(strict.Close)
	if _, err := strict.Fetch(context.Background(), pub.OID, "a.html"); err == nil {
		t.Fatal("RequireIdentity fetch succeeded without identity certificate")
	}
}

func TestUntrustedCAIdentityIgnored(t *testing.T) {
	w, pub, _ := world(t, netsim.Paris)
	// Use a trust store that trusts nobody.
	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{Trust: cert.NewTrustStore()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	res, err := client.Fetch(context.Background(), pub.OID, "index.html")
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if res.CertifiedAs != "" {
		t.Errorf("CertifiedAs = %q with empty trust store", res.CertifiedAs)
	}
}

func TestFreshnessExpiryRejected(t *testing.T) {
	w, err := deploy.NewWorld(deploy.Options{TimeScale: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv", nil, nil, server.Limits{}); err != nil {
		t.Fatal(err)
	}
	doc := document.New()
	doc.Put(document.Element{Name: "news.html", Data: []byte("breaking")})
	pub, err := w.Publish(doc, deploy.PublishOptions{Name: "news.nl", TTL: time.Minute, OwnerKey: keytest.RSA()})
	if err != nil {
		t.Fatal(err)
	}
	// Wind the client clock past the certificate TTL: the (genuine)
	// content must be rejected as stale.
	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{
		Now: func() time.Time { return time.Now().Add(2 * time.Minute) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	_, err = client.Fetch(context.Background(), pub.OID, "news.html")
	if !errors.Is(err, core.ErrSecurityCheckFailed) || !errors.Is(err, cert.ErrFreshness) {
		t.Fatalf("err = %v, want freshness security failure", err)
	}
}

// fetchOps are the fetch plan's two operations, each run as an extra
// input of the recovery tests: Fetch of one element and FetchAll of the
// whole (multi-element, so batched) document. Both return what they
// delivered.
var fetchOps = []struct {
	name string
	run  func(ctx context.Context, c *core.Client, oid globeid.OID, element string) ([]core.FetchResult, error)
}{
	{"Fetch", func(ctx context.Context, c *core.Client, oid globeid.OID, element string) ([]core.FetchResult, error) {
		res, err := c.Fetch(ctx, oid, element)
		if err != nil {
			return nil, err
		}
		return []core.FetchResult{res}, nil
	}},
	{"FetchAll", func(ctx context.Context, c *core.Client, oid globeid.OID, _ string) ([]core.FetchResult, error) {
		return c.FetchAll(ctx, oid)
	}},
}

func TestWarmBindingRefreshesExpiredCert(t *testing.T) {
	for _, op := range fetchOps {
		t.Run(op.name, func(t *testing.T) {
			w, err := deploy.NewWorld(deploy.Options{TimeScale: 0})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(w.Close)
			if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv", nil, nil, server.Limits{}); err != nil {
				t.Fatal(err)
			}
			doc := document.New()
			doc.Put(document.Element{Name: "a.html", Data: []byte("v1")})
			doc.Put(document.Element{Name: "b.html", Data: []byte("v1 too")})
			pub, err := w.Publish(doc, deploy.PublishOptions{Name: "x.nl", TTL: time.Minute, OwnerKey: keytest.RSA()})
			if err != nil {
				t.Fatal(err)
			}
			now := time.Now
			tel := telemetry.New(nil)
			client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{
				CacheBindings: true,
				Now:           func() time.Time { return now() },
				Telemetry:     tel,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(client.Close)

			if _, err := op.run(context.Background(), client, pub.OID, "a.html"); err != nil {
				t.Fatal(err)
			}

			// Owner re-issues a fresh certificate dated "later"; the client
			// clock moves past the first certificate's expiry. The warm
			// binding must transparently refresh — over the replica it is
			// bound to, without re-running the binding pipeline — rather
			// than fail.
			later := time.Now().Add(10 * time.Minute)
			if err := w.Reissue(pub, time.Hour, later); err != nil {
				t.Fatal(err)
			}
			now = func() time.Time { return later }
			results, err := op.run(context.Background(), client, pub.OID, "a.html")
			if err != nil {
				t.Fatalf("fetch after reissue: %v", err)
			}
			for _, res := range results {
				if !res.WarmBinding {
					t.Errorf("%s: expired-cert fetch re-bound cold, want a refresh over the warm binding", res.Element.Name)
				}
			}
			if n := tel.PipelineRuns.Value(); n != 1 {
				t.Errorf("binding_pipeline_runs_total = %d, want 1: the refresh asks the bound replica", n)
			}
			if n := tel.SecurityCheckFailures.With("freshness").Value(); n != 0 {
				t.Errorf("a re-issued certificate counted %d freshness failures, want 0", n)
			}
		})
	}
}

func TestTimingPhasesPopulated(t *testing.T) {
	_, _, client := world(t, netsim.Paris)
	res, err := client.FetchNamed(context.Background(), "home.vu.nl", "index.html")
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timing
	if tm.NameResolve <= 0 || tm.Bind <= 0 || tm.KeyFetch <= 0 || tm.CertFetch <= 0 || tm.ElementFetch <= 0 {
		t.Errorf("missing phases: %+v", tm)
	}
	if tm.Security() >= tm.Total() {
		t.Errorf("Security %v >= Total %v", tm.Security(), tm.Total())
	}
	pct := tm.OverheadPercent()
	if pct <= 0 || pct >= 100 {
		t.Errorf("OverheadPercent = %v", pct)
	}
}

func TestTimingAddScale(t *testing.T) {
	a := core.Timing{KeyFetch: 2 * time.Second, ElementFetch: 4 * time.Second}
	var sum core.Timing
	sum.Add(a)
	sum.Add(a)
	avg := sum.Scale(2)
	if avg.KeyFetch != 2*time.Second || avg.ElementFetch != 4*time.Second {
		t.Errorf("avg = %+v", avg)
	}
	if (core.Timing{}).OverheadPercent() != 0 {
		t.Error("zero timing overhead should be 0")
	}
	if a.Scale(0) != a {
		t.Error("Scale(0) should be identity")
	}
}

func TestNearestReplicaSelected(t *testing.T) {
	w, pub, client := world(t, netsim.Paris)
	// Add a replica at the client's own site; re-binding must pick it.
	if _, err := w.StartServer(netsim.Paris, "srv-paris", nil, nil, server.Limits{}); err != nil {
		t.Fatal(err)
	}
	if err := w.ReplicateTo(pub, netsim.Paris); err != nil {
		t.Fatal(err)
	}
	res, err := client.Fetch(context.Background(), pub.OID, "index.html")
	if err != nil {
		t.Fatal(err)
	}
	if res.ReplicaAddr != "paris:"+deploy.ObjectService {
		t.Errorf("ReplicaAddr = %q, want local paris replica", res.ReplicaAddr)
	}
}

func TestFailoverToFartherReplica(t *testing.T) {
	// Failure injection: the client's nearest replica crashes; the fetch
	// must fall back to the farther one transparently — at establishment
	// when the binding is cold, mid-fetch when a warm binding still points
	// at the crashed replica.
	for _, op := range fetchOps {
		for _, warm := range []bool{false, true} {
			name := op.name + "/cold"
			if warm {
				name = op.name + "/warm"
			}
			t.Run(name, func(t *testing.T) {
				w, pub, _ := world(t, netsim.Paris)
				if _, err := w.StartServer(netsim.Paris, "srv-paris", nil, nil, server.Limits{}); err != nil {
					t.Fatal(err)
				}
				if err := w.ReplicateTo(pub, netsim.Paris); err != nil {
					t.Fatal(err)
				}
				tel := telemetry.New(nil)
				client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{CacheBindings: warm, Telemetry: tel})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(client.Close)
				results, err := op.run(context.Background(), client, pub.OID, "index.html")
				if err != nil {
					t.Fatal(err)
				}
				if results[0].ReplicaAddr != "paris:"+deploy.ObjectService {
					t.Fatalf("expected local replica first, got %q", results[0].ReplicaAddr)
				}

				w.Servers[netsim.Paris].Close()
				results, err = op.run(context.Background(), client, pub.OID, "index.html")
				if err != nil {
					t.Fatalf("fetch after local replica crash: %v", err)
				}
				for _, res := range results {
					if res.ReplicaAddr != netsim.AmsterdamPrimary+":"+deploy.ObjectService {
						t.Errorf("%s: ReplicaAddr = %q, want amsterdam fallback", res.Element.Name, res.ReplicaAddr)
					}
				}
				if n := tel.Failovers.Value(); n != 1 {
					t.Errorf("failovers_total = %d, want 1 (the crashed replica)", n)
				}
			})
		}
	}
}

func TestInfrastructureOutageIsDoSOnly(t *testing.T) {
	// Severing the Ithaca client's link to the primary host cuts both
	// the replica AND the (untrusted) location service. The paper's
	// guarantee is that infrastructure failure or malice is at most
	// denial of service: the fetch fails cleanly, and recovers when the
	// link does — no stale or forged data is ever accepted.
	w, pub, client := world(t, netsim.Ithaca)
	w.Net.SetLinkDown(netsim.Ithaca, netsim.AmsterdamPrimary)
	if _, err := client.Fetch(context.Background(), pub.OID, "index.html"); err == nil {
		t.Fatal("fetch succeeded across a severed link")
	}
	w.Net.SetLinkUp(netsim.Ithaca, netsim.AmsterdamPrimary)
	if _, err := client.Fetch(context.Background(), pub.OID, "index.html"); err != nil {
		t.Fatalf("fetch after link recovery: %v", err)
	}
}

func TestMultipleAlgorithmsInterop(t *testing.T) {
	// Ed25519-keyed object served to a client — exercise the non-default
	// object key algorithm through the whole pipeline.
	w, err := deploy.NewWorld(deploy.Options{TimeScale: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv", nil, nil, server.Limits{}); err != nil {
		t.Fatal(err)
	}
	doc := document.New()
	doc.Put(document.Element{Name: "a", Data: []byte("ed25519 object")})
	pub, err := w.Publish(doc, deploy.PublishOptions{Name: "ed.nl", KeyAlgorithm: keys.Ed25519, OwnerKey: keytest.Ed()})
	if err != nil {
		t.Fatal(err)
	}
	client := w.NewSecureClient(netsim.Ithaca)
	t.Cleanup(client.Close)
	if _, err := client.Fetch(context.Background(), pub.OID, "a"); err != nil {
		t.Fatalf("Fetch: %v", err)
	}
}
