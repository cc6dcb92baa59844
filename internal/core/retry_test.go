package core_test

// Regression coverage for the warm-binding certificate-refresh path: the
// refresh now runs through transport.RetryPolicy instead of one-off
// recursion, so a cached certificate that is stale AND whose refreshed
// replacement is also stale must fail cleanly and promptly — bounded
// attempts, no hang, no unbounded recursion.

import (
	"context"
	"errors"
	"testing"
	"time"

	"globedoc/internal/cert"
	"globedoc/internal/core"
	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/netsim"
	"globedoc/internal/object"
	"globedoc/internal/server"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// staleWorld publishes a one-minute-TTL document, warms a binding and
// moves the client clock past expiry WITHOUT reissuing — so the cached
// certificate is stale and every refreshed copy the server can offer is
// equally stale. retry is the world's transport retry policy, which the
// client's binder carries and its certificate refresh follows.
func staleWorld(t *testing.T, retry *transport.RetryPolicy) (*deploy.World, *core.Client, *telemetry.Telemetry) {
	t.Helper()
	tel := telemetry.New(nil)
	w, err := deploy.NewWorld(deploy.Options{
		TimeScale: 0,
		Telemetry: tel,
		Client:    transport.Config{Retry: retry},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv", nil, nil, server.Limits{}); err != nil {
		t.Fatal(err)
	}
	doc := document.New()
	doc.Put(document.Element{Name: "a.html", Data: []byte("v1")})
	pub, err := w.Publish(doc, deploy.PublishOptions{Name: "x.nl", TTL: time.Minute, OwnerKey: keytest.RSA()})
	if err != nil {
		t.Fatal(err)
	}
	later := time.Now().Add(10 * time.Minute)
	warmed := false
	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{
		CacheBindings: true,
		Now: func() time.Time {
			if warmed {
				return later
			}
			return time.Now()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	if _, err := client.Fetch(context.Background(), pub.OID, "a.html"); err != nil {
		t.Fatal(err)
	}
	warmed = true
	return w, client, tel
}

// bindsServed counts the obj.bind requests the world's servers answered,
// whatever their outcome: every certificate refetch is one of them.
func bindsServed(tel *telemetry.Telemetry) uint64 {
	return tel.RPCServed.With(object.OpBind, "ok").Value() + tel.RPCServed.With(object.OpBind, "error").Value()
}

func TestDoubleStaleCertificateFailsCleanly(t *testing.T) {
	w, client, tel := staleWorld(t, nil)
	pubOID := w.Servers[netsim.AmsterdamPrimary].Hosted()[0]

	before := bindsServed(tel)
	start := time.Now()
	_, err := client.Fetch(context.Background(), pubOID, "a.html")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("fetch succeeded with a doubly-stale certificate")
	}
	if !errors.Is(err, core.ErrSecurityCheckFailed) {
		t.Errorf("err = %v, want ErrSecurityCheckFailed", err)
	}
	if !errors.Is(err, cert.ErrFreshness) {
		t.Errorf("err = %v, want a freshness failure", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("doubly-stale fetch took %v; must fail promptly", elapsed)
	}
	// The refresh is Permanent-wrapped on security failure, so the
	// policy must not spin: a handful of certificate fetches, not a
	// retry storm.
	after := bindsServed(tel)
	if refetches := after - before; refetches > 3 {
		t.Errorf("server answered %d binds, want <= 3 certificate refetches", refetches)
	}
}

func TestDoubleStaleStopsEvenWithAggressiveRetryPolicy(t *testing.T) {
	// A generous retry budget must not matter: security failures are
	// permanent, so the refresh loop stops after the first refreshed
	// certificate also fails freshness.
	policy := &transport.RetryPolicy{MaxAttempts: 10}
	w, client, tel := staleWorld(t, policy)
	pubOID := w.Servers[netsim.AmsterdamPrimary].Hosted()[0]

	before := bindsServed(tel)
	_, err := client.Fetch(context.Background(), pubOID, "a.html")
	if err == nil {
		t.Fatal("fetch succeeded with a doubly-stale certificate")
	}
	if !errors.Is(err, core.ErrSecurityCheckFailed) {
		t.Errorf("err = %v, want ErrSecurityCheckFailed", err)
	}
	after := bindsServed(tel)
	if refetches := after - before; refetches > 3 {
		t.Errorf("server answered %d binds despite permanent failure, want <= 3 certificate refetches", refetches)
	}
}

func TestWarmRefreshRetriesThroughPolicyOnDeadReplica(t *testing.T) {
	// After the binding is warmed, the replica dies. The refresh, which
	// asks the bound replica first, must fall back to re-binding, exhaust
	// its retry policy against the dead replica and return a transport
	// error — bounded, not hanging.
	policy := &transport.RetryPolicy{MaxAttempts: 3}
	w, client, _ := staleWorld(t, policy)
	pubOID := w.Servers[netsim.AmsterdamPrimary].Hosted()[0]

	// The replica crashes: its connections reset and no dial reaches it.
	w.Servers[netsim.AmsterdamPrimary].Close()
	w.Net.SetHostDown(netsim.AmsterdamPrimary)
	start := time.Now()
	_, err := client.Fetch(context.Background(), pubOID, "a.html")
	if err == nil {
		t.Fatal("fetch succeeded against a dead replica")
	}
	if errors.Is(err, core.ErrSecurityCheckFailed) {
		t.Errorf("dead replica misreported as security failure: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("dead-replica fetch took %v; must fail promptly", elapsed)
	}
}
