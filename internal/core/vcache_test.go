package core_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
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
	"globedoc/internal/vcache"
)

// testClock is a mutable injectable clock shared by the publication and
// the client under test.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// vcacheWorld stands up a one-server world with a document published at
// a fixed clock and TTL, plus a caching client wired to a fresh
// Telemetry and a fresh vcache.Cache.
func vcacheWorld(t testing.TB, ttl time.Duration) (*deploy.World, *deploy.Publication, *core.Client, *vcache.Cache, *telemetry.Telemetry, *testClock) {
	t.Helper()
	clk := &testClock{now: time.Date(2005, 4, 4, 12, 0, 0, 0, time.UTC)}
	w, err := deploy.NewWorld(deploy.Options{TimeScale: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv-ams", nil, nil, server.Limits{}); err != nil {
		t.Fatal(err)
	}
	doc := document.New()
	doc.Put(document.Element{Name: "index.html", ContentType: "text/html", Data: []byte("<html>cached home</html>")})
	doc.Put(document.Element{Name: "logo.png", ContentType: "image/png", Data: []byte{0x89, 0x50, 0x4e, 0x47}})
	pub, err := w.Publish(doc, deploy.PublishOptions{
		Name:     "home.vu.nl",
		Subject:  "Vrije Universiteit Amsterdam",
		OwnerKey: keytest.RSA(),
		TTL:      ttl,
		Clock:    clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(nil)
	vc := vcache.New(vcache.Config{})
	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{
		CacheBindings: true,
		VCache:        vc,
		Now:           clk.Now,
		Telemetry:     tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	return w, pub, client, vc, tel, clk
}

func elementHash(t *testing.T, pub *deploy.Publication, name string) [globeid.Size]byte {
	t.Helper()
	entry, err := pub.Cert.Lookup(name)
	if err != nil {
		t.Fatalf("Lookup(%q): %v", name, err)
	}
	return entry.Hash
}

func TestVCacheHitSkipsElementTransfer(t *testing.T) {
	w, pub, client, _, tel, _ := vcacheWorld(t, time.Hour)
	ctx := context.Background()

	first, err := client.Fetch(ctx, pub.OID, "index.html")
	if err != nil {
		t.Fatal(err)
	}
	if first.FromCache {
		t.Fatal("cold fetch reported FromCache")
	}
	served := w.Servers[netsim.AmsterdamPrimary].ReadCount(pub.OID)

	second, err := client.Fetch(ctx, pub.OID, "index.html")
	if err != nil {
		t.Fatal(err)
	}
	if !second.FromCache {
		t.Fatal("warm fetch not served from the verified-content cache")
	}
	if string(second.Element.Data) != string(first.Element.Data) {
		t.Fatalf("cached bytes %q != fetched bytes %q", second.Element.Data, first.Element.Data)
	}
	if second.Element.ContentType != "text/html" {
		t.Fatalf("cached ContentType = %q", second.Element.ContentType)
	}
	if got := w.Servers[netsim.AmsterdamPrimary].ReadCount(pub.OID); got != served {
		t.Fatalf("cache hit still moved element bytes: server served %d -> %d", served, got)
	}
	if second.Timing.ElementFetch != 0 {
		t.Fatalf("cache hit recorded element transfer time %v", second.Timing.ElementFetch)
	}
	if tel.VCacheHits.Value() != 1 || tel.VCacheMisses.Value() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", tel.VCacheHits.Value(), tel.VCacheMisses.Value())
	}
}

// TestMissResultIsTheCallersToMutate: a miss hands the caller the frame
// buffer its bytes arrived in, and the cache keeps a copy of its own
// (vcache.Put copies in) — so scribbling over the result, to the end of
// its capacity, does not change what a later hit serves.
func TestMissResultIsTheCallersToMutate(t *testing.T) {
	_, pub, client, _, _, _ := vcacheWorld(t, time.Hour)
	ctx := context.Background()
	miss, err := client.Fetch(ctx, pub.OID, "index.html")
	if err != nil || miss.FromCache {
		t.Fatalf("first fetch: FromCache=%v err=%v", miss.FromCache, err)
	}
	want := string(miss.Element.Data)
	data := miss.Element.Data[:cap(miss.Element.Data)]
	for i := range data {
		data[i] = 0xFF
	}
	hit, err := client.Fetch(ctx, pub.OID, "index.html")
	if err != nil || !hit.FromCache {
		t.Fatalf("second fetch: FromCache=%v err=%v", hit.FromCache, err)
	}
	if string(hit.Element.Data) != want {
		t.Fatalf("cache hit serves %q after the miss result was scribbled over, want %q", hit.Element.Data, want)
	}
}

// TestVerifiedHashIsTheOneHashPerElement: every FetchResult carries the
// certificate-listed SHA-1 of its bytes — on a miss, a hit and a batch-
// prefetched FetchAll element alike — and computing it cost exactly one
// authenticity check per element that moved, none per hit.
func TestVerifiedHashIsTheOneHashPerElement(t *testing.T) {
	w, pub, client, _, tel, clk := vcacheWorld(t, time.Hour)
	ctx := context.Background()
	authChecks := func(tel *telemetry.Telemetry) (n int) {
		for _, rec := range tel.Ring.Spans() {
			if rec.Name == core.StepVerifyAuthenticity {
				n++
			}
		}
		return n
	}
	check := func(what string, res core.FetchResult) {
		t.Helper()
		if res.VerifiedHash != globeid.HashElement(res.Element.Data) || res.VerifiedHash != elementHash(t, pub, res.Element.Name) {
			t.Errorf("%s: VerifiedHash %x is not the certificate's SHA-1 of the body", what, res.VerifiedHash)
		}
	}
	miss, err := client.Fetch(ctx, pub.OID, "index.html")
	if err != nil {
		t.Fatal(err)
	}
	check("miss", miss)
	if got := authChecks(tel); got != 1 {
		t.Errorf("a miss ran %d authenticity checks, want 1", got)
	}
	hit, err := client.Fetch(ctx, pub.OID, "index.html")
	if err != nil || !hit.FromCache {
		t.Fatalf("second fetch: FromCache=%v err=%v", hit.FromCache, err)
	}
	check("hit", hit)
	if got := authChecks(tel); got != 1 {
		t.Errorf("a hit hashed the body again: %d authenticity checks, want still 1", got)
	}

	allTel := telemetry.New(nil)
	all, err := w.NewSecureClientOpts(netsim.Paris, core.Options{Now: clk.Now, Telemetry: allTel})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(all.Close)
	results, err := all.FetchAll(ctx, pub.OID)
	if err != nil || len(results) != 2 {
		t.Fatalf("FetchAll: %d results, %v", len(results), err)
	}
	if allTel.BatchElements.Value() != 2 {
		t.Fatalf("FetchAll batched %d elements, want both", allTel.BatchElements.Value())
	}
	for _, res := range results {
		check("prefetched "+res.Element.Name, res)
	}
	if got := authChecks(allTel); got != len(results) {
		t.Errorf("FetchAll ran %d authenticity checks for %d elements", got, len(results))
	}
}

func TestVCacheSignatureMemoized(t *testing.T) {
	_, pub, client, _, tel, _ := vcacheWorld(t, time.Hour)
	ctx := context.Background()

	if _, err := client.Fetch(ctx, pub.OID, "index.html"); err != nil {
		t.Fatal(err)
	}
	// A second cold pipeline re-verifies the same certificate signature;
	// the memoizer serves the verdict without re-running the crypto.
	client.Close()
	if _, err := client.Fetch(ctx, pub.OID, "index.html"); err != nil {
		t.Fatal(err)
	}
	if tel.SigCacheHits.Value() != 1 {
		t.Fatalf("signature cache hits = %d, want 1", tel.SigCacheHits.Value())
	}
}

func TestVCacheRevalidationFetchesCertOnly(t *testing.T) {
	w, pub, client, _, tel, clk := vcacheWorld(t, time.Minute)
	ctx := context.Background()

	first, err := client.Fetch(ctx, pub.OID, "index.html")
	if err != nil {
		t.Fatal(err)
	}

	// The validity interval lapses; the owner re-issues the certificate
	// over the unchanged document.
	clk.Advance(2 * time.Minute)
	if err := w.Reissue(pub, time.Hour, clk.Now()); err != nil {
		t.Fatal(err)
	}
	served := w.Servers[netsim.AmsterdamPrimary].ReadCount(pub.OID)

	second, err := client.Fetch(ctx, pub.OID, "index.html")
	if err != nil {
		t.Fatalf("revalidating fetch: %v", err)
	}
	if !second.FromCache {
		t.Fatal("revalidated fetch re-transferred the element")
	}
	if string(second.Element.Data) != string(first.Element.Data) {
		t.Fatalf("revalidated bytes %q != original %q", second.Element.Data, first.Element.Data)
	}
	if got := w.Servers[netsim.AmsterdamPrimary].ReadCount(pub.OID); got != served {
		t.Fatalf("revalidation moved element bytes: server served %d -> %d", served, got)
	}
	if tel.VCacheRevalidations.Value() != 1 {
		t.Fatalf("revalidations = %d, want 1", tel.VCacheRevalidations.Value())
	}
}

func TestVCacheStaleColdCertIsFreshnessFailure(t *testing.T) {
	_, pub, client, _, tel, clk := vcacheWorld(t, time.Minute)
	ctx := context.Background()

	if _, err := client.Fetch(ctx, pub.OID, "index.html"); err != nil {
		t.Fatal(err)
	}
	// The interval lapses but the owner never re-issues: every replica
	// can only replay the stale certificate. The revalidating fetch must
	// fail as a freshness security failure — cached bytes notwithstanding.
	clk.Advance(2 * time.Minute)
	_, err := client.Fetch(ctx, pub.OID, "index.html")
	if !errors.Is(err, core.ErrSecurityCheckFailed) {
		t.Fatalf("err = %v, want ErrSecurityCheckFailed", err)
	}
	if !errors.Is(err, cert.ErrFreshness) {
		t.Fatalf("err = %v, want ErrFreshness cause", err)
	}
	if got := tel.SecurityCheckFailures.With("freshness").Value(); got == 0 {
		t.Fatal("no security_check_failures_total{phase=\"freshness\"} recorded")
	}
}

func TestVCacheLosesToRevocation(t *testing.T) {
	w, pub, client, vc, _, clk := vcacheWorld(t, time.Hour)
	ctx := context.Background()

	first, err := client.Fetch(ctx, pub.OID, "index.html")
	if err != nil {
		t.Fatal(err)
	}
	oldHash := elementHash(t, pub, "index.html")
	if !vc.Contains(oldHash) {
		t.Fatal("fetched element not cached")
	}

	// The owner replaces the element and re-issues: the old bytes are
	// revoked even though their interval had not lapsed.
	pub.Doc.Put(document.Element{Name: "index.html", ContentType: "text/html", Data: []byte("<html>v2</html>")})
	if err := w.Reissue(pub, time.Hour, clk.Now()); err != nil {
		t.Fatal(err)
	}
	client.Close()

	second, err := client.Fetch(ctx, pub.OID, "index.html")
	if err != nil {
		t.Fatal(err)
	}
	if second.FromCache {
		t.Fatal("revoked bytes served from cache after certificate refresh")
	}
	if string(second.Element.Data) != "<html>v2</html>" {
		t.Fatalf("got %q, want the re-issued content", second.Element.Data)
	}
	if string(second.Element.Data) == string(first.Element.Data) {
		t.Fatal("still serving superseded content")
	}
	if vc.Contains(oldHash) {
		t.Fatal("superseded hash survived certificate reconciliation")
	}
}

func TestBindingCacheLRUBound(t *testing.T) {
	w, err := deploy.NewWorld(deploy.Options{TimeScale: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv", nil, nil, server.Limits{}); err != nil {
		t.Fatal(err)
	}
	var pubs []*deploy.Publication
	for i := 0; i < 3; i++ {
		doc := document.New()
		doc.Put(document.Element{Name: "a.html", Data: []byte{byte('a' + i)}})
		pub, err := w.Publish(doc, deploy.PublishOptions{KeyAlgorithm: keys.Ed25519})
		if err != nil {
			t.Fatal(err)
		}
		pubs = append(pubs, pub)
	}
	tel := telemetry.New(nil)
	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{
		CacheBindings: true,
		MaxBindings:   2,
		Telemetry:     tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	ctx := context.Background()

	for _, pub := range pubs {
		if _, err := client.Fetch(ctx, pub.OID, "a.html"); err != nil {
			t.Fatal(err)
		}
	}
	if got := tel.BindingCacheEntries.Value(); got != 2 {
		t.Fatalf("binding_cache_entries = %d, want the bound 2", got)
	}
	// The first OID was least recently used and must have been evicted.
	res, err := client.Fetch(ctx, pubs[0].OID, "a.html")
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmBinding {
		t.Fatal("evicted binding still reported warm")
	}
	// The most recent OID stayed warm.
	res, err = client.Fetch(ctx, pubs[2].OID, "a.html")
	if err != nil {
		t.Fatal(err)
	}
	if !res.WarmBinding {
		t.Fatal("recently used binding was evicted")
	}
}

// TestBindingEvictOnFailover is the regression test for the
// failover/invalidation contract: when the replica behind a warm binding
// dies, the binding leaves the cache (gauge included) and every content
// entry it vouched for is invalidated.
func TestBindingEvictOnFailover(t *testing.T) {
	w, pub, client, vc, tel, _ := vcacheWorld(t, time.Hour)
	ctx := context.Background()

	if _, err := client.Fetch(ctx, pub.OID, "index.html"); err != nil {
		t.Fatal(err)
	}
	if got := tel.BindingCacheEntries.Value(); got != 1 {
		t.Fatalf("binding_cache_entries = %d, want 1", got)
	}
	hash := elementHash(t, pub, "index.html")
	if !vc.Contains(hash) {
		t.Fatal("element not cached before failover")
	}

	// The only replica dies mid-session. A hit on already-verified bytes
	// would not need the replica, so fetch an uncached element: the warm
	// element fetch fails, the binding is dropped, and the failover
	// re-bind finds no live candidate.
	w.Servers[netsim.AmsterdamPrimary].Close()
	if _, err := client.Fetch(ctx, pub.OID, "logo.png"); err == nil {
		t.Fatal("fetch succeeded with the only replica down")
	}
	if got := tel.BindingCacheEntries.Value(); got != 0 {
		t.Fatalf("binding_cache_entries = %d after failover, want 0", got)
	}
	if vc.Contains(hash) {
		t.Fatal("content vouched for by the failed binding survived invalidation")
	}
}

// TestOneRejectionPhasePerCause: a certificate that is no longer fresh is
// rejected the same way by every fetch plan — Fetch or FetchAll, content
// cache on or off, replayed to a cold binding or lapsed under a warm one
// with no re-issue to refresh to: at phase "freshness", counted once,
// decided before any element byte moves.
func TestOneRejectionPhasePerCause(t *testing.T) {
	for _, withVCache := range []bool{true, false} {
		for _, op := range fetchOps {
			for _, warm := range []bool{false, true} {
				name := fmt.Sprintf("vcache=%v/%s/stale-cold", withVCache, op.name)
				if warm {
					name = fmt.Sprintf("vcache=%v/%s/lapsed-warm", withVCache, op.name)
				}
				t.Run(name, func(t *testing.T) {
					clk := &testClock{now: time.Date(2005, 4, 4, 12, 0, 0, 0, time.UTC)}
					w, err := deploy.NewWorld(deploy.Options{TimeScale: 0})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(w.Close)
					if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv", nil, nil, server.Limits{}); err != nil {
						t.Fatal(err)
					}
					doc := document.New()
					doc.Put(document.Element{Name: "index.html", Data: []byte("<html>short-lived</html>")})
					doc.Put(document.Element{Name: "logo.png", Data: []byte{0x89, 0x50, 0x4e, 0x47}})
					pub, err := w.Publish(doc, deploy.PublishOptions{Name: "stale.vu.nl", OwnerKey: keytest.RSA(), TTL: time.Minute, Clock: clk.Now})
					if err != nil {
						t.Fatal(err)
					}
					tel := telemetry.New(nil)
					opts := core.Options{CacheBindings: true, Now: clk.Now, Telemetry: tel}
					if withVCache {
						opts.VCache = vcache.New(vcache.Config{})
					}
					client, err := w.NewSecureClientOpts(netsim.Paris, opts)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(client.Close)
					ctx := context.Background()
					if warm {
						if _, err := op.run(ctx, client, pub.OID, "index.html"); err != nil {
							t.Fatal(err)
						}
					}
					clk.Advance(2 * time.Minute)

					srv := w.Servers[netsim.AmsterdamPrimary]
					transfers := srv.ReadCount(pub.OID)
					_, err = op.run(ctx, client, pub.OID, "index.html")
					var sec *core.SecurityError
					if !errors.As(err, &sec) || sec.Phase != "freshness" {
						t.Fatalf("err = %v, want a SecurityError at phase \"freshness\"", err)
					}
					if !errors.Is(err, cert.ErrFreshness) {
						t.Errorf("err = %v, want errors.Is cert.ErrFreshness", err)
					}
					if n := tel.SecurityCheckFailures.With("freshness").Value(); n != 1 {
						t.Errorf("security_check_failures_total{phase=\"freshness\"} = %d, want 1", n)
					}
					if got := srv.ReadCount(pub.OID); got != transfers {
						t.Errorf("a stale certificate moved %d element transfers, want 0", got-transfers)
					}
				})
			}
		}
	}
}

// TestCancelledFetchAllIsNotWhole: a FetchAll whose caller has given up
// fails with the cancellation, even when the verified-content cache could
// serve every element without a byte on the wire — and, no replica being
// suspect, the cancellation invalidates nothing.
func TestCancelledFetchAllIsNotWhole(t *testing.T) {
	_, pub, client, vc, _, _ := vcacheWorld(t, time.Hour)
	if _, err := client.FetchAll(context.Background(), pub.OID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := client.FetchAll(ctx, pub.OID)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled FetchAll: %d results, err %v; want context.Canceled", len(results), err)
	}
	if !vc.Contains(elementHash(t, pub, "index.html")) {
		t.Error("a cancellation invalidated the verified-content cache")
	}
}
