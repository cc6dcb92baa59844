package core_test

// Coverage for a lapse — a warm binding's certificate passing the end of
// its validity interval, as every warm client's does once per TTL while
// the owner re-signs (paper §3.2.2). The refresh exchange names the hash
// each cached element's bytes are held under, so the replica carries
// exactly the elements that changed, and a new version reaches the
// reader in one exchange.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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
	"globedoc/internal/vcache"
)

// lapseTTL is the validity interval lapse tests publish under.
const lapseTTL = time.Minute

// lapseWorld publishes n elements part-00.html … under lapseTTL on one
// Amsterdam replica, at a clock the test moves, and returns a Paris client
// with binding and content caches reading that clock. front, when set,
// stands before the replica (frontReplica) before the client binds.
func lapseWorld(t *testing.T, n int, front func(object.BindRequest, func() ([]byte, error)) ([]byte, error)) (*deploy.World, *deploy.Publication, *core.Client, *telemetry.Telemetry, *testClock) {
	t.Helper()
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
	for i := 0; i < n; i++ {
		doc.Put(document.Element{Name: fmt.Sprintf("part-%02d.html", i), Data: []byte(fmt.Sprintf("<p>element %d</p>", i))})
	}
	pub, err := w.Publish(doc, deploy.PublishOptions{Name: "lapse.vu.nl", OwnerKey: keytest.Ed(), TTL: lapseTTL, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	if front != nil {
		frontReplica(t, w, pub, front)
	}
	tel := telemetry.New(nil)
	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{CacheBindings: true, VCache: vcache.New(vcache.Config{}), Now: clk.Now, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	return w, pub, client, tel, clk
}

// lapseAndUpdate lets the certificate lapse, then has the owner change
// the named elements and re-sign. It returns the new bytes by name.
func lapseAndUpdate(t *testing.T, w *deploy.World, pub *deploy.Publication, clk *testClock, round int, names ...string) map[string][]byte {
	t.Helper()
	clk.Advance(2 * lapseTTL)
	updated := make(map[string][]byte, len(names))
	for _, name := range names {
		data := []byte(fmt.Sprintf("<p>%s, round %d</p>", name, round))
		if err := pub.Doc.Put(document.Element{Name: name, Data: data}); err != nil {
			t.Fatal(err)
		}
		updated[name] = data
	}
	if err := w.Reissue(pub, lapseTTL, clk.Now()); err != nil {
		t.Fatal(err)
	}
	return updated
}

// TestLapseIsOneExchange: 1,000 lapses, each with an owner update and a
// Fetch of the changed element, take one obj.bind each after the cold
// one: the refresh names the bytes it holds, so the replica that moved on
// carries the new ones beside its certificate. Each refresh from Paris
// charges one round trip of virtual latency.
func TestLapseIsOneExchange(t *testing.T) {
	const lapses = 1000
	w, pub, client, tel, clk := lapseWorld(t, 2, nil)
	ctx := context.Background()
	if _, err := client.Fetch(ctx, pub.OID, "part-00.html"); err != nil {
		t.Fatal(err)
	}
	rtt := 2 * w.Net.Link(netsim.Paris, netsim.AmsterdamPrimary).Latency
	var charged time.Duration
	for i := 0; i < lapses; i++ {
		want := lapseAndUpdate(t, w, pub, clk, i, "part-00.html")["part-00.html"]
		before := w.Net.Charged()
		res, err := client.Fetch(ctx, pub.OID, "part-00.html")
		if err != nil {
			t.Fatalf("lapse %d: %v", i, err)
		}
		if !bytes.Equal(res.Element.Data, want) || res.FromCache || !res.WarmBinding {
			t.Fatalf("lapse %d: Data %q (from cache %v, warm %v), want the updated %q over the warm binding", i, res.Element.Data, res.FromCache, res.WarmBinding, want)
		}
		charged += w.Net.Charged().Sub(before).Latency
	}
	if got := replicaRoundTrips(tel); got > lapses+1 {
		t.Errorf("%d lapses took %d obj.bind exchanges, want at most %d", lapses, got, lapses+1)
	}
	if charged != lapses*rtt {
		t.Errorf("%d lapses charged %v of virtual latency from Paris, want one round trip (%v) each", lapses, charged, rtt)
	}
	noFailures(t, tel)
}

// TestLapsedFetchAllCarriesWhatChanged: a warm FetchAll after a lapse
// that changed k of n elements takes one exchange, which carries exactly
// those k; the other n-k come from the content cache, counted as
// revalidated, and the replica serves none of them.
func TestLapsedFetchAllCarriesWhatChanged(t *testing.T) {
	const n = 8
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			w, pub, client, tel, clk := lapseWorld(t, n, nil)
			ctx := context.Background()
			if _, err := client.FetchAll(ctx, pub.OID); err != nil {
				t.Fatal(err)
			}
			changed := make([]string, k)
			for i := range changed {
				changed[i] = fmt.Sprintf("part-%02d.html", 2*i+1)
			}
			updated := lapseAndUpdate(t, w, pub, clk, 1, changed...)
			srv := w.Servers[netsim.AmsterdamPrimary]
			reads, exchanges := srv.ReadCount(pub.OID), replicaRoundTrips(tel)

			results, err := client.FetchAll(ctx, pub.OID)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != n {
				t.Fatalf("FetchAll returned %d elements, want %d", len(results), n)
			}
			for _, res := range results {
				want, isChanged := updated[res.Element.Name]
				if isChanged && (!bytes.Equal(res.Element.Data, want) || res.FromCache) {
					t.Errorf("%s = %q (from cache %v), want the updated %q carried", res.Element.Name, res.Element.Data, res.FromCache, want)
				}
				if !isChanged && !res.FromCache {
					t.Errorf("%s was carried, but it did not change", res.Element.Name)
				}
			}
			if got := replicaRoundTrips(tel) - exchanges; got != 1 {
				t.Errorf("FetchAll after the lapse took %d exchanges, want 1", got)
			}
			if got := srv.ReadCount(pub.OID) - reads; got != uint64(k) {
				t.Errorf("the replica served %d elements, want the %d that changed", got, k)
			}
			if got := tel.VCacheRevalidations.Value(); got != n-uint64(k) {
				t.Errorf("vcache_revalidations_total = %d, want %d", got, n-k)
			}
			noFailures(t, tel)
		})
	}
}

// TestLapseWithNothingNewerMovesNoBytes: a refresh that names the bytes
// it holds, put to a replica whose owner never re-signed, is answered
// held, element by element: no element byte moves, and the fetch fails at
// phase "freshness".
func TestLapseWithNothingNewerMovesNoBytes(t *testing.T) {
	var held int
	w, pub, client, tel, clk := lapseWorld(t, 3, rewriting(func(req object.BindRequest, reply []byte) []byte {
		if req.Held != nil {
			r, err := object.DecodeBindReply(reply)
			if err != nil {
				t.Error(err)
			}
			for _, it := range r.Items {
				if it.Held {
					held++
				}
			}
		}
		return reply
	}))
	ctx := context.Background()
	if _, err := client.FetchAll(ctx, pub.OID); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * lapseTTL)
	srv := w.Servers[netsim.AmsterdamPrimary]
	reads := srv.ReadCount(pub.OID)
	_, err := client.FetchAll(ctx, pub.OID)
	var sec *core.SecurityError
	if !errors.As(err, &sec) || sec.Phase != "freshness" {
		t.Fatalf("err = %v, want a SecurityError at phase \"freshness\"", err)
	}
	if got := srv.ReadCount(pub.OID); got != reads {
		t.Errorf("a lapse with nothing newer moved %d elements, want 0", got-reads)
	}
	if held != 3 {
		t.Errorf("the refresh was answered held for %d elements, want 3", held)
	}
	if got := tel.VCacheRevalidations.Value(); got != 0 {
		t.Errorf("vcache_revalidations_total = %d, want 0: nothing was refreshed", got)
	}
}

// TestLapseHeldLieAtMostDoS: a replica that moves on but answers held for
// the element that changed costs exactly one more exchange, and the
// fetch still ends with the new verified bytes; one that carries forged
// bytes beside its certificate is failed over at phase "element".
func TestLapseHeldLieAtMostDoS(t *testing.T) {
	t.Run("held-for-changed", func(t *testing.T) {
		w, pub, client, tel, clk := lapseWorld(t, 2, rewriting(func(req object.BindRequest, reply []byte) []byte {
			if req.Held == nil {
				return reply
			}
			return rewriteItems(t, reply, func(it object.BatchItem) object.BatchWireItem {
				return object.BatchWireItem{Name: it.Name, Held: true}
			})
		}))
		ctx := context.Background()
		if _, err := client.Fetch(ctx, pub.OID, "part-00.html"); err != nil {
			t.Fatal(err)
		}
		want := lapseAndUpdate(t, w, pub, clk, 1, "part-00.html")["part-00.html"]
		exchanges := replicaRoundTrips(tel)
		res, err := client.Fetch(ctx, pub.OID, "part-00.html")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Element.Data, want) {
			t.Errorf("Data = %q, want the updated %q", res.Element.Data, want)
		}
		if got := replicaRoundTrips(tel) - exchanges; got != 2 {
			t.Errorf("the lie cost %d exchanges, want 2: the refresh and one more", got)
		}
		noFailures(t, tel)
	})
	t.Run("forged-carry", func(t *testing.T) {
		w, pub, client, tel, clk := lapseWorld(t, 2, rewriting(func(req object.BindRequest, reply []byte) []byte {
			if req.Held == nil {
				return reply
			}
			return rewriteItems(t, reply, func(it object.BatchItem) object.BatchWireItem {
				if it.Held || it.Err != nil {
					return object.BatchWireItem{Name: it.Name, Held: it.Held, ErrMsg: "declined"}
				}
				forged := it.Element
				forged.Data = append([]byte("forged "), forged.Data...)
				return object.BatchWireItem{Name: it.Name, Wire: object.EncodeElement(forged)}
			})
		}))
		ctx := context.Background()
		if _, err := client.Fetch(ctx, pub.OID, "part-00.html"); err != nil {
			t.Fatal(err)
		}
		lapseAndUpdate(t, w, pub, clk, 1, "part-00.html")
		_, err := client.Fetch(ctx, pub.OID, "part-00.html")
		var sec *core.SecurityError
		if !errors.As(err, &sec) || sec.Phase != "element" || !errors.Is(err, cert.ErrAuthenticity) {
			t.Fatalf("err = %v, want a SecurityError at phase \"element\" for the forged bytes", err)
		}
		if tel.Failovers.Value() == 0 {
			t.Error("the forging replica was not failed over from")
		}
	})
}

// TestElementsRefreshesALapsedCertificate: a warm Elements after a lapse
// returns the table of contents of the certificate the owner re-signed —
// with the element it added — in one exchange naming no element; with
// nothing newer to refresh to, it fails at phase "freshness" and
// invalidates the object's cached content, as Fetch does.
func TestElementsRefreshesALapsedCertificate(t *testing.T) {
	t.Run("re-signed", func(t *testing.T) {
		w, pub, client, tel, clk := lapseWorld(t, 2, nil)
		ctx := context.Background()
		if _, err := client.Elements(ctx, pub.OID); err != nil {
			t.Fatal(err)
		}
		clk.Advance(2 * lapseTTL)
		if err := pub.Doc.Put(document.Element{Name: "part-02.html", Data: []byte("<p>added</p>")}); err != nil {
			t.Fatal(err)
		}
		if err := w.Reissue(pub, lapseTTL, clk.Now()); err != nil {
			t.Fatal(err)
		}
		exchanges := replicaRoundTrips(tel)
		entries, err := client.Elements(ctx, pub.OID)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 3 || entries[2].Name != "part-02.html" {
			t.Fatalf("Elements = %v, want the 3 entries of the re-signed certificate", entryNames(entries))
		}
		for _, e := range entries {
			if err := e.CheckFreshness(clk.Now()); err != nil {
				t.Errorf("entry %s: %v", e.Name, err)
			}
		}
		if got := replicaRoundTrips(tel) - exchanges; got != 1 {
			t.Errorf("Elements after a lapse took %d exchanges, want 1", got)
		}
		noFailures(t, tel)
	})
	t.Run("nothing-newer", func(t *testing.T) {
		_, pub, client, tel, clk := lapseWorld(t, 2, nil)
		ctx := context.Background()
		res, err := client.Fetch(ctx, pub.OID, "part-00.html")
		if err != nil {
			t.Fatal(err)
		}
		clk.Advance(2 * lapseTTL)
		entries, err := client.Elements(ctx, pub.OID)
		var sec *core.SecurityError
		if !errors.As(err, &sec) || sec.Phase != "freshness" || !errors.Is(err, cert.ErrFreshness) {
			t.Fatalf("Elements = %v, %v; want a SecurityError at phase \"freshness\"", entryNames(entries), err)
		}
		if got := tel.SecurityCheckFailures.With("freshness").Value(); got != 1 {
			t.Errorf(`security_check_failures_total{phase="freshness"} = %d, want 1`, got)
		}
		clk.Advance(-2 * lapseTTL)
		again, err := client.Fetch(ctx, pub.OID, "part-00.html")
		if err != nil {
			t.Fatal(err)
		}
		if again.FromCache || !bytes.Equal(again.Element.Data, res.Element.Data) {
			t.Errorf("after the failed refresh the element came from the cache (%v): its content was not invalidated", again.FromCache)
		}
	})
}

// entryNames lists the entries' names.
func entryNames(entries []cert.ElementEntry) []string {
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	return names
}
