package core_test

// Behavioural coverage for FetchAll's batch: a whole-document download
// takes every element in one obj.bind exchange (counted in
// batch_fetch_total), elements already held by the verified-content
// cache are asked for by no exchange, declined elements are asked for
// again together, and the page comes back from one certificate, its
// elements named as that certificate names them.

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"globedoc/internal/core"
	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/netsim"
	"globedoc/internal/object"
	"globedoc/internal/server"
	"globedoc/internal/telemetry"
	"globedoc/internal/vcache"
)

// batchWorld publishes one document with n elements on a single replica
// and returns the world, the publication, and the telemetry sink.
func batchWorld(t *testing.T, n int) (*deploy.World, *deploy.Publication, *telemetry.Telemetry) {
	t.Helper()
	tel := telemetry.New(nil)
	w, err := deploy.NewWorld(deploy.Options{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv", nil, nil, server.Limits{}); err != nil {
		t.Fatal(err)
	}
	doc := document.New()
	for i := 0; i < n; i++ {
		doc.Put(document.Element{
			Name: fmt.Sprintf("part-%02d.html", i),
			Data: []byte(fmt.Sprintf("<p>element %d</p>", i)),
		})
	}
	pub, err := w.Publish(doc, deploy.PublishOptions{
		Name:     "batch.vu.nl",
		OwnerKey: keytest.RSA(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, pub, tel
}

func TestFetchAllUsesOneBatchExchange(t *testing.T) {
	const n = 8
	w, pub, tel := batchWorld(t, n)
	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	results, err := client.FetchAll(context.Background(), pub.OID)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("FetchAll returned %d elements, want %d", len(results), n)
	}
	for i, res := range results {
		want := fmt.Sprintf("<p>element %d</p>", i)
		if string(res.Element.Data) != want {
			t.Fatalf("element %d = %q, want %q (certificate order)", i, res.Element.Data, want)
		}
		if res.Timing.ElementFetch <= 0 {
			t.Errorf("element %d has no ElementFetch time (batch share must be credited)", i)
		}
	}
	if got := tel.BatchFetches.Value(); got != 1 {
		t.Errorf("batch_fetch_total = %d, want 1 (one exchange for the whole document)", got)
	}
	if got := tel.BatchElements.Value(); got != n {
		t.Errorf("batch_fetch_elements_total = %d, want %d", got, n)
	}
}

func TestFetchAllBatchSkipsContentCachedElements(t *testing.T) {
	const n = 5
	w, pub, tel := batchWorld(t, n)
	vc := vcache.New(vcache.Config{})
	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{
		CacheBindings: true,
		VCache:        vc,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	if _, err := client.FetchAll(context.Background(), pub.OID); err != nil {
		t.Fatal(err)
	}
	if got := tel.BatchElements.Value(); got != n {
		t.Fatalf("cold download batched %d elements, want %d", got, n)
	}
	// Second download: every element's bytes are in the verified-content
	// cache, so no batch (nor any element RPC) is needed.
	results, err := client.FetchAll(context.Background(), pub.OID)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if !res.FromCache {
			t.Errorf("element %d not served from the content cache on the warm pass", i)
		}
	}
	if got := tel.BatchElements.Value(); got != n {
		t.Errorf("warm download moved batch elements: batch_fetch_elements_total = %d, want still %d", got, n)
	}
}

// updateParts00And01 is an owner update of two elements at once, re-signed
// and installed on the home replica: a page that mixes the versions is
// torn. It returns the document's bytes after the update by name.
func updateParts00And01(t *testing.T, w *deploy.World, pub *deploy.Publication) map[string][]byte {
	t.Helper()
	for _, name := range []string{"part-00.html", "part-01.html"} {
		if err := pub.Doc.Put(document.Element{Name: name, Data: []byte("<p>" + name + ", updated</p>")}); err != nil {
			t.Error(err)
		}
	}
	if err := w.Reissue(pub, time.Hour, time.Now().Add(-time.Second)); err != nil {
		t.Error(err)
	}
	want := map[string][]byte{}
	for _, name := range pub.Doc.Names() {
		e, err := pub.Doc.Get(name)
		if err != nil {
			t.Error(err)
		}
		want[name] = e.Data
	}
	return want
}

// TestFetchAllIsOneVersion: a warm FetchAll whose exchange declines
// part-00.html while the owner updates part-00.html and part-01.html
// learns of the update from the exchange that asks for part-00.html
// again. The whole page is then decided again under the new certificate,
// so every element comes back from one version — none of the old
// part-01.html beside the new part-00.html — with or without the
// verified-content cache, which holds the old part-01.html.
func TestFetchAllIsOneVersion(t *testing.T) {
	for _, cached := range []bool{true, false} {
		t.Run(fmt.Sprintf("vcache=%v", cached), func(t *testing.T) {
			w, pub, _ := batchWorld(t, 3)
			var armed sync.Once
			var want map[string][]byte
			var live atomic.Bool // the FetchAll under test has begun
			frontReplica(t, w, pub, func(req object.BindRequest, forward func() ([]byte, error)) ([]byte, error) {
				reply, err := forward()
				if live.Load() && req.Have != ([globeid.Size]byte{}) {
					armed.Do(func() { reply = decline(t, reply, "part-00.html"); want = updateParts00And01(t, w, pub) })
				}
				return reply, err
			})
			opts := core.Options{CacheBindings: true, Telemetry: telemetry.New(nil)}
			if cached {
				opts.VCache = vcache.New(vcache.Config{})
			}
			client, err := w.NewSecureClientOpts(netsim.Paris, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(client.Close)
			if _, err := client.Fetch(context.Background(), pub.OID, "part-01.html"); err != nil {
				t.Fatal(err)
			}
			live.Store(true)

			results, err := client.FetchAll(context.Background(), pub.OID)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 3 || want == nil {
				t.Fatalf("FetchAll returned %d elements (update made: %v), want 3 after an update", len(results), want != nil)
			}
			for _, res := range results {
				if !bytes.Equal(res.Element.Data, want[res.Element.Name]) {
					t.Errorf("%s = %q, want %q: the page mixes versions", res.Element.Name, res.Element.Data, want[res.Element.Name])
				}
			}
			noFailures(t, opts.Telemetry)
		})
	}
}

// TestWarmDeclinesAreAskedTogether: a warm FetchAll whose exchange
// declines k of its n elements asks for the k again in one exchange, not
// in one exchange each.
func TestWarmDeclinesAreAskedTogether(t *testing.T) {
	const n, k = 6, 3
	w, pub, _ := batchWorld(t, n)
	var armed sync.Once
	var live atomic.Bool // the FetchAll under test has begun
	frontReplica(t, w, pub, rewriting(func(req object.BindRequest, reply []byte) []byte {
		if live.Load() && req.Have != ([globeid.Size]byte{}) {
			armed.Do(func() {
				for i := 0; i < k; i++ {
					reply = decline(t, reply, fmt.Sprintf("part-%02d.html", i))
				}
			})
		}
		return reply
	}))
	tel := telemetry.New(nil)
	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{CacheBindings: true, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	if _, err := client.Fetch(context.Background(), pub.OID, "part-05.html"); err != nil {
		t.Fatal(err)
	}
	live.Store(true)
	before := replicaRoundTrips(tel)

	results, err := client.FetchAll(context.Background(), pub.OID)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("FetchAll returned %d elements, want %d", len(results), n)
	}
	if got := replicaRoundTrips(tel) - before; got != 2 {
		t.Errorf("obj.bind calls = %d, want 2: the exchange that declined %d elements and one that asks for them together", got, k)
	}
	noFailures(t, tel)
}

// TestFetchAllThroughACacheSmallerThanThePage: a verified-content cache
// too small for the page evicts an element whenever another goes in. The
// plan takes what the cache holds when it decides, so each pass returns
// the page in one exchange with the replica: the cold bind, then one warm
// exchange for what the cache lost.
func TestFetchAllThroughACacheSmallerThanThePage(t *testing.T) {
	const n = 3
	w, pub, _ := batchWorld(t, n)
	tel := telemetry.New(nil)
	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{
		CacheBindings: true,
		VCache:        vcache.New(vcache.Config{MaxBytes: 40}),
		Telemetry:     tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	for pass := 1; pass <= 3; pass++ {
		before := replicaRoundTrips(tel)
		results, err := client.FetchAll(context.Background(), pub.OID)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if len(results) != n {
			t.Fatalf("pass %d returned %d elements, want %d", pass, len(results), n)
		}
		for i, res := range results {
			if want := fmt.Sprintf("<p>element %d</p>", i); string(res.Element.Data) != want {
				t.Errorf("pass %d: element %d = %q, want %q", pass, i, res.Element.Data, want)
			}
		}
		if got := replicaRoundTrips(tel) - before; got != 1 {
			t.Errorf("pass %d: obj.bind calls = %d, want 1", pass, got)
		}
	}
	noFailures(t, tel)
}

// TestElementNamesComeFromTheCertificate: a front that renames the
// elements inside a replica's replies, keeping their bytes, changes
// nothing a hash covers. Fetch and FetchAll name each element as the
// verified certificate lists it.
func TestElementNamesComeFromTheCertificate(t *testing.T) {
	const n = 3
	w, pub, _ := batchWorld(t, n)
	frontReplica(t, w, pub, rewriting(func(_ object.BindRequest, reply []byte) []byte {
		r, err := object.DecodeBindReply(reply)
		if err != nil {
			t.Error(err)
			return reply
		}
		items := make([]object.BatchWireItem, len(r.Items))
		for i, it := range r.Items {
			renamed := it.Element
			renamed.Name = "evil-" + it.Name
			items[i] = object.BatchWireItem{Name: it.Name, Wire: object.EncodeElement(renamed)}
		}
		return object.EncodeBindReply(r.Key, r.NameCerts, r.Cert, items)
	}))
	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	res, err := client.Fetch(context.Background(), pub.OID, "part-00.html")
	if err != nil {
		t.Fatal(err)
	}
	if res.Element.Name != "part-00.html" {
		t.Errorf("Fetch named the element %q, want part-00.html", res.Element.Name)
	}
	results, err := client.FetchAll(context.Background(), pub.OID)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if want := fmt.Sprintf("part-%02d.html", i); res.Element.Name != want {
			t.Errorf("FetchAll named element %d %q, want %q", i, res.Element.Name, want)
		}
	}
}
