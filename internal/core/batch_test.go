package core_test

// Behavioural coverage for FetchAll's batched element prefetch: a
// whole-document download against a batch-capable replica issues exactly
// one GetElements exchange (counted in batch_fetch_total), the
// DisableBatchFetch ablation restores per-element RPCs, and elements
// already held by the verified-content cache are excluded from the batch.

import (
	"context"
	"fmt"
	"testing"

	"globedoc/internal/core"
	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/location"
	"globedoc/internal/netsim"
	"globedoc/internal/object"
	"globedoc/internal/server"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
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

// TestPreBatchReplicaIsAskedOnce: a replica that predates obj.getelements
// refuses the batch as an unknown operation, and FetchAll falls back to
// per-element fetches. On one warm binding the refusal is asked for once,
// not once per FetchAll.
func TestPreBatchReplicaIsAskedOnce(t *testing.T) {
	const n = 4
	w, pub, tel := batchWorld(t, n)

	// The old replica: a transport server that forwards every object
	// operation except obj.getelements to the real one, which stops being
	// advertised. The forwarding client counts into its own registry.
	fwd := transport.NewClient(w.Net.Dialer(netsim.AmsterdamPrimary, w.Addrs[netsim.AmsterdamPrimary])).
		Configure(transport.Config{Telemetry: telemetry.New(nil)})
	t.Cleanup(fwd.Close)
	old := transport.NewServer()
	old.Telemetry = telemetry.New(nil)
	for _, op := range []string{object.OpGetKey, object.OpGetCert, object.OpGetNameCerts, object.OpGetElement,
		object.OpListElements, object.OpVersion, object.OpPing, object.OpGetBundle} {
		old.HandleCtx(op, func(ctx context.Context, body []byte) ([]byte, error) { return fwd.Call(ctx, op, body) })
	}
	l, err := w.Net.Listen(netsim.AmsterdamPrimary, "oldsrv")
	if err != nil {
		t.Fatal(err)
	}
	old.Start(l)
	t.Cleanup(old.Close)
	current := location.ContactAddress{Address: w.Addrs[netsim.AmsterdamPrimary], Protocol: object.Protocol}
	if err := w.LocationTree.Delete(netsim.AmsterdamPrimary, pub.OID, current); err != nil {
		t.Fatal(err)
	}
	oldAddr := location.ContactAddress{Address: netsim.AmsterdamPrimary + ":oldsrv", Protocol: object.Protocol}
	if err := w.LocationTree.Insert(netsim.AmsterdamPrimary, pub.OID, oldAddr); err != nil {
		t.Fatal(err)
	}

	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{CacheBindings: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	for i := 0; i < 3; i++ {
		results, err := client.FetchAll(context.Background(), pub.OID)
		if err != nil {
			t.Fatalf("FetchAll %d: %v", i, err)
		}
		if len(results) != n {
			t.Fatalf("FetchAll %d: %d elements, want %d", i, len(results), n)
		}
		if got := results[0].ReplicaAddr; got != oldAddr.Address {
			t.Fatalf("FetchAll %d: served by %q, want the old replica", i, got)
		}
	}
	if got := tel.RPCCalls.With(object.OpGetElements, "error").Value(); got != 1 {
		t.Errorf(`rpc_calls_total{op="obj.getelements",outcome="error"} = %d over three FetchAlls, want 1`, got)
	}
	if got := tel.BatchFetches.Value(); got != 0 {
		t.Errorf("batch_fetch_total = %d against a replica without the batch, want 0", got)
	}
}

func TestFetchAllDisableBatchFetchAblation(t *testing.T) {
	const n = 6
	w, pub, tel := batchWorld(t, n)
	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{DisableBatchFetch: true})
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
	if got := tel.BatchFetches.Value(); got != 0 {
		t.Errorf("batch_fetch_total = %d with DisableBatchFetch, want 0", got)
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
