package core_test

// Behavioural coverage for FetchAll's batch: a whole-document download
// takes every element in one obj.bind exchange (counted in
// batch_fetch_total), the DisableBatchFetch ablation takes one exchange
// per element, and elements already held by the verified-content cache
// are asked for by no exchange.

import (
	"context"
	"fmt"
	"testing"

	"globedoc/internal/core"
	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/netsim"
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
