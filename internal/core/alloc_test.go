package core_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"globedoc/internal/alloctest"
	"globedoc/internal/core"
	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/netsim"
	"globedoc/internal/server"
	"globedoc/internal/telemetry"
)

// Allocation budgets of the fetch plan's two operations, in heap objects
// per call across the whole process (the replica's serving side
// included): the counts of a cold binding made in one obj.bind exchange
// (173 and 257 with go1.24 on linux/amd64, identical over repeated runs;
// the step-RPC binding it replaced took 431 and 571) plus 2 %, so a
// toolchain difference does not flake.
const (
	coldFetchAllocBudget    = 176
	coldFetchAllAllocBudget = 262
)

func TestFetchPlanAllocationBudget(t *testing.T) {
	w, err := deploy.NewWorld(deploy.Options{TimeScale: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv", nil, nil, server.Limits{}); err != nil {
		t.Fatal(err)
	}
	doc := document.New()
	for i := 0; i < 10; i++ {
		doc.Put(document.Element{
			Name: fmt.Sprintf("part-%02d.bin", i),
			Data: bytes.Repeat([]byte{byte('a' + i)}, 10<<10),
		})
	}
	pub, err := w.Publish(doc, deploy.PublishOptions{Name: "alloc.vu.nl", OwnerKey: keytest.RSA()})
	if err != nil {
		t.Fatal(err)
	}
	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{Telemetry: telemetry.New(nil)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	ctx := context.Background()

	fetch := alloctest.AllocsPerRun(t, 20, func() {
		if _, err := client.Fetch(ctx, pub.OID, "part-03.bin"); err != nil {
			t.Fatal(err)
		}
	})
	all := alloctest.AllocsPerRun(t, 20, func() {
		if res, err := client.FetchAll(ctx, pub.OID); err != nil || len(res) != 10 {
			t.Fatalf("FetchAll: %d results, %v", len(res), err)
		}
	})
	t.Logf("cold Fetch %.0f allocs, cold FetchAll of 10 x 10 KiB %.0f allocs", fetch, all)
	if fetch > coldFetchAllocBudget {
		t.Errorf("cold Fetch allocates %.0f objects, budget %d", fetch, coldFetchAllocBudget)
	}
	if all > coldFetchAllAllocBudget {
		t.Errorf("cold FetchAll allocates %.0f objects, budget %d", all, coldFetchAllAllocBudget)
	}
}

// warmHitAllocBudget is the heap objects of one warm hit — FetchNamed
// with the verified binding, the name and the element's bytes all cached,
// so no RPC is made — across the process: the pipeline, its four spans,
// the one attribute slice the root span's second attribute moves to, and
// the context node carrying the root span: 7 with go1.24 on linux/amd64,
// plus 2 %.
const warmHitAllocBudget = 7

// warmHit returns a FetchNamed of home.vu.nl's index.html that is a warm
// hit: the caching client has fetched it twice already.
func warmHit(tb testing.TB) func() {
	_, _, client, _, _, _ := vcacheWorld(tb, time.Hour)
	ctx := context.Background()
	fetch := func() core.FetchResult {
		res, err := client.FetchNamed(ctx, "home.vu.nl", "index.html")
		if err != nil {
			tb.Fatal(err)
		}
		return res
	}
	if res := fetch(); res.FromCache {
		tb.Fatal("the first fetch was served from the content cache")
	}
	if res := fetch(); !res.WarmBinding || !res.FromCache {
		tb.Fatalf("the second fetch was not a warm hit: warm binding %v, from cache %v", res.WarmBinding, res.FromCache)
	}
	return func() { _ = fetch() }
}

func TestWarmHitAllocationBudget(t *testing.T) {
	hit := warmHit(t)
	got := alloctest.AllocsPerRun(t, 100, hit)
	t.Logf("warm hit: %.0f allocs", got)
	if got > warmHitAllocBudget {
		t.Errorf("a warm hit allocates %.0f objects, budget %d", got, warmHitAllocBudget)
	}
}

// BenchmarkWarmHit is the warm hit alone: go test -run '^$' -bench
// WarmHit ./internal/core/ prints its ns/op and allocs/op.
func BenchmarkWarmHit(b *testing.B) {
	hit := warmHit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit()
	}
}
