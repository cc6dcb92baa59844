package core_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"globedoc/internal/alloctest"
	"globedoc/internal/cert"
	"globedoc/internal/core"
	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/location"
	"globedoc/internal/netsim"
	"globedoc/internal/object"
	"globedoc/internal/server"
	"globedoc/internal/telemetry"
	"globedoc/internal/vcache"
	"globedoc/internal/workload"
)

// Allocation budgets of the fetch plan's two operations, in heap objects
// per call across the whole process (the replica's serving side
// included): the counts of a cold binding made in one obj.bind exchange
// with every pipeline step, element verification, vcache.lookup,
// serve.element and rpc.call a stack-held leaf, a byte share that is a
// value, the prefill one name-ordered slice and each element's content
// type the decoder's interned string (79 and 80 with go1.24 on
// linux/amd64 over repeated runs; 81 and 93 with a prefill map and a
// copied content type per element, 92 and 104 with rpc.call a heap span
// and the share a closure, 110 and 165–166 when each leaf was a heap
// span, 431 and 571 with the step-RPC binding) plus 2 %, so a toolchain
// difference does not flake.
const (
	coldFetchAllocBudget    = 80
	coldFetchAllAllocBudget = 81
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

// coldPageAllocBudget is the heap objects of wan-page's page at
// TimeScale 0, across the process: a brand-new binding-caching client
// over a new verified-content cache does a FetchAll of the 11-element
// composite document (a 5 KB text element and ten 10 KB images) from
// Paris, and is closed. 145 with go1.24 on linux/amd64, per page:
//   - 13 build the client, its binder and its cache (5 of them the
//     cache's maps and the memo's);
//   - 24 locate the replica, dialling the location service included;
//   - 21 dial the replica;
//   - 30 make the obj.bind exchange and verify what it carried, 14 of
//     them the signature checks through the memo, each verdict kept in
//     one node;
//   - 2 park the binding: its node and its map slot;
//   - 16 keep the page in the cache: a node per element, the entries
//     map's growth, and the byOID slot heading the object's chain;
//   - 2 hold the prefill, one name-ordered slice, and the reply's frame;
//   - about 23 serve the page on the replica's side;
//   - the rest are the pipeline, its spans' context, the singleflight
//     and the fetch plan's slices.
//
// Plus 2 %. It was 181–182 with container/list nodes, a hash set per
// object, a copied content type per element, a prefill map and a set of
// listed hashes built on every cold bind.
const coldPageAllocBudget = 147

func TestColdPageAllocationBudget(t *testing.T) {
	w, err := deploy.NewWorld(deploy.Options{TimeScale: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv", nil, nil, server.Limits{}); err != nil {
		t.Fatal(err)
	}
	pub, err := w.Publish(workload.CompositeDoc(10*workload.KB, 1), deploy.PublishOptions{Name: "page.vu.nl", OwnerKey: keytest.RSA()})
	if err != nil {
		t.Fatal(err)
	}
	trust := cert.NewTrustStore()
	trust.TrustCA(w.CA.Name, w.CA.Key.Public())
	tel := telemetry.New(nil)
	ctx := context.Background()
	page := alloctest.AllocsPerRun(t, 20, func() {
		client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{Trust: trust, CacheBindings: true, VCache: vcache.New(vcache.Config{}), Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		res, err := client.FetchAll(ctx, pub.OID)
		client.Close()
		client.Binder.Locator.(*location.Client).Close()
		if err != nil || len(res) != 11 || res[0].FromCache {
			t.Fatalf("FetchAll: %d results, %v", len(res), err)
		}
	})
	t.Logf("cold page: %.0f allocs", page)
	if page > coldPageAllocBudget {
		t.Errorf("a cold page allocates %.0f objects, budget %d", page, coldPageAllocBudget)
	}
}

// warmHitAllocBudget is the heap objects of one warm hit — FetchNamed
// with the verified binding, the name and the element's bytes all cached,
// so no RPC is made — across the process: the pipeline, its root span
// (its attributes in the span's room, its three steps leaves on the
// stack), and the context node carrying the root span: 3 with go1.24 on
// linux/amd64, plus 2 %, which rounds to no object.
const warmHitAllocBudget = 3

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

// bulkType is the content type of bulkWorld's elements, which the
// verified-content cache charges beside their bytes.
const bulkType = "application/octet-stream"

// bulkPub publishes n elements of size distinct bytes each, named
// part-00.bin onwards, on one server of a zero-latency world. Only the
// server keeps the document's bytes.
func bulkPub(tb testing.TB, n, size int) (*deploy.World, *deploy.Publication) {
	tb.Helper()
	w, err := deploy.NewWorld(deploy.Options{TimeScale: 0})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(w.Close)
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv", nil, nil, server.Limits{}); err != nil {
		tb.Fatal(err)
	}
	doc := document.New()
	for i := 0; i < n; i++ {
		doc.Put(document.Element{Name: fmt.Sprintf("part-%02d.bin", i), ContentType: bulkType, Data: bytes.Repeat([]byte{byte('a' + i)}, size)})
	}
	pub, err := w.Publish(doc, deploy.PublishOptions{Name: "bulk.vu.nl", OwnerKey: keytest.RSA()})
	if err != nil {
		tb.Fatal(err)
	}
	return w, pub
}

// bulkClient returns a client of w over a verified-content cache with
// room for room elements of size bytes: binding-caching when bindings
// is set, else every fetch binds cold.
func bulkClient(tb testing.TB, w *deploy.World, size, room int, bindings bool) (*core.Client, *vcache.Cache) {
	tb.Helper()
	vc := vcache.New(vcache.Config{MaxBytes: int64(room * (len(bulkType) + size))})
	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{CacheBindings: bindings, VCache: vc, Telemetry: telemetry.New(nil)})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(client.Close)
	return client, vc
}

// bulkWorld is bulkPub's object with a binding-caching bulkClient: the
// object's OID and the client over a verified-content cache with room
// for room of its elements.
func bulkWorld(t *testing.T, n, size, room int) (*core.Client, globeid.OID, *vcache.Cache) {
	t.Helper()
	w, pub := bulkPub(t, n, size)
	client, vc := bulkClient(t, w, size, room, true)
	return client, pub.OID, vc
}

// TestWarmMissAllocatesOnePayload pins the fetch path's copy budget: a
// warm content miss of 1 MiB — the binding cached, the bytes not —
// allocates one payload's worth across client and server, the frame
// buffer the reply arrives in, which the verified-content cache keeps as
// it is. A cache with room for one element makes every fetch of the two
// alternating elements a miss that evicts the other. A copy of the
// bytes anywhere on the path reads ~2.
func TestWarmMissAllocatesOnePayload(t *testing.T) {
	const size = 1 << 20
	client, oid, _ := bulkWorld(t, 2, size, 1)
	ctx := context.Background()
	i := 0
	fetch := func() {
		i++
		res, err := client.Fetch(ctx, oid, fmt.Sprintf("part-%02d.bin", i%2))
		if err != nil || res.FromCache || len(res.Element.Data) != size {
			t.Fatalf("fetch %d: %d bytes, FromCache=%v, err %v", i, len(res.Element.Data), res.FromCache, err)
		}
	}
	fetch() // the cold bind
	perFetch := alloctest.BytesPerRun(t, 20, fetch)
	t.Logf("warm 1 MiB miss: %.0f bytes allocated, %.3f per payload byte", perFetch, perFetch/size)
	if ratio := perFetch / size; ratio > 1.10 {
		t.Errorf("a warm 1 MiB miss allocates %.0f bytes (%.2f per payload byte), want <= 1.10", perFetch, ratio)
	}
}

// TestCachedBatchElementPinsOnlyItself pins the other half of the rule:
// a cold FetchAll's elements arrive in one bind-reply frame, larger here
// than the whole cache, so the cache keeps an exact-size copy of each. A
// cache with room for one element evicts as the batch fills it, and what
// stays reachable afterwards is that element, not the frame it came in.
func TestCachedBatchElementPinsOnlyItself(t *testing.T) {
	const n, size = 16, 64 << 10
	client, oid, vc := bulkWorld(t, n, size, 1)
	retained := alloctest.HeapRetained(t, func() {
		if res, err := client.FetchAll(context.Background(), oid); err != nil || len(res) != n {
			t.Fatalf("FetchAll: %d results, %v", len(res), err)
		}
	})
	if want := int64(len(bulkType) + size); vc.Len() != 1 || vc.Bytes() != want {
		t.Fatalf("the cache holds %d elements, %d bytes; want the last one, %d bytes", vc.Len(), vc.Bytes(), want)
	}
	t.Logf("%d bytes retained after a cold FetchAll of %d x %d bytes into a one-element cache", retained, n, size)
	if retained > 2*size {
		t.Errorf("%d bytes stay reachable for a cache of one %d-byte element; the reply frame was %d bytes", retained, size, n*size)
	}
}

// TestPaddedReplyPinsWhatTheCacheCounts: a replica may pad what the
// element hash does not cover — the content type, the element's inner
// name — to make each warm content miss's reply frame far larger than
// the element. The cache must then keep a clone, not the frame, so the
// memory it pins stays what Bytes counts: a replica adds no handling
// cost the budget does not see.
func TestPaddedReplyPinsWhatTheCacheCounts(t *testing.T) {
	// slack is what seven misses may leave reachable besides the bytes
	// the cache counts: its entries, spans in the telemetry ring, and the
	// allocator's rounding of each padded content type up to whole pages.
	// One padded frame kept would exceed it eight times over.
	const n, pad, slack = 8, 1 << 20, 128 << 10
	for _, field := range []string{"content type", "name"} {
		t.Run(field, func(t *testing.T) {
			w, pub, _ := batchWorld(t, n)
			frontReplica(t, w, pub, rewriting(func(req object.BindRequest, reply []byte) []byte {
				if req.Have == ([globeid.Size]byte{}) {
					return reply // the cold bind: key and certificate beside the element
				}
				r, err := object.DecodeBindReply(reply)
				if err != nil || len(r.Items) != 1 || r.Items[0].Err != nil {
					t.Errorf("warm reply %d items, %v", len(r.Items), err)
					return reply
				}
				elem := r.Items[0].Element
				if field == "name" {
					elem.Name += strings.Repeat(" ", pad)
				} else {
					elem.ContentType += strings.Repeat(" ", pad)
				}
				return object.EncodeBindReply(nil, nil, nil, []object.BatchWireItem{{Name: r.Items[0].Name, Wire: object.EncodeElement(elem)}})
			}))
			vc := vcache.New(vcache.Config{})
			client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{CacheBindings: true, VCache: vc, Telemetry: telemetry.New(nil)})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(client.Close)
			ctx := context.Background()
			if _, err := client.Fetch(ctx, pub.OID, "part-00.html"); err != nil {
				t.Fatal(err)
			}
			before := vc.Bytes()
			retained := alloctest.HeapRetained(t, func() {
				for i := 1; i < n; i++ {
					if res, err := client.Fetch(ctx, pub.OID, fmt.Sprintf("part-%02d.html", i)); err != nil || res.FromCache {
						t.Fatalf("warm miss %d: FromCache=%v, err %v", i, res.FromCache, err)
					}
				}
			})
			counted := vc.Bytes() - before
			t.Logf("%d padded warm misses: %d bytes retained, %d counted", n-1, retained, counted)
			if vc.Len() != n {
				t.Fatalf("the cache holds %d elements, want all %d", vc.Len(), n)
			}
			if retained > counted+slack {
				t.Errorf("the cache pins %d bytes and counts %d: padding the replica chose stays reachable uncounted", retained, counted)
			}
		})
	}
}

// coldFetchAll returns a cold FetchAll of bulkPub's n × size object into
// a cache with room for all of it: the client caches no binding, and
// each call first drops the elements the last one cached.
func coldFetchAll(tb testing.TB, n, size int) func() {
	w, pub := bulkPub(tb, n, size)
	client, vc := bulkClient(tb, w, size, n, false)
	return func() {
		vc.InvalidateOID(pub.OID)
		res, err := client.FetchAll(context.Background(), pub.OID)
		if err != nil || len(res) != n || res[0].WarmBinding || res[0].FromCache {
			tb.Fatalf("FetchAll: %d results, %v", len(res), err)
		}
	}
}

// TestFetchAllAllocatesOnePayload: a cold FetchAll's elements share the
// one reply frame they arrived in, in the result and in the cache, so the
// whole page allocates one payload's worth, across client and server. A
// copy of each element into the cache reads ~2.
func TestFetchAllAllocatesOnePayload(t *testing.T) {
	const n, size = 16, 64 << 10
	perFetch := alloctest.BytesPerRun(t, 10, coldFetchAll(t, n, size))
	t.Logf("cold FetchAll of %d x %d bytes: %.0f bytes allocated, %.3f per payload byte", n, size, perFetch, perFetch/(n*size))
	if ratio := perFetch / (n * size); ratio > 1.10 {
		t.Errorf("a cold FetchAll of %d x %d bytes allocates %.0f bytes (%.2f per payload byte), want <= 1.10", n, size, perFetch, ratio)
	}
}

// TestCachedBatchPinsWhatTheCacheCounts: the frame a cached batch shares
// is charged once, so the memory the cache keeps reachable is at most
// 9/8 of what Bytes counts (frameShare), plus the client's own state;
// and it goes with the last element that holds it.
func TestCachedBatchPinsWhatTheCacheCounts(t *testing.T) {
	// slack is what a FetchAll leaves reachable besides the cache's
	// bytes: the binding, the connection and its buffers, the spans in
	// the telemetry ring.
	const n, size, slack = 16, 64 << 10, 128 << 10
	client, oid, vc := bulkWorld(t, n, size, n)
	retained := alloctest.HeapRetained(t, func() {
		if res, err := client.FetchAll(context.Background(), oid); err != nil || len(res) != n {
			t.Fatalf("FetchAll: %d results, %v", len(res), err)
		}
	})
	counted := vc.Bytes()
	t.Logf("a cached batch of %d x %d bytes: %d bytes retained, %d counted", n, size, retained, counted)
	if vc.Len() != n || counted < n*size {
		t.Fatalf("the cache holds %d elements, %d bytes; want all %d", vc.Len(), counted, n)
	}
	if retained > counted*9/8+slack {
		t.Errorf("the cache pins %d bytes and counts %d", retained, counted)
	}
	freed := -alloctest.HeapRetained(t, func() { vc.InvalidateOID(oid) })
	t.Logf("InvalidateOID freed %d bytes", freed)
	if vc.Bytes() != 0 || freed < n*size {
		t.Errorf("after InvalidateOID the cache counts %d bytes and %d were freed; want the %d-byte frame unreachable", vc.Bytes(), freed, n*size)
	}
}

// BenchmarkFetchAllCold is a cold FetchAll of the paper's composite
// document (workload.CompositeDoc, 11 elements) by a fresh client over a
// fresh verified-content cache, the telemetry shared as a proxy's is:
// go test -run '^$' -bench FetchAllCold ./internal/core/ prints its B/op
// and allocs/op, server side included.
func BenchmarkFetchAllCold(b *testing.B) {
	w, err := deploy.NewWorld(deploy.Options{TimeScale: 0})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(w.Close)
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv", nil, nil, server.Limits{}); err != nil {
		b.Fatal(err)
	}
	doc := workload.CompositeDoc(10*workload.KB, 1)
	pub, err := w.Publish(doc, deploy.PublishOptions{Name: "page.vu.nl", OwnerKey: keytest.RSA()})
	if err != nil {
		b.Fatal(err)
	}
	want := doc.Len()
	tel := telemetry.New(nil)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{VCache: vcache.New(vcache.Config{}), Telemetry: tel})
		if err != nil {
			b.Fatal(err)
		}
		res, err := client.FetchAll(ctx, pub.OID)
		client.Close()
		if err != nil || len(res) != want {
			b.Fatalf("FetchAll: %d results of %d, %v", len(res), want, err)
		}
	}
}
