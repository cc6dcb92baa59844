package vcache

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"globedoc/internal/alloctest"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/telemetry"
)

var t0 = time.Date(2005, 4, 4, 12, 0, 0, 0, time.UTC)

func oidN(n byte) globeid.OID {
	var oid globeid.OID
	oid[0] = n
	return oid
}

func elemN(n int) ([globeid.Size]byte, Element) {
	data := []byte(fmt.Sprintf("element-%d", n))
	return globeid.HashElement(data), Element{ContentType: "text/html", Data: data}
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(Config{})
	hash, elem := elemN(1)
	if _, ok := c.Get(hash, t0, t0.Add(time.Hour)); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(oidN(1), hash, elem, t0.Add(time.Hour))
	got, ok := c.Get(hash, t0, t0.Add(time.Hour))
	if !ok {
		t.Fatal("miss after Put")
	}
	if got.ContentType != elem.ContentType || !bytes.Equal(got.Data, elem.Data) {
		t.Fatalf("got %+v, want %+v", got, elem)
	}
	if want := int64(len(elem.ContentType) + len(elem.Data)); c.Len() != 1 || c.Bytes() != want {
		t.Fatalf("Len=%d Bytes=%d, want 1 element of %d bytes, content type included", c.Len(), c.Bytes(), want)
	}
}

// TestPutKeepsData: Put takes ownership of the slice it is given — a hit
// serves that very backing array — and charges its length, not the
// capacity behind it.
func TestPutKeepsData(t *testing.T) {
	c := New(Config{})
	data := make([]byte, 9, 64)
	copy(data, "keep me!!")
	hash := globeid.HashElement(data)
	c.Put(oidN(1), hash, Element{Data: data}, t0.Add(time.Hour))
	got, ok := c.Get(hash, t0, t0.Add(time.Hour))
	if !ok {
		t.Fatal("miss after Put")
	}
	if &got.Data[0] != &data[0] || len(got.Data) != len(data) {
		t.Fatal("a hit does not serve the slice Put was given")
	}
	if c.Bytes() != int64(len(data)) {
		t.Fatalf("Bytes = %d, want len(Data) = %d", c.Bytes(), len(data))
	}
}

// TestBytesGauge: vcache_bytes equals Bytes after every operation that
// moves it — Put, eviction by pressure, replacement, InvalidateOID,
// Reconcile and Purge — and a gauge wired late starts at the current
// count.
func TestBytesGauge(t *testing.T) {
	h1, e1 := elemN(1)
	h2, e2 := elemN(2)
	h3, e3 := elemN(3)
	c := New(Config{MaxBytes: e1.size() + e2.size()})
	c.Put(oidN(1), h1, e1, t0.Add(time.Hour))
	gauge := telemetry.NewRegistry().Gauge(telemetry.MetricVCacheBytes)
	c.WireMetrics(nil, gauge, nil)
	check := func(after string) {
		t.Helper()
		if gauge.Value() != c.Bytes() {
			t.Fatalf("after %s: vcache_bytes = %d, Bytes = %d", after, gauge.Value(), c.Bytes())
		}
	}
	check("WireMetrics")
	c.Put(oidN(1), h2, e2, t0.Add(time.Hour))
	check("Put")
	c.Put(oidN(2), h3, e3, t0.Add(time.Minute))
	check("eviction")
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2 after an eviction", c.Len())
	}
	c.Put(oidN(2), h3, Element{Data: e3.Data[:4]}, t0.Add(time.Minute))
	check("replacement")
	c.InvalidateOID(oidN(1))
	check("InvalidateOID")
	c.Put(oidN(1), h1, e1, t0.Add(time.Hour))
	c.Reconcile(oidN(1), nil)
	check("Reconcile")
	c.Purge(t0.Add(2 * time.Minute))
	check("Purge")
	if c.Bytes() != 0 || c.Len() != 0 {
		t.Fatalf("Len = %d, Bytes = %d after dropping everything", c.Len(), c.Bytes())
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	h1, e1 := elemN(1)
	h2, e2 := elemN(2)
	h3, e3 := elemN(3)
	budget := e1.size() + e2.size()
	reg := telemetry.NewRegistry()
	evictions := reg.Counter(telemetry.MetricVCacheEvictions)
	c := New(Config{MaxBytes: budget})
	c.WireMetrics(evictions, nil, nil)

	c.Put(oidN(1), h1, e1, t0.Add(time.Hour))
	c.Put(oidN(1), h2, e2, t0.Add(time.Hour))
	// Touch e1 so e2 is the LRU victim.
	if _, ok := c.Get(h1, t0, t0.Add(time.Hour)); !ok {
		t.Fatal("e1 missing")
	}
	c.Put(oidN(1), h3, e3, t0.Add(time.Hour))

	if _, ok := c.Get(h2, t0, t0.Add(time.Hour)); ok {
		t.Fatal("LRU entry e2 survived eviction")
	}
	if _, ok := c.Get(h1, t0, t0.Add(time.Hour)); !ok {
		t.Fatal("recently used e1 was evicted")
	}
	if _, ok := c.Get(h3, t0, t0.Add(time.Hour)); !ok {
		t.Fatal("new entry e3 missing")
	}
	if evictions.Value() != 1 {
		t.Fatalf("evictions = %d, want 1", evictions.Value())
	}
	if c.Bytes() > budget {
		t.Fatalf("Bytes=%d over budget %d", c.Bytes(), budget)
	}
}

func TestOversizedElementNotCached(t *testing.T) {
	c := New(Config{MaxBytes: 4})
	hash, elem := elemN(1)
	c.Put(oidN(1), hash, elem, t0.Add(time.Hour))
	if c.Len() != 0 {
		t.Fatal("oversized element was cached")
	}
}

func TestInvalidateOID(t *testing.T) {
	c := New(Config{})
	h1, e1 := elemN(1)
	h2, e2 := elemN(2)
	c.Put(oidN(1), h1, e1, t0.Add(time.Hour))
	c.Put(oidN(2), h2, e2, t0.Add(time.Hour))
	c.InvalidateOID(oidN(1))
	if _, ok := c.Get(h1, t0, t0.Add(time.Hour)); ok {
		t.Fatal("invalidated OID entry survived")
	}
	if _, ok := c.Get(h2, t0, t0.Add(time.Hour)); !ok {
		t.Fatal("unrelated OID entry was dropped")
	}
}

func TestReconcileDropsDelisted(t *testing.T) {
	c := New(Config{})
	h1, e1 := elemN(1)
	h2, e2 := elemN(2)
	c.Put(oidN(1), h1, e1, t0.Add(time.Hour))
	c.Put(oidN(1), h2, e2, t0.Add(time.Hour))
	// The refreshed certificate only lists h1: h2's bytes were revoked.
	c.Reconcile(oidN(1), map[[globeid.Size]byte]bool{h1: true})
	if _, ok := c.Get(h2, t0, t0.Add(time.Hour)); ok {
		t.Fatal("revoked entry survived Reconcile")
	}
	if _, ok := c.Get(h1, t0, t0.Add(time.Hour)); !ok {
		t.Fatal("still-listed entry was dropped")
	}
}

func TestPurgeDropsExpired(t *testing.T) {
	c := New(Config{})
	h1, e1 := elemN(1)
	h2, e2 := elemN(2)
	c.Put(oidN(1), h1, e1, t0.Add(time.Minute))
	c.Put(oidN(1), h2, e2, t0.Add(time.Hour))
	c.Purge(t0.Add(30 * time.Minute))
	if c.Contains(h1) {
		t.Fatal("expired entry survived Purge")
	}
	if !c.Contains(h2) {
		t.Fatal("live entry was purged")
	}
}

func TestGetRearmsExpiry(t *testing.T) {
	c := New(Config{})
	hash, elem := elemN(1)
	c.Put(oidN(1), hash, elem, t0.Add(time.Minute))
	// A certificate-only revalidation re-verifies freshness and re-arms
	// the entry with the new interval; the bytes stay put.
	if _, ok := c.Get(hash, t0.Add(2*time.Minute), t0.Add(time.Hour)); !ok {
		t.Fatal("revalidated entry missing")
	}
	c.Purge(t0.Add(30 * time.Minute))
	if !c.Contains(hash) {
		t.Fatal("re-armed entry was purged inside its new interval")
	}
}

func TestPutReplacesAndRetags(t *testing.T) {
	c := New(Config{})
	hash, elem := elemN(1)
	c.Put(oidN(1), hash, elem, t0.Add(time.Minute))
	c.Put(oidN(2), hash, elem, t0.Add(time.Hour))
	if c.Len() != 1 {
		t.Fatalf("Len=%d after same-hash Put, want 1", c.Len())
	}
	c.InvalidateOID(oidN(1))
	if !c.Contains(hash) {
		t.Fatal("entry retagged to oid2 was dropped by oid1 invalidation")
	}
	c.InvalidateOID(oidN(2))
	if c.Contains(hash) {
		t.Fatal("entry survived invalidation of its current OID")
	}
}

func TestVerifySignatureMemoized(t *testing.T) {
	kp := keytest.Ed()
	msg := []byte("signed bytes")
	sig, err := kp.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	hits := reg.Counter(telemetry.MetricSigCacheHits)
	c := New(Config{})
	c.WireMetrics(nil, nil, hits)

	until := t0.Add(time.Hour)
	for i := 0; i < 5; i++ {
		if err := c.VerifySignature(kp.Public(), msg, sig, until, t0); err != nil {
			t.Fatalf("verify %d: %v", i, err)
		}
	}
	if hits.Value() != 4 {
		t.Fatalf("signature cache hits = %d, want 4", hits.Value())
	}
	if c.SigLen() != 1 {
		t.Fatalf("SigLen=%d, want 1", c.SigLen())
	}
}

func TestVerifySignatureExpiryForcesRecheck(t *testing.T) {
	kp := keytest.Ed()
	msg := []byte("windowed")
	sig, err := kp.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	hits := reg.Counter(telemetry.MetricSigCacheHits)
	c := New(Config{})
	c.WireMetrics(nil, nil, hits)

	if err := c.VerifySignature(kp.Public(), msg, sig, t0.Add(time.Minute), t0); err != nil {
		t.Fatal(err)
	}
	// Past the validity window the memoized verdict no longer applies.
	if err := c.VerifySignature(kp.Public(), msg, sig, t0.Add(time.Hour), t0.Add(2*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if hits.Value() != 0 {
		t.Fatalf("hits = %d, want 0 (verdict expired)", hits.Value())
	}
}

func TestVerifySignatureFailureNotCached(t *testing.T) {
	kp := keytest.Ed()
	msg := []byte("message")
	bad := bytes.Repeat([]byte{0x42}, 64)
	c := New(Config{})
	for i := 0; i < 3; i++ {
		if err := c.VerifySignature(kp.Public(), msg, bad, t0.Add(time.Hour), t0); !errors.Is(err, keys.ErrBadSignature) {
			t.Fatalf("verify %d: %v, want ErrBadSignature", i, err)
		}
	}
	if c.SigLen() != 0 {
		t.Fatalf("SigLen=%d, failures must not be cached", c.SigLen())
	}
}

func TestVerifySignatureDistinguishesTriples(t *testing.T) {
	kpA, kpB := keytest.Ed(), keytest.RSA()
	msg := []byte("shared message")
	sigA, err := kpA.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{})
	if err := c.VerifySignature(kpA.Public(), msg, sigA, t0.Add(time.Hour), t0); err != nil {
		t.Fatal(err)
	}
	// Same message+signature under a different key must not hit.
	if err := c.VerifySignature(kpB.Public(), msg, sigA, t0.Add(time.Hour), t0); !errors.Is(err, keys.ErrBadSignature) {
		t.Fatalf("cross-key verify: %v, want ErrBadSignature", err)
	}
	// Tampered message under the right key must not hit either.
	if err := c.VerifySignature(kpA.Public(), []byte("other message"), sigA, t0.Add(time.Hour), t0); !errors.Is(err, keys.ErrBadSignature) {
		t.Fatalf("tampered-message verify: %v, want ErrBadSignature", err)
	}
}

func TestSignatureLRUBound(t *testing.T) {
	kp := keytest.Ed()
	c := New(Config{MaxSignatures: 2})
	for i := 0; i < 5; i++ {
		msg := []byte(fmt.Sprintf("message-%d", i))
		sig, err := kp.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.VerifySignature(kp.Public(), msg, sig, t0.Add(time.Hour), t0); err != nil {
			t.Fatal(err)
		}
	}
	if c.SigLen() != 2 {
		t.Fatalf("SigLen=%d, want bound 2", c.SigLen())
	}
}

// TestConcurrentElementCache hammers lookup/insert/evict/invalidate from
// many goroutines; run under -race it is the data-race regression test
// for the element side of the cache.
func TestConcurrentElementCache(t *testing.T) {
	const workers = 8
	hashes := make([][globeid.Size]byte, 32)
	elems := make([]Element, 32)
	for i := range hashes {
		hashes[i], elems[i] = elemN(i)
	}
	// A budget of roughly half the working set keeps eviction churning.
	var budget int64
	for _, e := range elems[:16] {
		budget += e.size()
	}
	c := New(Config{MaxBytes: budget})
	reg := telemetry.NewRegistry()
	gauge := reg.Gauge(telemetry.MetricVCacheBytes)
	c.WireMetrics(reg.Counter(telemetry.MetricVCacheEvictions), gauge, nil)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			until := t0.Add(time.Hour)
			for i := 0; i < 500; i++ {
				n := (i*7 + w*13) % len(hashes)
				switch i % 5 {
				case 0:
					c.Put(oidN(byte(n%4)), hashes[n], elems[n], until)
				case 1:
					if got, ok := c.Get(hashes[n], t0, until); ok && !bytes.Equal(got.Data, elems[n].Data) {
						panic("cache returned wrong bytes")
					}
				case 2:
					c.Contains(hashes[n])
				case 3:
					c.InvalidateOID(oidN(byte(n % 4)))
				default:
					c.Purge(t0)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Bytes() > budget {
		t.Fatalf("Bytes=%d over budget %d after concurrent churn", c.Bytes(), budget)
	}
	if gauge.Value() != c.Bytes() {
		t.Fatalf("vcache_bytes = %d after concurrent churn, Bytes = %d", gauge.Value(), c.Bytes())
	}
}

// TestConcurrentSignatureSingleflight launches many goroutines verifying
// the same signature at once and asserts the underlying crypto ran far
// fewer times than the number of verifications — concurrent misses share
// one in-flight check, later calls hit the memo.
func TestConcurrentSignatureSingleflight(t *testing.T) {
	kp := keytest.RSA()
	msg := []byte("hot certificate bytes")
	sig, err := kp.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{})
	reg := telemetry.NewRegistry()
	hits := reg.Counter(telemetry.MetricSigCacheHits)
	c.WireMetrics(nil, nil, hits)

	const goroutines = 16
	const perG = 20
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < perG; i++ {
				if err := c.VerifySignature(kp.Public(), msg, sig, t0.Add(time.Hour), t0); err != nil {
					panic(err)
				}
			}
		}()
	}
	close(start)
	wg.Wait()

	total := uint64(goroutines * perG)
	cryptoRuns := total - hits.Value()
	if cryptoRuns < 1 || cryptoRuns > goroutines {
		t.Fatalf("crypto ran %d times for %d verifications; singleflight should bound it by %d", cryptoRuns, total, goroutines)
	}
	if c.SigLen() != 1 {
		t.Fatalf("SigLen=%d, want 1", c.SigLen())
	}
}

// TestNilMetricsSafe exercises every mutation path with no instruments
// wired; the nil-safe telemetry contract means nothing may panic.
func TestNilMetricsSafe(t *testing.T) {
	c := New(Config{MaxBytes: 8})
	hash, elem := elemN(1)
	c.Put(oidN(1), hash, elem, t0.Add(time.Hour))
	h2, e2 := elemN(2)
	c.Put(oidN(1), h2, e2, t0.Add(time.Hour))
	c.InvalidateOID(oidN(1))
	c.Purge(t0.Add(2 * time.Hour))

	kp := keytest.Ed()
	sig, err := kp.Sign([]byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.VerifySignature(kp.Public(), []byte("m"), sig, t0.Add(time.Hour), t0); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifySignature(kp.Public(), []byte("m"), sig, t0.Add(time.Hour), t0); err != nil {
		t.Fatal(err)
	}
}

// putAllocBudget is the heap objects a Put of a new element under an
// object the cache already holds costs, averaged over enough Puts that
// the growth of the entries map amortises below one: the LRU node the
// entry lives in, its links into the object's chain included (1 with
// go1.24 on linux/amd64, plus 2 %, which rounds to no object; 2 when
// container/list held a pointer to the entry).
const putAllocBudget = 1

func TestPutAllocationBudget(t *testing.T) {
	const runs = 4096
	c := New(Config{})
	oid := oidN(1)
	_, held := elemN(0)
	c.Put(oid, hashN(0), held, t0.Add(time.Hour))
	elem := Element{ContentType: "application/octet-stream", Data: []byte("shared bytes")}
	i := 0
	got := alloctest.AllocsPerRun(t, runs, func() {
		i++
		c.Put(oid, hashN(i), elem, t0.Add(time.Hour))
	})
	if c.Len() != runs+2 || !c.Holds(oid) {
		t.Fatalf("the cache holds %d elements, want %d under the object", c.Len(), runs+2)
	}
	t.Logf("Put of a new element under a held object: %.0f allocs", got)
	if got > putAllocBudget {
		t.Errorf("a Put allocates %.0f objects, budget %d", got, putAllocBudget)
	}
}
