package proxy_test

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"globedoc/internal/alloctest"
	"globedoc/internal/core"
	"globedoc/internal/proxy"
	"globedoc/internal/telemetry"
	"globedoc/internal/vcache"
)

// proxyWarmHitAllocBudget is the heap objects of one warm hit through
// ServeHTTP into a reusable ResponseWriter: core's warm hit (3), the
// proxy.request span (one object, its attributes in its room) and its
// context node, the ETag, and the one array every header value shares: 7
// with go1.24 on linux/amd64, plus 2 %, which rounds to no object.
const proxyWarmHitAllocBudget = 7

// reusableWriter is an http.ResponseWriter whose header map is cleared,
// not remade, between requests, so a budget counts the proxy's
// allocations and not the writer's.
type reusableWriter struct {
	header http.Header
	status int
	body   int
}

func (w *reusableWriter) Header() http.Header         { return w.header }
func (w *reusableWriter) WriteHeader(status int)      { w.status = status }
func (w *reusableWriter) Write(b []byte) (int, error) { w.body += len(b); return len(b), nil }

// proxyWarmHit returns one request through p.ServeHTTP that is a warm hit
// — the binding and the element's bytes are cached — served into a
// reusable writer.
func proxyWarmHit(tb testing.TB) func() {
	tel := telemetry.New(nil)
	_, p, _ := proxyWorldOpts(tb, core.Options{
		CacheBindings: true,
		VCache:        vcache.New(vcache.Config{}),
		Telemetry:     tel,
	})
	p.Telemetry = tel
	req := httptest.NewRequest(http.MethodGet, proxy.HybridURL("home.vu.nl", "index.html"), nil)
	w := &reusableWriter{header: make(http.Header)}
	serve := func() {
		clear(w.header)
		*w = reusableWriter{header: w.header}
		p.ServeHTTP(w, req)
		if w.status != http.StatusOK || w.body == 0 {
			tb.Fatalf("warm hit answered %d with %d body bytes", w.status, w.body)
		}
	}
	serve()
	serve()
	if w.header.Get(proxy.HeaderCache) != "hit" || w.header.Get(proxy.HeaderWarm) != "true" {
		tb.Fatalf("the second request was not a warm hit: headers %v", w.header)
	}
	return serve
}

func TestProxyWarmHitAllocationBudget(t *testing.T) {
	serve := proxyWarmHit(t)
	got := alloctest.AllocsPerRun(t, 100, serve)
	t.Logf("warm hit through ServeHTTP: %.0f allocs", got)
	if got > proxyWarmHitAllocBudget {
		t.Errorf("a warm hit through ServeHTTP allocates %.0f objects, budget %d", got, proxyWarmHitAllocBudget)
	}
}

// BenchmarkProxyWarmHit is a warm hit through ServeHTTP alone: go test
// -run '^$' -bench ProxyWarmHit ./internal/proxy/ prints its ns/op and
// allocs/op.
func BenchmarkProxyWarmHit(b *testing.B) {
	serve := proxyWarmHit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
