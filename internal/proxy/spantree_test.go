package proxy_test

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"globedoc/internal/core"
	"globedoc/internal/netsim"
	"globedoc/internal/proxy"
	"globedoc/internal/telemetry"
	"globedoc/internal/vcache"
)

// spanTree renders the spans of one trace as sorted lines, one per span:
// its ancestry by name, then its attributes in the order they were
// annotated. Every span must carry the trace ID of the one root, and
// every parent link must resolve within the trace.
func spanTree(t *testing.T, spans []telemetry.SpanRecord) []string {
	t.Helper()
	byID := make(map[uint64]telemetry.SpanRecord, len(spans))
	var root telemetry.SpanRecord
	for _, s := range spans {
		byID[s.SpanID] = s
		if s.ParentID == 0 {
			if root.SpanID != 0 {
				t.Fatalf("two roots: %s and %s", root.Name, s.Name)
			}
			root = s
		}
	}
	lines := make([]string, 0, len(spans))
	for _, s := range spans {
		if s.TraceID != root.TraceID {
			t.Errorf("%s is in trace %d, want the root's %d", s.Name, s.TraceID, root.TraceID)
		}
		path := s.Name
		for p := s; p.ParentID != 0; {
			var ok bool
			if p, ok = byID[p.ParentID]; !ok {
				t.Fatalf("%s names a parent the trace does not hold", s.Name)
			}
			path = p.Name + " > " + path
		}
		var attrs []string
		for _, a := range s.Attrs {
			attrs = append(attrs, a.Key+"="+a.Value)
		}
		lines = append(lines, path+" ["+strings.Join(attrs, " ")+"]")
	}
	sort.Strings(lines)
	return lines
}

// TestSpanTreeIsPinned pins what the span ring holds for a cold fetch
// through the proxy and for the warm hit after it, across proxy, client
// and replica: every span's name, parent and attributes, and one trace ID
// per request. A change that trims what a span costs must leave all of it
// as it is.
func TestSpanTreeIsPinned(t *testing.T) {
	w, tel, _ := telemetryWorld(t)
	secure, err := w.NewSecureClientOpts(netsim.Paris, core.Options{
		CacheBindings: true,
		VCache:        vcache.New(vcache.Config{}),
		Telemetry:     tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(secure.Close)
	p := proxy.New(secure)
	p.Telemetry = tel

	const (
		request = "proxy.request"
		fetch   = request + " > fetch.secure"
		rpc     = fetch + " > rpc.call"
	)
	for _, tc := range []struct {
		what string
		want []string
	}{
		{"cold fetch", []string{
			fetch + " > bind.fetch []",
			fetch + " > binding.cache [outcome=miss]",
			fetch + " > element.fetch []",
			fetch + " > element.verify.authenticity []",
			fetch + " > element.verify.consistency []",
			fetch + " > element.verify.freshness []",
			fetch + " > icert.fetch []",
			fetch + " > icert.verify []",
			fetch + " > key.fetch []",
			fetch + " > key.verify []",
			fetch + " > location.lookup []",
			fetch + " > name.resolve []",
			fetch + " > namecert.fetch []",
			fetch + " > namecert.verify []",
			fetch + " > replica.dial []",
			rpc + " > rpc.serve > serve.bind > serve.element [element=index.html]",
			rpc + " > rpc.serve > serve.bind []",
			rpc + " > rpc.serve [op=loc.lookup2 remote=true outcome=ok]",
			rpc + " > rpc.serve [op=name.resolve remote=true outcome=ok]",
			rpc + " > rpc.serve [op=obj.bind remote=true outcome=ok]",
			rpc + " [op=loc.lookup2 attempts=1 outcome=ok]",
			rpc + " [op=name.resolve attempts=1 outcome=ok]",
			rpc + " [op=obj.bind attempts=1 outcome=ok]",
			fetch + " > vcache.lookup [outcome=miss]",
			fetch + " [object=home.vu.nl element=index.html outcome=ok]",
			request + " [object=home.vu.nl element=index.html outcome=ok]",
		}},
		{"warm hit", []string{
			fetch + " > binding.cache [outcome=hit]",
			fetch + " > name.resolve []",
			fetch + " > vcache.lookup [outcome=hit]",
			fetch + " [object=home.vu.nl element=index.html outcome=ok]",
			request + " [object=home.vu.nl element=index.html outcome=ok]",
		}},
	} {
		tel.Ring.Reset()
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, proxy.HybridURL("home.vu.nl", "index.html"), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", tc.what, rec.Code)
		}
		got := spanTree(t, tel.Ring.Spans())
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: the ring holds\n\t%s\nwant\n\t%s", tc.what, strings.Join(got, "\n\t"), strings.Join(tc.want, "\n\t"))
		}
	}
}
