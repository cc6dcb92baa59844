package proxy

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"globedoc/internal/core"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
)

// TestServeVerifiedHashesNoBody: the proxy answers a verified 1 MiB
// result without a SHA-1 of its own. crypto/sha1 offers no seam to count
// calls through, so the result carries a hash that is deliberately NOT
// the SHA-1 of its body: any hash the proxy computed over the body would
// surface as a different ETag (and a missed If-None-Match).
func TestServeVerifiedHashesNoBody(t *testing.T) {
	body := bytes.Repeat([]byte("payload "), 128<<10)
	var carried [globeid.Size]byte
	for i := range carried {
		carried[i] = byte(0xA0 + i)
	}
	if carried == globeid.HashElement(body) {
		t.Fatal("the sentinel must differ from the body's SHA-1")
	}
	res := core.FetchResult{
		Element:      document.Element{Name: "big.bin", ContentType: "application/octet-stream", Data: body},
		ReplicaAddr:  "amsterdam:objsvc",
		VerifiedHash: carried,
	}
	const want = `"a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3"`

	rec := httptest.NewRecorder()
	serveVerified(rec, httptest.NewRequest(http.MethodGet, "/GlobeDoc/x/big.bin", nil), res)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), body) {
		t.Fatalf("status %d, %d body bytes; want 200 and the %d given", rec.Code, rec.Body.Len(), len(body))
	}
	if got := rec.Header().Get("ETag"); got != want {
		t.Fatalf("ETag = %s, want the carried hash %s", got, want)
	}
	if got := rec.Header().Get("Content-Length"); got != "1048576" {
		t.Fatalf("Content-Length = %q", got)
	}

	conditional := httptest.NewRequest(http.MethodGet, "/GlobeDoc/x/big.bin", nil)
	conditional.Header.Set("If-None-Match", want)
	rec = httptest.NewRecorder()
	serveVerified(rec, conditional, res)
	if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
		t.Fatalf("If-None-Match on the carried hash: status %d with %d body bytes, want an empty 304", rec.Code, rec.Body.Len())
	}
}

// TestIfNoneMatchWeakComparison: If-None-Match compares entity tags
// weakly (RFC 9110 §13.1.2), so a browser revalidating the strong ETag in
// its W/ form, or within a list, gets a 304; a tag that does not match
// gets the body.
func TestIfNoneMatchWeakComparison(t *testing.T) {
	res := core.FetchResult{
		Element:      document.Element{Name: "index.html", ContentType: "text/html", Data: []byte("<html>home</html>")},
		ReplicaAddr:  "amsterdam:objsvc",
		VerifiedHash: [globeid.Size]byte{0xab, 0xcd},
	}
	etag := elementETag(res.VerifiedHash)
	for _, tc := range []struct {
		name, header string
		want         int
	}{
		{"weak form", "W/" + etag, http.StatusNotModified},
		{"list with spaces", `"0000",  W/"1111" ,` + etag + ` , "2222"`, http.StatusNotModified},
		{"wildcard", "*", http.StatusNotModified},
		{"no match", `W/"0123456789abcdef0123456789abcdef01234567", "x"`, http.StatusOK},
	} {
		req := httptest.NewRequest(http.MethodGet, "/GlobeDoc/x/index.html", nil)
		req.Header.Set("If-None-Match", tc.header)
		rec := httptest.NewRecorder()
		serveVerified(rec, req, res)
		if rec.Code != tc.want {
			t.Errorf("%s: If-None-Match %s answered %d, want %d", tc.name, tc.header, rec.Code, tc.want)
		}
		if got := rec.Header().Get("ETag"); got != etag {
			t.Errorf("%s: ETag = %s, want %s", tc.name, got, etag)
		}
	}
}

// TestServeVerifiedHeaders pins every header a verified response carries,
// by its name on the wire, and that the values — which share one backing
// array — stay independent: an Add to one header leaves the others as
// they were.
func TestServeVerifiedHeaders(t *testing.T) {
	res := core.FetchResult{
		Element:      document.Element{Name: "index.html", ContentType: "text/html", Data: []byte("<html>home</html>")},
		ReplicaAddr:  "amsterdam:objsvc",
		CertifiedAs:  "Vrije Universiteit",
		WarmBinding:  true,
		FromCache:    true,
		VerifiedHash: [globeid.Size]byte{0xab, 0xcd},
	}
	rec := httptest.NewRecorder()
	serveVerified(rec, httptest.NewRequest(http.MethodGet, "/GlobeDoc/x/index.html", nil), res)
	want := http.Header{
		"X-Globedoc-Replica":      {"amsterdam:objsvc"},
		"X-Globedoc-Certified-As": {"Vrije Universiteit"},
		"X-Globedoc-Warm-Binding": {"true"},
		"X-Globedoc-Cache":        {"hit"},
		"Etag":                    {`"abcd000000000000000000000000000000000000"`},
		"Content-Type":            {"text/html"},
		"Content-Length":          {"17"},
	}
	if got := rec.Header(); !reflect.DeepEqual(got, want) {
		t.Fatalf("headers\n%v\nwant\n%v", got, want)
	}
	rec.Header().Add(HeaderReplica, "paris:objsvc")
	want["X-Globedoc-Replica"] = []string{"amsterdam:objsvc", "paris:objsvc"}
	if got := rec.Header(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after an Add, headers\n%v\nwant\n%v", got, want)
	}
}
