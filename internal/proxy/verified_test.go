package proxy

import (
	"bytes"
	"net/http"
	"net/http/httptest"
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
