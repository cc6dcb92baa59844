package document

import (
	"testing"
	"unsafe"
)

// interned reports whether ct is one of the table's own strings.
func interned(ct string) bool {
	for _, known := range wellKnownContentTypes {
		if unsafe.StringData(ct) == unsafe.StringData(known) && len(ct) == len(known) {
			return true
		}
	}
	return false
}

// TestGuessedContentTypesAreInterned: every type GuessContentType can
// answer without the system's MIME files — its own fallbacks and the
// page types of Go's built-in MIME table — decodes to the table's string.
func TestGuessedContentTypesAreInterned(t *testing.T) {
	var types []string
	for _, ext := range []string{".html", ".htm", ".txt", ".png", ".jpg", ".jpeg", ".gif", ".css", ".js", ".bin", ""} {
		types = append(types, fallbackContentType(ext))
	}
	// Go's built-in table (mime/type.go) for the same and the other
	// extensions a page is made of.
	types = append(types,
		"text/html; charset=utf-8", "text/css; charset=utf-8", "text/javascript; charset=utf-8",
		"text/xml; charset=utf-8", "image/png", "image/jpeg", "image/gif", "image/svg+xml",
		"image/webp", "image/avif", "application/json", "application/pdf", "application/wasm",
		// and the bare text types a publisher may set by hand.
		"text/plain", "text/css", "text/javascript")
	for _, ct := range types {
		if got := InternContentType([]byte(ct)); got != ct || !interned(got) {
			t.Errorf("InternContentType(%q) = %q, interned %v", ct, got, interned(got))
		}
	}
}

func TestInternContentTypeCopiesUnknownTypes(t *testing.T) {
	b := []byte("application/x-padded" + string(make([]byte, 64)))
	got := InternContentType(b)
	if interned(got) || got != string(b) {
		t.Fatalf("InternContentType(unknown) = %q, interned %v", got, interned(got))
	}
	b[0] = 'X'
	if got[0] != 'a' {
		t.Fatal("the copy of an unknown type shares memory with its input")
	}
	before := len(wellKnownContentTypes)
	if InternContentType(b); len(wellKnownContentTypes) != before {
		t.Fatal("an unknown type grew the table")
	}
}

func TestInternContentTypeAllocatesNothingForAKnownType(t *testing.T) {
	b := []byte("application/octet-stream")
	if got := testing.AllocsPerRun(100, func() { _ = InternContentType(b) }); got != 0 {
		t.Errorf("interning a known type allocates %.0f objects, want 0", got)
	}
}
