package location

import (
	"bytes"
	"testing"

	"globedoc/internal/alloctest"
)

// FuzzLookupDecode holds the lookup-reply decoder — loc.lookup2's
// addresses with their metadata, the reply a cold client's first flight
// to the location service brings back — to decode∘encode being the
// identity: whatever bytes it accepts, re-encoding its result gives them
// back, so one reply has one meaning.
func FuzzLookupDecode(f *testing.F) {
	res := LookupResult{Rings: 2, Addresses: []ContactAddress{
		{Address: "amsterdam-primary:objsvc", Protocol: "globedoc", Zone: "europe", Weight: 300},
		{Address: "ithaca:objsvc", Protocol: "globedoc", Zone: "america"},
	}}
	for _, seed := range [][]byte{
		encodeLookupResultExt(res),
		encodeLookupResultExt(LookupResult{Rings: 1, Addresses: res.Addresses[1:]}),
		encodeLookupResultExt(LookupResult{}),
		{0, 0x80, 0x80, 0x04},                                   // a bare count of 65,536 addresses
		{0, 1, 1, 'a', 1, 'b', 0, 0x80, 0x80, 0x80, 0x80, 0x10}, // a weight past uint32
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodeLookupResultExt(body)
		if err != nil {
			return // refused, not panicked
		}
		if again := encodeLookupResultExt(got); !bytes.Equal(again, body) {
			t.Fatalf("decode∘encode is not the identity:\n in %x\nout %x (%+v)", body, again, got)
		}
	})
}

// TestLookupReplySizesNoSliceFromABareCount: the lookup-reply decoder
// refuses an address count that cannot fit in the bytes after it before
// allocating for the addresses, so a 4-byte reply from an untrusted
// location service claiming 65,536 addresses allocates at most 1 KiB.
func TestLookupReplySizesNoSliceFromABareCount(t *testing.T) {
	body := []byte{0, 0x80, 0x80, 0x04} // ring 0, then 65,536, the count bound
	if _, err := decodeLookupResultExt(body); err == nil {
		t.Fatal("a bare count of 65,536 addresses decoded")
	}
	if got := alloctest.BytesPerRun(t, 20, func() { _, _ = decodeLookupResultExt(body) }); got > 1<<10 {
		t.Errorf("decoding a bare count allocates %.0f B, budget 1024", got)
	}
}
