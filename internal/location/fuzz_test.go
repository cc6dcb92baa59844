package location

import (
	"bytes"
	"testing"
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
		{0, 0x80, 0x80, 0x04},                                   // an implausible address count
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
