package location

import (
	"bytes"
	"testing"
)

// FuzzLookupDecode holds both lookup-reply decoders — loc.lookup's
// endpoint-only form and loc.lookup2's form with per-address metadata,
// the reply a cold client's first flight to the location service brings
// back — to decode∘encode being the identity: whatever bytes a decoder
// accepts, re-encoding its result gives them back, so one reply has one
// meaning. The input's first byte picks the decoder (even: lookup, odd:
// lookup2).
func FuzzLookupDecode(f *testing.F) {
	res := LookupResult{Rings: 2, Addresses: []ContactAddress{
		{Address: "amsterdam-primary:objsvc", Protocol: "globedoc", Zone: "europe", Weight: 300},
		{Address: "ithaca:objsvc", Protocol: "globedoc", Zone: "america"},
	}}
	for _, seed := range [][]byte{
		append([]byte{0}, encodeLookupResult(res)...),
		append([]byte{1}, encodeLookupResultExt(res)...),
		append([]byte{1}, encodeLookupResultExt(LookupResult{})...),
		{0, 0, 0x80, 0x80, 0x04},                                   // an implausible address count
		{1, 0, 1, 1, 'a', 1, 'b', 0, 0x80, 0x80, 0x80, 0x80, 0x10}, // a weight past uint32
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		decode, encode := decodeLookupResult, encodeLookupResult
		if data[0]%2 == 1 {
			decode, encode = decodeLookupResultExt, encodeLookupResultExt
		}
		body := data[1:]
		got, err := decode(body)
		if err != nil {
			return // refused, not panicked
		}
		if again := encode(got); !bytes.Equal(again, body) {
			t.Fatalf("decode∘encode is not the identity:\n in %x\nout %x (%+v)", body, again, got)
		}
	})
}
