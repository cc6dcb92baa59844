package object

import (
	"bytes"
	"testing"
	"time"

	"globedoc/internal/cert"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys/keytest"
)

// The decoders FuzzObjectDecode drives, selected by the input's first
// byte.
const (
	fuzzElement = iota
	fuzzElementsRequest
	fuzzElementsResponse
	fuzzCertList
	fuzzBindRequest
	fuzzBindReply
	fuzzDecoders
)

// FuzzObjectDecode holds every object wire decoder — each parses bytes
// an untrusted peer chooses — to two properties: decode∘encode is the
// identity on whatever it accepts, and no accepted list outgrows the
// decoder's bound. Where the encoding is canonical (every decoder but the
// batch's, whose decline status is any byte but the element and held
// ones and whose decline reason is not kept) re-encoding must give back
// the input bytes.
func FuzzObjectDecode(f *testing.F) {
	owner := keytest.Ed()
	oid := globeid.FromPublicKey(owner.Public())
	ca := &cert.CA{Name: "CA", Key: keytest.Ed()}
	nc, err := ca.IssueNameCertificate(oid, "Subject", time.Unix(1e9, 0), time.Unix(2e9, 0))
	if err != nil {
		f.Fatal(err)
	}
	elem := document.Element{Name: "index.html", ContentType: "text/html", Data: []byte("<p>seed</p>")}
	items := []BatchWireItem{{Name: "index.html", Wire: EncodeElement(elem)}, {Name: "logo.png", ErrMsg: "declined"}}
	seeds := map[byte][]byte{
		fuzzElement:          EncodeElement(elem),
		fuzzElementsRequest:  EncodeElementsRequest(oid, []string{"a", "b"}, "paris"),
		fuzzElementsResponse: EncodeElementsResponse(items),
		fuzzCertList:         EncodeCertList([]*cert.NameCertificate{nc}),
		fuzzBindRequest:      EncodeBindRequest(BindRequest{OID: oid, FromSite: "paris", NameCerts: true, Names: []string{"a"}, At: time.Unix(1e9, 5)}),
		fuzzBindReply:        EncodeBindReply(owner.Public().Marshal(), EncodeCertList([]*cert.NameCertificate{nc}), []byte("icert"), items),
	}
	for kind, seed := range seeds {
		f.Add(append([]byte{kind}, seed...))
		f.Add([]byte{kind})
	}
	f.Add(append([]byte{fuzzBindRequest}, EncodeBindRequest(BindRequest{OID: oid, All: true})...))
	f.Add(append([]byte{fuzzElementsRequest}, EncodeElementsRequest(oid, nil, "")...))
	f.Add(append([]byte{fuzzCertList}, EncodeCertList(nil)...))
	// A warm bind names the certificate it holds: one seed per request it
	// makes — a refresh asking for no element, a miss asking for some, a
	// FetchAll asking for all.
	have := globeid.HashElement([]byte("icert"))
	for _, req := range []BindRequest{
		{OID: oid, Have: have, At: time.Unix(1e9, 5)},
		{OID: oid, FromSite: "paris", Have: have, Names: []string{"a", "b"}, At: time.Unix(1e9, 5)},
		{OID: oid, Have: have, All: true},
	} {
		f.Add(append([]byte{fuzzBindRequest}, EncodeBindRequest(req)...))
	}
	f.Add(append([]byte{fuzzBindReply}, EncodeBindReply(nil, nil, nil, items)...))
	// A lapse's refresh names the hash each cached element is held under,
	// and the replica answers an unchanged one held.
	held := BindRequest{OID: oid, Have: have, Names: []string{"a", "b"}, Held: [][globeid.Size]byte{globeid.HashElement([]byte("a")), {}}, At: time.Unix(1e9, 5)}
	f.Add(append([]byte{fuzzBindRequest}, EncodeBindRequest(held)...))
	heldItems := []BatchWireItem{{Name: "a", Held: true}, {Name: "b", Wire: EncodeElement(elem)}}
	f.Add(append([]byte{fuzzBindReply}, EncodeBindReply(nil, nil, []byte("icert"), heldItems)...))
	// An element carried under another item's name decodes with its own
	// name; a bare count claiming a full list is refused before any item
	// is allocated.
	f.Add(append([]byte{fuzzBindReply}, EncodeBindReply(nil, nil, nil, []BatchWireItem{{Name: "a", Wire: EncodeElement(elem)}})...))
	f.Add([]byte{fuzzBindReply, 0, 0, 0, 0x80, 0x80, 0x04})
	f.Add([]byte{fuzzCertList, 0x80, 0x08})

	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) == 0 {
			return
		}
		data := input[1:]
		same := func(enc []byte) {
			t.Helper()
			if !bytes.Equal(enc, data) {
				t.Fatalf("decoder %d accepted %x, which encodes back as %x", input[0]%fuzzDecoders, data, enc)
			}
		}
		bounded := func(n, limit int) {
			t.Helper()
			if n > limit {
				t.Fatalf("decoder %d accepted %d entries, bound %d", input[0]%fuzzDecoders, n, limit)
			}
		}
		switch input[0] % fuzzDecoders {
		case fuzzElement:
			if e, err := DecodeElement(data); err == nil {
				same(EncodeElement(e))
			}
		case fuzzElementsRequest:
			if oid, names, site, err := DecodeElementsRequest(data); err == nil {
				bounded(len(names), maxBatchNames)
				same(EncodeElementsRequest(oid, names, site))
			}
		case fuzzElementsResponse:
			if got, err := DecodeElementsResponse(data); err == nil {
				bounded(len(got), maxBatchNames)
				again, err := DecodeElementsResponse(EncodeElementsResponse(rewire(got)))
				if err != nil || !sameItems(got, again) {
					t.Fatalf("batch %+v re-decodes as %+v, %v", got, again, err)
				}
			}
		case fuzzCertList:
			if certs, err := DecodeCertList(data); err == nil {
				bounded(len(certs), 1024)
				same(EncodeCertList(certs))
			}
		case fuzzBindRequest:
			if req, err := DecodeBindRequest(data); err == nil {
				bounded(len(req.Names), maxBatchNames)
				if req.All && len(req.Names) > 0 {
					t.Fatalf("bind request for all elements lists %d", len(req.Names))
				}
				if req.Have != ([globeid.Size]byte{}) && req.NameCerts {
					t.Fatal("bind request that holds a certificate asks for name certificates")
				}
				if req.Held != nil && (len(req.Held) != len(req.Names) || req.Have == ([globeid.Size]byte{}) || req.All) {
					t.Fatalf("bind request holds %d elements for %d names (all %v, have %x)", len(req.Held), len(req.Names), req.All, req.Have)
				}
				same(EncodeBindRequest(req))
			}
		case fuzzBindReply:
			if got, err := DecodeBindReply(data); err == nil {
				bounded(len(got.Items), maxBatchNames)
				again, err := DecodeBindReply(EncodeBindReply(got.Key, got.NameCerts, got.Cert, rewire(got.Items)))
				if err != nil || !bytes.Equal(again.Key, got.Key) || !bytes.Equal(again.NameCerts, got.NameCerts) ||
					!bytes.Equal(again.Cert, got.Cert) || !sameItems(got.Items, again.Items) {
					t.Fatalf("bind reply %+v re-decodes as %+v, %v", got, again, err)
				}
			}
		}
	})
}

// rewire turns decoded batch items back into the form a server encodes.
func rewire(items []BatchItem) []BatchWireItem {
	out := make([]BatchWireItem, len(items))
	for i, it := range items {
		switch {
		case it.Held:
			out[i] = BatchWireItem{Name: it.Name, Held: true}
		case it.Err != nil:
			out[i] = BatchWireItem{Name: it.Name, ErrMsg: "declined"}
		default:
			out[i] = BatchWireItem{Name: it.Name, Wire: EncodeElement(it.Element)}
		}
	}
	return out
}

// sameItems compares two decoded batches slot by slot: the same names,
// the same elements, declines and held items in the same places.
func sameItems(a, b []BatchItem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Name != y.Name || (x.Err == nil) != (y.Err == nil) || x.Held != y.Held || x.Element.Name != y.Element.Name ||
			x.Element.ContentType != y.Element.ContentType || !bytes.Equal(x.Element.Data, y.Element.Data) {
			return false
		}
	}
	return true
}
