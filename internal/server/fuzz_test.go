package server_test

import (
	"bytes"
	"testing"
	"time"

	"globedoc/internal/cert"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/server"
)

// FuzzUnmarshalBundle checks the replica-bundle decoder — the surface an
// untrusted peer server controls — never panics and only accepts
// canonical encodings. A bundle carries no version of its own: its
// version is its certificate's.
func FuzzUnmarshalBundle(f *testing.F) {
	owner := keytest.Ed()
	oid := globeid.FromPublicKey(owner.Public())
	doc := document.New()
	if err := doc.Put(document.Element{Name: "index.html", Data: []byte("seed")}); err != nil {
		f.Fatal(err)
	}
	icert, err := document.IssueCertificate(doc, oid, owner, time.Unix(1e9, 0), document.UniformTTL(time.Hour))
	if err != nil {
		f.Fatal(err)
	}
	bundle := server.BundleFromDocument(oid, owner.Public(), doc, icert, nil)
	f.Add(bundle.Marshal())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x01}, 21))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := server.UnmarshalBundle(data)
		if err != nil {
			return
		}
		if !bytes.Equal(got.Marshal(), data) {
			t.Fatalf("accepted non-canonical encoding")
		}
		// Validation must never panic either, whatever was decoded.
		_ = got.Validate()
	})
}

// FuzzDeltaDecode checks the obj.getdelta reply decoder — bytes a lying
// primary fully controls — never panics and only accepts canonical
// encodings, so a forged delta can at worst fail validation later. The
// certificate bytes a reply carries are what the puller compares with
// the encoding it serves and what the replica then serves, so they must
// be the decoded certificate's fresh encoding. (The key's kept encoding
// is pinned canonical by FuzzUnmarshalPublicKey.)
func FuzzDeltaDecode(f *testing.F) {
	owner := keytest.Ed()
	oid := globeid.FromPublicKey(owner.Public())
	doc := document.New()
	if err := doc.Put(document.Element{Name: "index.html", ContentType: "text/html", Data: []byte("seed")}); err != nil {
		f.Fatal(err)
	}
	if err := doc.Put(document.Element{Name: "logo.png", ContentType: "image/png", Data: []byte("png")}); err != nil {
		f.Fatal(err)
	}
	icert, err := document.IssueCertificate(doc, oid, owner, time.Unix(1e9, 0), document.UniformTTL(time.Hour))
	if err != nil {
		f.Fatal(err)
	}
	// Only a current reply carries a version of its own; a delta's or full
	// reply's is its certificate's.
	ok := &server.DeltaReply{
		Key:  owner.Public(),
		Cert: icert,
		Items: []server.DeltaItem{
			{Name: "index.html", Changed: true, Element: document.Element{Name: "index.html", ContentType: "text/html", Data: []byte("seed")}},
			{Name: "logo.png"},
		},
	}
	f.Add(ok.Marshal())
	f.Add((&server.DeltaReply{Current: true, NewVersion: 7}).Marshal())
	full := *ok
	full.FullRequired = true
	full.Items = []server.DeltaItem{
		ok.Items[0],
		{Name: "logo.png", Changed: true, Element: document.Element{Name: "logo.png", ContentType: "image/png", Data: []byte("png")}},
	}
	f.Add(full.Marshal())
	// A truncated delta: it decodes, and only the completeness rule
	// refuses the bundle composed from it.
	truncated := *ok
	truncated.Items = ok.Items[1:]
	f.Add(truncated.Marshal())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x01}, 21))
	// What a served replica answers: a delta and a full reply as
	// obj.getdelta writes them, from the head's encodings.
	for _, reply := range servedDeltas(f) {
		f.Add(reply)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := server.UnmarshalDeltaReply(data)
		if err != nil {
			return
		}
		if !bytes.Equal(got.Marshal(), data) {
			t.Fatalf("accepted non-canonical delta encoding")
		}
		if got.Current {
			return
		}
		carried := server.CarriedCert(got)
		if !bytes.Equal(carried, got.Cert.Marshal()) {
			t.Fatalf("carried certificate bytes %x are not the decoded certificate's encoding", carried)
		}
	})
}

// servedDeltas returns what a served replica answers obj.getdelta
// with — a delta (to have-version 1) and the full state (to 0) — from a
// server that installed a two-element document with a name certificate
// and then took an update of one element.
func servedDeltas(f testing.TB) [][]byte {
	f.Helper()
	owner := keytest.Ed()
	oid := globeid.FromPublicKey(owner.Public())
	issued := time.Unix(1e9, 0)
	ca := &cert.CA{Name: "CA", Key: keytest.Ed()}
	nc, err := ca.IssueNameCertificate(oid, "Subject Corp", issued, issued.Add(time.Hour))
	if err != nil {
		f.Fatal(err)
	}
	s := server.New("fuzz-srv", "site", nil, nil, server.Limits{})
	doc := document.New()
	publish := func(op func(*server.Bundle, string) error, elems ...document.Element) {
		for _, e := range elems {
			if err := doc.Put(e); err != nil {
				f.Fatal(err)
			}
		}
		icert, err := document.IssueCertificate(doc, oid, owner, issued, document.UniformTTL(time.Hour))
		if err != nil {
			f.Fatal(err)
		}
		if err := op(server.BundleFromDocument(oid, owner.Public(), doc, icert, []*cert.NameCertificate{nc}), "owner"); err != nil {
			f.Fatal(err)
		}
	}
	publish(s.Install,
		document.Element{Name: "index.html", ContentType: "text/html", Data: []byte("v1")},
		document.Element{Name: "logo.png", ContentType: "image/png", Data: []byte("png")})
	publish(s.Update, document.Element{Name: "index.html", ContentType: "text/html", Data: []byte("v2")})
	var replies [][]byte
	for _, have := range []uint64{1, 0} {
		reply, err := server.HandleGetDelta(s, server.EncodeDeltaRequest(oid, have))
		if err != nil {
			f.Fatal(err)
		}
		replies = append(replies, reply)
	}
	return replies
}

// FuzzDecodeDeltaRequest feeds arbitrary bytes to the obj.getdelta
// request decoder, which a primary runs on what any secondary sends. What
// it accepts must re-encode to exactly the input.
func FuzzDecodeDeltaRequest(f *testing.F) {
	oid := globeid.FromPublicKey(keytest.Ed().Public())
	f.Add(server.EncodeDeltaRequest(oid, 0))
	f.Add(server.EncodeDeltaRequest(oid, 1<<40))
	// have = 0 padded to two varint bytes: must be refused.
	f.Add(append(server.EncodeDeltaRequest(oid, 0)[:1+globeid.Size], 0x80, 0x00))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		oid, have, err := server.DecodeDeltaRequest(data)
		if err != nil {
			return
		}
		if got := server.EncodeDeltaRequest(oid, have); !bytes.Equal(got, data) {
			t.Fatalf("DecodeDeltaRequest accepted a non-canonical encoding:\n in  %x\n out %x", data, got)
		}
	})
}
