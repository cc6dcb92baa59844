package server_test

import (
	"bytes"
	"testing"
	"time"

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
// encodings, so a forged delta can at worst fail validation later.
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
	hdr := &server.VersionHeader{OID: oid, Version: icert.Version, CertHash: globeid.HashElement(icert.Marshal())}
	// Only a current reply carries a version of its own; a delta's or full
	// reply's is its certificate's.
	ok := &server.DeltaReply{
		Headers: []*server.VersionHeader{hdr},
		Key:     owner.Public(),
		Cert:    icert,
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
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x01}, 21))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := server.UnmarshalDeltaReply(data)
		if err != nil {
			return
		}
		if !bytes.Equal(got.Marshal(), data) {
			t.Fatalf("accepted non-canonical delta encoding")
		}
	})
}

// FuzzUnmarshalVersionHeader feeds arbitrary bytes to the version-header
// decoder, which reads the chain headers a primary sends in a delta
// reply. What it accepts must re-encode to exactly the input: a header
// with two encodings would have two chain hashes.
func FuzzUnmarshalVersionHeader(f *testing.F) {
	owner := keytest.Ed()
	hdr := &server.VersionHeader{
		OID:      globeid.FromPublicKey(owner.Public()),
		Version:  300,
		CertHash: globeid.HashElement([]byte("cert")),
		ElemRoot: globeid.HashElement([]byte("root")),
		Prev:     globeid.HashElement([]byte("prev")),
	}
	f.Add(hdr.Marshal())
	f.Add((&server.VersionHeader{}).Marshal())
	// Version 0 padded to two varint bytes: must be refused.
	padded := (&server.VersionHeader{}).Marshal()
	f.Add(append(append(padded[:globeid.Size:globeid.Size], 0x80, 0x00), padded[globeid.Size+1:]...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := server.UnmarshalVersionHeader(data)
		if err != nil {
			return
		}
		if got := h.Marshal(); !bytes.Equal(got, data) {
			t.Fatalf("UnmarshalVersionHeader accepted a non-canonical encoding:\n in  %x\n out %x", data, got)
		}
	})
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
