package server_test

import (
	"bytes"
	"encoding/hex"
	"testing"
	"time"

	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/server"
)

// TestVersionHeadersGolden pins, as bytes, the chain commitments of a
// fixed object — a deterministic Ed25519 owner, three elements, then an
// update of one — so that how a replica indexes, encodes and verifies a
// version can change while what remote replicas compare cannot: each
// header's CertHash, ElemRoot and chain hash.
func TestVersionHeadersGolden(t *testing.T) {
	owner, err := keys.GenerateFrom(keys.Ed25519, bytes.NewReader(bytes.Repeat([]byte{7}, 32)))
	if err != nil {
		t.Fatal(err)
	}
	oid := globeid.FromPublicKey(owner.Public())
	issued := time.Date(2005, 4, 4, 12, 0, 0, 0, time.UTC)
	doc := document.New()
	for _, e := range []document.Element{
		{Name: "index.html", Data: []byte("<html>GlobeDoc</html>")},
		{Name: "logo.png", Data: make([]byte, 4096)},
		{Name: "style.css", Data: []byte("body{}")},
	} {
		if err := doc.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	s := server.New("golden", "site", nil, nil, server.Limits{})
	for i, op := range []func(*server.Bundle, string) error{s.Install, s.Update} {
		if i > 0 {
			if err := doc.Put(document.Element{Name: "index.html", Data: []byte("<html>v2</html>")}); err != nil {
				t.Fatal(err)
			}
		}
		icert, err := document.IssueCertificate(doc, oid, owner, issued.Add(time.Duration(i)*time.Minute), document.UniformTTL(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		if err := op(server.BundleFromDocument(oid, owner.Public(), doc, icert, nil), "owner"); err != nil {
			t.Fatal(err)
		}
	}
	chain, err := s.VersionChain(oid)
	if err != nil || len(chain) != 2 {
		t.Fatalf("chain of %d headers, %v", len(chain), err)
	}
	want := [][3]string{
		{"638460a76c84fc585e8acb96f3606d08024d9d75", "78c1be6f8cc5796eece26a9ba01d4b702c998267", "9a9c7cdd0d605789150ca4e0f564b89f55ad3eaa"},
		{"275117118570dd453aeef6cd85553f99b18f8c08", "c3f46ac8b32b925026dbf199bca5e8a32d7caaa8", "8212eec9a6a00f6943d89e568244ad8354ce7406"},
	}
	for i, h := range chain {
		hash := h.Hash()
		got := [3]string{hex.EncodeToString(h.CertHash[:]), hex.EncodeToString(h.ElemRoot[:]), hex.EncodeToString(hash[:])}
		if got != want[i] {
			t.Errorf("version %d: CertHash, ElemRoot, header hash = %q, want %q", h.Version, got, want[i])
		}
	}
}
