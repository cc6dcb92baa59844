package cert_test

import (
	"bytes"
	"testing"
	"time"

	"globedoc/internal/cert"
	"globedoc/internal/globeid"
	"globedoc/internal/keys/keytest"
)

// FuzzUnmarshalIntegrityCertificate checks the decoder never panics on
// arbitrary bytes and that anything it accepts re-marshals to the same
// encoding (canonical form). Marshal encodes afresh, and Encodes — the
// field-by-field check VerifyEncoding makes before it trusts a held
// encoding — accepts the input and refuses it once a field differs.
func FuzzUnmarshalIntegrityCertificate(f *testing.F) {
	owner := keytest.Ed()
	oid := globeid.FromPublicKey(owner.Public())
	c := &cert.IntegrityCertificate{ObjectID: oid, Version: 3, Issued: time.Unix(1e9, 0)}
	c.Entries = []cert.ElementEntry{{
		Name: "index.html", Hash: globeid.HashElement([]byte("x")),
		NotBefore: time.Unix(1e9, 0), Expires: time.Unix(2e9, 0),
	}}
	if err := c.Sign(owner); err != nil {
		f.Fatal(err)
	}
	f.Add(c.Marshal())
	// Several names, an empty one among them, decoded into one string.
	c.Entries = append(c.Entries,
		cert.ElementEntry{Name: "", Expires: time.Unix(2e9, 0)},
		cert.ElementEntry{Name: "img/logo.png", Hash: globeid.HashElement([]byte("y")), Expires: time.Unix(2e9, 0)})
	if err := c.Sign(owner); err != nil {
		f.Fatal(err)
	}
	f.Add(c.Marshal())
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := cert.UnmarshalIntegrityCertificate(data)
		if err != nil {
			return
		}
		if !bytes.Equal(got.Marshal(), data) {
			t.Fatalf("accepted non-canonical encoding")
		}
		if !got.Encodes(data) {
			t.Fatalf("Encodes refuses the bytes the certificate was decoded from")
		}
		got.Version++
		if got.Encodes(data) {
			t.Fatalf("Encodes accepts bytes of another version")
		}
	})
}

// FuzzUnmarshalNameCertificate mirrors the above for name certificates.
func FuzzUnmarshalNameCertificate(f *testing.F) {
	ca := &cert.CA{Name: "CA", Key: keytest.Ed()}
	oid := globeid.FromPublicKey(keytest.Ed().Public())
	nc, err := ca.IssueNameCertificate(oid, "Subject", time.Unix(1e9, 0), time.Unix(2e9, 0))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(nc.Marshal())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := cert.UnmarshalNameCertificate(data)
		if err != nil {
			return
		}
		if !bytes.Equal(got.Marshal(), data) {
			t.Fatalf("accepted non-canonical encoding")
		}
	})
}
