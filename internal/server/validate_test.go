package server

// Tests for the rule that validation hashes only fresh bytes: an element
// is taken without hashing only when its certificate hash is the held
// version's entry for it and its bytes are the held bytes. Anything else
// — new bytes under an old hash, old bytes under a new hash — is hashed,
// and refused when it does not match, on the owner's Update and on the
// puller's apply alike.

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/object"
)

// heldServer hosts four 1 KiB elements at version 1 and returns the
// server, the owner and the elements as installed.
func heldServer(t *testing.T) (*Server, *keys.KeyPair, []document.Element) {
	t.Helper()
	owner := keytest.Ed()
	elems := make([]document.Element, 4)
	for i, name := range headNames(len(elems)) {
		elems[i] = document.Element{Name: name, ContentType: "text/html", Data: bytes.Repeat([]byte{byte('a' + i)}, 1<<10)}
	}
	s := New("validate-srv", "site", nil, nil, Limits{})
	b := signedBundle(t, owner, 1, elems)
	v, err := b.validate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.hashed != len(elems) {
		t.Fatalf("an install hashed %d of %d elements, want every one", v.hashed, len(elems))
	}
	if err := s.Install(b, "owner"); err != nil {
		t.Fatal(err)
	}
	return s, owner, elems
}

// certifiedAs signs, at version, a bundle of elems whose certificate
// lists each element under listed[name] where that is set and under the
// element's own hash otherwise.
func certifiedAs(t *testing.T, owner *keys.KeyPair, version uint64, elems []document.Element, listed map[string][globeid.Size]byte) *Bundle {
	t.Helper()
	b := signedBundle(t, owner, version, elems)
	for i, e := range b.Cert.Entries {
		if h, ok := listed[e.Name]; ok {
			b.Cert.Entries[i].Hash = h
		}
	}
	if err := b.Cert.Sign(owner); err != nil {
		t.Fatal(err)
	}
	return b
}

// heldElements returns the served head's elements: views of the held
// payloads, as a pulled delta's unchanged items are.
func heldElements(t *testing.T, s *Server, oid globeid.OID) []document.Element {
	t.Helper()
	h, err := s.replica(oid)
	if err != nil {
		t.Fatal(err)
	}
	return h.head().bundle(h.key).Elements
}

func TestValidateHashesOnlyFreshBytes(t *testing.T) {
	s, owner, elems := heldServer(t)
	oid := globeid.FromPublicKey(owner.Public())
	h, _ := s.replica(oid)
	changed := document.Element{Name: elems[0].Name, ContentType: "text/html", Data: []byte("v2")}
	for _, tc := range []struct {
		name   string
		others []document.Element
	}{
		{"owner's copies of the held bytes", elems[1:]},
		{"the held slices themselves", heldElements(t, s, oid)[1:]},
	} {
		b := signedBundle(t, owner, 2, append([]document.Element{changed}, tc.others...))
		v, err := b.validate(h.head())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if v.hashed != 1 {
			t.Errorf("%s: an update changing 1 of %d elements hashed %d", tc.name, len(elems), v.hashed)
		}
	}
}

// TestUpdateRefusesFreshBytesUnderHeldHash: bytes that differ from the
// held ones are hashed even when the certificate lists the held hash.
func TestUpdateRefusesFreshBytesUnderHeldHash(t *testing.T) {
	s, owner, elems := heldServer(t)
	forged := append([]document.Element(nil), elems...)
	forged[1] = document.Element{Name: elems[1].Name, ContentType: "text/html", Data: []byte("not what was hashed")}
	b := certifiedAs(t, owner, 2, forged, map[string][globeid.Size]byte{elems[1].Name: elems[1].Hash()})
	err := s.Update(b, "owner")
	if err == nil || !strings.Contains(err.Error(), "does not match certificate hash") {
		t.Fatalf("Update = %v, want the element refused", err)
	}
	if v := mustVersion(t, s, b.OID); v != 1 {
		t.Fatalf("replica at version %d after a refused update", v)
	}
}

// TestUpdateRefusesHeldBytesUnderFreshHash: the held bytes themselves are
// hashed when the certificate lists another hash for them.
func TestUpdateRefusesHeldBytesUnderFreshHash(t *testing.T) {
	s, owner, elems := heldServer(t)
	oid := globeid.FromPublicKey(owner.Public())
	b := certifiedAs(t, owner, 2, heldElements(t, s, oid), map[string][globeid.Size]byte{elems[1].Name: globeid.HashElement([]byte("other"))})
	err := s.Update(b, "owner")
	if err == nil || !strings.Contains(err.Error(), "does not match certificate hash") {
		t.Fatalf("Update = %v, want the element refused", err)
	}
	if v := mustVersion(t, s, oid); v != 1 {
		t.Fatalf("replica at version %d after a refused update", v)
	}
}

// TestApplyHashesWhatTheReplyClaims drives the puller's apply with
// complete replies whose certificate is genuinely signed and supersedes
// the held one, so only the element check stands between them and the
// replica: an item sent as changed under the held hash, and an item
// claimed unchanged (so the held slice is taken) under a new hash.
func TestApplyHashesWhatTheReplyClaims(t *testing.T) {
	s, owner, elems := heldServer(t)
	oid := globeid.FromPublicKey(owner.Public())
	p := &Puller{server: s, oid: oid, owner: "owner"}
	for _, tc := range []struct {
		name    string
		changed bool
		data    []byte
		listed  [globeid.Size]byte
	}{
		{"fresh bytes under the held hash", true, []byte("not what was hashed"), elems[1].Hash()},
		{"held bytes under a fresh hash", false, nil, globeid.HashElement([]byte("other"))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, _ := s.replica(oid)
			local := h.head()
			b := certifiedAs(t, owner, 2, elems, map[string][globeid.Size]byte{elems[1].Name: tc.listed})
			d := &DeltaReply{Key: owner.Public(), Cert: b.Cert}
			for i, e := range elems {
				it := object.BatchItem{Name: e.Name, Held: true}
				if i == 1 && tc.changed {
					it = object.BatchItem{Name: e.Name, Element: document.Element{Name: e.Name, ContentType: e.ContentType, Data: tc.data}}
				}
				d.Items = append(d.Items, it)
			}
			wire, err := UnmarshalDeltaReply(d.Marshal())
			if err != nil {
				t.Fatal(err)
			}
			installed, _, err := p.apply(wire, local)
			if installed || err == nil || !strings.Contains(err.Error(), "does not match certificate hash") {
				t.Fatalf("apply = %v, %v; want the element refused", installed, err)
			}
			if v := mustVersion(t, s, oid); v != 1 {
				t.Fatalf("replica at version %d after a refused reply", v)
			}
		})
	}
}

// TestValidateServesTheBytesItVerified: a bundle that arrived encoded
// keeps its certificate's encoding, and the version built from it serves
// exactly those bytes; once the decoded certificate no longer matches
// them, validation encodes it afresh and verifies that instead.
func TestValidateServesTheBytesItVerified(t *testing.T) {
	owner := keytest.Ed()
	b := signedBundle(t, owner, 1, []document.Element{{Name: "index.html", ContentType: "text/html", Data: []byte("hi")}})
	got, err := UnmarshalBundle(b.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	v, err := got.validate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if &v.icert[0] != &got.certWire[0] {
		t.Error("validation encoded a certificate that arrived encoded")
	}
	got.Cert.Issued = got.Cert.Issued.Add(time.Second) // no longer what was signed
	if _, err := got.validate(nil); err == nil || !strings.Contains(err.Error(), "signature invalid") {
		t.Fatalf("validate after a change to the decoded certificate = %v, want its signature refused", err)
	}
	if err := got.Cert.Sign(owner); err != nil {
		t.Fatal(err)
	}
	if v, err := got.validate(nil); err != nil || !bytes.Equal(v.icert, got.Cert.Marshal()) {
		t.Fatalf("a re-signed certificate: %v; want it verified and served as encoded now", err)
	}
}

// TestValidateRefusesARepeatedName: a version holds one element per name,
// so a bundle that lists a name twice is refused, even when both copies
// match the certificate — and one that lists its names out of order is
// put in order.
func TestValidateRefusesARepeatedName(t *testing.T) {
	owner := keytest.Ed()
	a := document.Element{Name: "a.html", ContentType: "text/html", Data: []byte("a")}
	b := document.Element{Name: "b.html", ContentType: "text/html", Data: []byte("b")}
	twice := signedBundle(t, owner, 1, []document.Element{a, b})
	twice.Elements = []document.Element{a, b, a}
	if err := twice.Validate(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("Validate = %v, want the repeated name refused", err)
	}
	reversed := signedBundle(t, owner, 1, []document.Element{b, a})
	v, err := reversed.validate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.elems[0].Name != "a.html" || v.elems[1].Name != "b.html" || reversed.Elements[0].Name != "b.html" {
		t.Fatalf("validated %v; want name order, the bundle left as given", v.elems)
	}
}
