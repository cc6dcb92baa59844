package server

// Internal tests for the retained versions and the delta computation
// they feed: retention of the last signed versions, the refusal of an
// update that does not advance the signed version or lacks a listed
// element, and DeltaSince's changed-only item selection with the
// full-required decline for evicted versions.

import (
	"bytes"
	"context"
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"globedoc/internal/cert"
	"globedoc/internal/document"
	"globedoc/internal/enc"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/object"
)

// updateAt publishes the server's hosted state with one element
// replaced under a certificate signed at the given version, via the
// normal Update path.
func updateAt(tb testing.TB, s *Server, owner *keys.KeyPair, version uint64, name string, data []byte) *Bundle {
	tb.Helper()
	b := bundleAt(tb, s, owner, version, name, data)
	if err := s.Update(b, "owner"); err != nil {
		tb.Fatal(err)
	}
	return b
}

// bundleAt is the bundle updateAt publishes.
func bundleAt(tb testing.TB, s *Server, owner *keys.KeyPair, version uint64, name string, data []byte) *Bundle {
	tb.Helper()
	b, err := s.ExportBundle(globeid.FromPublicKey(owner.Public()))
	if err != nil {
		tb.Fatal(err)
	}
	doc := document.New()
	for _, e := range append(b.Elements, document.Element{Name: name, ContentType: "text/html", Data: data}) {
		if err := doc.Put(e); err != nil {
			tb.Fatal(err)
		}
	}
	return signedBundle(tb, owner, version, doc.Snapshot())
}

// TestVersionChainLinksOnUpdate: a fresh install retains one version,
// every update appends its certificate's signed version in increasing
// order, and the head is the served version, holding the hash of the
// certificate encoding obj.getcert serves.
func TestVersionChainLinksOnUpdate(t *testing.T) {
	s, oid, owner := newWireServer(t, 64)
	h, err := s.replica(oid)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(h.versions()); got != 1 {
		t.Fatalf("fresh install retains %d versions, want 1", got)
	}
	v := mustVersion(t, s, oid)
	for i := 1; i <= 3; i++ {
		updateAt(t, s, owner, v+uint64(i), "index.html", []byte{byte(i)})
	}
	versions := h.versions()
	if len(versions) != 4 {
		t.Fatalf("%d versions retained, want 4", len(versions))
	}
	for i := 1; i < len(versions); i++ {
		if versions[i].version <= versions[i-1].version {
			t.Errorf("versions not increasing at index %d", i)
		}
	}
	head := versions[len(versions)-1]
	if head.version != mustVersion(t, s, oid) {
		t.Errorf("head version %d, served version %d", head.version, mustVersion(t, s, oid))
	}
	served, err := joined(s.handleGetCert(context.Background(), object.EncodeOIDRequest(oid)))
	if err != nil {
		t.Fatal(err)
	}
	if head.certHash != globeid.HashElement(served) {
		t.Error("head certHash does not commit to the served certificate")
	}
}

// TestVersionChainRetentionTrims: only the last DefaultVersionRetention
// signed versions are kept, in increasing order, and the head serves the
// last one.
func TestVersionChainRetentionTrims(t *testing.T) {
	const updates = DefaultVersionRetention + 3
	s, oid, owner := newWireServer(t, 64)
	h, err := s.replica(oid)
	if err != nil {
		t.Fatal(err)
	}
	v := mustVersion(t, s, oid)
	for i := 1; i <= updates; i++ {
		updateAt(t, s, owner, v+uint64(i), "index.html", []byte{byte(i)})
		if got := len(h.versions()); got != min(i+1, DefaultVersionRetention) {
			t.Fatalf("after update %d: %d versions retained", i, got)
		}
	}
	versions := h.versions()
	for i, snap := range versions {
		if want := v + updates - uint64(len(versions)-1-i); snap.version != want {
			t.Errorf("retained version %d is v%d, want v%d", i, snap.version, want)
		}
	}
	b, err := s.ExportBundle(oid)
	if err != nil {
		t.Fatal(err)
	}
	if b.Cert.Version != v+updates {
		t.Errorf("served certificate at v%d, want v%d", b.Cert.Version, v+updates)
	}
}

// TestUpdateRefusesNonAdvancingVersion: the signed version alone orders
// states, so an update at a lower version, or at the head's version under
// a different certificate, is refused and the served state and the
// retained versions stay as they were.
func TestUpdateRefusesNonAdvancingVersion(t *testing.T) {
	s, oid, owner := newWireServer(t, 64)
	v := mustVersion(t, s, oid)
	updateAt(t, s, owner, v+1, "index.html", []byte("v2"))
	h, err := s.replica(oid)
	if err != nil {
		t.Fatal(err)
	}
	served := func() []byte {
		b, err := s.ExportBundle(oid)
		if err != nil {
			t.Fatal(err)
		}
		out := b.Marshal()
		for _, snap := range h.versions() {
			out = binary.AppendUvarint(out, snap.version)
		}
		return out
	}
	before := served()
	for _, tc := range []struct {
		name    string
		version uint64
	}{
		{"lower version", v},
		{"same version, different certificate", v + 1},
	} {
		b := bundleAt(t, s, owner, tc.version, "index.html", []byte("rewound"))
		if err := s.Update(b, "owner"); err == nil || !strings.Contains(err.Error(), "not increasing") {
			t.Errorf("%s: Update = %v, want refused as not increasing", tc.name, err)
		}
		if !bytes.Equal(served(), before) {
			t.Fatalf("%s: a refused update changed the served state", tc.name)
		}
	}
}

// TestPublishRefusesAnIncompleteBundle: a replica is the full state its
// certificate lists, so a genuinely signed bundle that lacks one listed
// element is refused by Install and by Update — whether the missing
// element is the one that changed or one that did not — and what is
// served stays byte-identical.
func TestPublishRefusesAnIncompleteBundle(t *testing.T) {
	s, owner, elems := heldServer(t)
	oid := globeid.FromPublicKey(owner.Public())
	without := func(b *Bundle, name string) *Bundle {
		kept := make([]document.Element, 0, len(b.Elements))
		for _, e := range b.Elements {
			if e.Name != name {
				kept = append(kept, e)
			}
		}
		b.Elements = kept
		return b
	}
	const lacks = "lacks 1 of the 4 elements its certificate lists"

	fresh := New("install-srv", "site", nil, nil, Limits{})
	if err := fresh.Install(without(signedBundle(t, owner, 1, elems), elems[2].Name), "owner"); err == nil || !strings.Contains(err.Error(), lacks) {
		t.Fatalf("Install = %v, want the incomplete bundle refused", err)
	}
	if fresh.Hosts(oid) || fresh.StoredBytes() != 0 {
		t.Fatal("a refused install left a replica behind")
	}

	before, err := s.ExportBundle(oid)
	if err != nil {
		t.Fatal(err)
	}
	changed := append([]document.Element(nil), elems...)
	changed[1] = document.Element{Name: elems[1].Name, ContentType: "text/html", Data: []byte("v2")}
	for _, missing := range []string{elems[1].Name, elems[3].Name} {
		b := without(signedBundle(t, owner, 2, changed), missing)
		if err := s.Update(b, "owner"); err == nil || !strings.Contains(err.Error(), lacks) {
			t.Fatalf("Update without %q = %v, want the incomplete bundle refused", missing, err)
		}
		after, err := s.ExportBundle(oid)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after.Marshal(), before.Marshal()) {
			t.Fatalf("a refused update without %q changed the served state", missing)
		}
	}
}

// mustVersion returns the version a hosted replica serves.
func mustVersion(tb testing.TB, s *Server, oid globeid.OID) uint64 {
	tb.Helper()
	h, err := s.replica(oid)
	if err != nil {
		tb.Fatal(err)
	}
	return h.head().version
}

func TestDeltaSinceReturnsOnlyChangedElements(t *testing.T) {
	s, oid, owner := newWireServer(t, 256)
	have := mustVersion(t, s, oid)
	updateAt(t, s, owner, have+1, "index.html", []byte("changed body"))

	d, err := s.DeltaSince(oid, have)
	if err != nil {
		t.Fatal(err)
	}
	if d.FullRequired || d.Current {
		t.Fatalf("retained version answered FullRequired=%v Current=%v, want a delta", d.FullRequired, d.Current)
	}
	if d.Cert.Version != have+1 {
		t.Errorf("certificate version = %d, want %d", d.Cert.Version, have+1)
	}
	changed, unchanged := 0, 0
	for _, it := range d.Items {
		if it.Changed {
			changed++
			if it.Name != "index.html" {
				t.Errorf("unexpected changed item %q", it.Name)
			}
			if string(it.Element.Data) != "changed body" {
				t.Errorf("changed item carries %q", it.Element.Data)
			}
		} else {
			unchanged++
			if len(it.Element.Data) != 0 {
				t.Errorf("unchanged item %q carries element bytes", it.Name)
			}
		}
	}
	if changed != 1 || unchanged != 2 {
		t.Fatalf("changed=%d unchanged=%d, want 1 and 2", changed, unchanged)
	}
}

func TestDeltaSinceDeclinesEvictedVersion(t *testing.T) {
	const updates = DefaultVersionRetention + 2
	s, oid, owner := newWireServer(t, 64)
	have := mustVersion(t, s, oid)
	for i := 1; i <= updates; i++ {
		updateAt(t, s, owner, have+uint64(i), "index.html", []byte{byte(i)})
	}
	d, err := s.DeltaSince(oid, have) // long evicted
	if err != nil {
		t.Fatal(err)
	}
	if !d.FullRequired {
		t.Fatal("evicted have-version did not get the full state")
	}
	if d.Cert.Version != have+updates || d.NewVersion != 0 {
		t.Errorf("full reply at certificate version %d, NewVersion %d; want %d and none", d.Cert.Version, d.NewVersion, have+updates)
	}
	// The full state: every element.
	for _, it := range d.Items {
		if !it.Changed {
			t.Fatalf("full reply marks %q unchanged", it.Name)
		}
	}
	// Version 0 is never retained: it asks for the full state.
	d, err = s.DeltaSince(oid, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !d.FullRequired || d.Cert == nil {
		t.Fatal("have-version 0 did not get the full state")
	}
	// A have-version at or past the head is current.
	for _, v := range []uint64{have + updates, 9999} {
		d, err = s.DeltaSince(oid, v)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Current || d.NewVersion != have+updates || d.Cert != nil {
			t.Fatalf("DeltaSince(%d) = %+v, want current at %d", v, d, have+updates)
		}
	}
}

func TestDeltaReplyMarshalRoundTrip(t *testing.T) {
	s, oid, owner := newWireServer(t, 128)
	have := mustVersion(t, s, oid)
	updateAt(t, s, owner, have+1, "logo.png", []byte("new logo"))
	d, err := s.DeltaSince(oid, have)
	if err != nil {
		t.Fatal(err)
	}
	wire := d.Marshal()
	got, err := UnmarshalDeltaReply(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), wire) {
		t.Fatal("delta reply re-marshal differs (non-canonical)")
	}
	if got.NewVersion != 0 || len(got.Items) != len(d.Items) {
		t.Fatalf("round trip lost structure: %+v", got)
	}
	if got.Cert == nil || !bytes.Equal(got.Key.Marshal(), d.Key.Marshal()) {
		t.Fatal("round trip lost certificate or key")
	}

	current := &DeltaReply{Current: true, NewVersion: 42}
	got, err = UnmarshalDeltaReply(current.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Current || got.NewVersion != 42 {
		t.Fatalf("current round trip = %+v", got)
	}
	if !bytes.Equal(got.Marshal(), current.Marshal()) {
		t.Fatal("current re-marshal differs")
	}

	full, err := s.DeltaSince(oid, 0)
	if err != nil {
		t.Fatal(err)
	}
	wire = full.Marshal()
	got, err = UnmarshalDeltaReply(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !got.FullRequired || !bytes.Equal(got.Marshal(), wire) {
		t.Fatalf("full round trip = %+v", got)
	}
	// A full reply that marks an item unchanged is refused.
	full.Items[0].Changed = false
	if _, err := UnmarshalDeltaReply(full.Marshal()); err == nil {
		t.Fatal("full reply with an unchanged item decoded")
	}
}

// TestGetDeltaServesDeltaSinceBytes: obj.getdelta writes the head's
// encoded key and certificates where DeltaSince's reply encodes the ones
// it carries, and the two must be the same bytes — for a current, a
// delta and a full reply, name certificates included.
func TestGetDeltaServesDeltaSinceBytes(t *testing.T) {
	owner := keytest.RSA()
	oid := globeid.FromPublicKey(owner.Public())
	ca := &cert.CA{Name: "CA", Key: keytest.Ed()}
	nc, err := ca.IssueNameCertificate(oid, "Subject Corp", wireT0, wireT0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	names := headNames(4)
	s := New("delta-srv", "site", nil, nil, Limits{})
	for v := uint64(1); v <= 2; v++ {
		b := headBundle(t, owner, v, names, 256, 0x42, names[0])
		b.NameCerts = []*cert.NameCertificate{nc}
		publish := s.Update
		if v == 1 {
			publish = s.Install
		}
		if err := publish(b, "owner"); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		have          uint64
		current, full bool
	}{{have: 2, current: true}, {have: 1}, {have: 0, full: true}} {
		served, err := s.handleGetDelta(EncodeDeltaRequest(oid, tc.have))
		if err != nil {
			t.Fatal(err)
		}
		d, err := s.DeltaSince(oid, tc.have)
		if err != nil {
			t.Fatal(err)
		}
		if d.Current != tc.current || d.FullRequired != tc.full {
			t.Fatalf("have %d: reply current=%v full=%v, want %v %v", tc.have, d.Current, d.FullRequired, tc.current, tc.full)
		}
		if !bytes.Equal(served, d.Marshal()) {
			t.Errorf("have %d: obj.getdelta served bytes DeltaSince's reply does not marshal to", tc.have)
		}
	}
}

func TestDeltaRequestRoundTrip(t *testing.T) {
	_, oid, _ := newWireServer(t, 64)
	gotOID, have, err := DecodeDeltaRequest(EncodeDeltaRequest(oid, 7))
	if err != nil {
		t.Fatal(err)
	}
	if gotOID != oid || have != 7 {
		t.Fatalf("round trip = (%s, %d)", gotOID.Short(), have)
	}
	if _, _, err := DecodeDeltaRequest([]byte{99}); err == nil {
		t.Fatal("bad version byte accepted")
	}
}

// TestFullDeltaReplyKeepsDecoderBounds checks that a full reply, like a
// delta, is refused before allocation when it claims more items than the
// decoder allows.
func TestFullDeltaReplyKeepsDecoderBounds(t *testing.T) {
	w := enc.NewWriter(64)
	w.Byte(deltaWireVersion)
	w.Byte(deltaStatusFull)
	w.BytesPrefixed([]byte("key"))
	w.BytesPrefixed([]byte("cert"))
	w.Uvarint(0)
	w.Uvarint(maxDeltaItems + 1)
	if _, err := UnmarshalDeltaReply(w.Bytes()); err == nil || !strings.Contains(err.Error(), "implausible delta item count") {
		t.Fatalf("full reply over the item bound: %v", err)
	}
}
