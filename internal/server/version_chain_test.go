package server

// Internal tests for the hash-chained version store and the delta
// computation it feeds: chain linkage and monotonicity on every
// install/update, retention trimming, the refusal of an update that does
// not advance the signed version, and DeltaSince's changed-only item
// selection with the full-required decline for evicted versions.

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"globedoc/internal/document"
	"globedoc/internal/enc"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/object"
)

// chainUpdate publishes the server's hosted state with one element
// replaced under a certificate signed at the given version, via the
// normal Update path.
func chainUpdate(tb testing.TB, s *Server, owner *keys.KeyPair, version uint64, name string, data []byte) *Bundle {
	tb.Helper()
	b := chainBundle(tb, s, owner, version, name, data)
	if err := s.Update(b, "owner"); err != nil {
		tb.Fatal(err)
	}
	return b
}

// chainBundle is the bundle chainUpdate publishes.
func chainBundle(tb testing.TB, s *Server, owner *keys.KeyPair, version uint64, name string, data []byte) *Bundle {
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

func TestVersionChainLinksOnUpdate(t *testing.T) {
	s, oid, owner := newWireServer(t, 64)
	base, err := s.VersionChain(oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 1 {
		t.Fatalf("fresh install chain length = %d, want 1", len(base))
	}
	if base[0].Prev != ([globeid.Size]byte{}) {
		t.Error("genesis header has a non-zero Prev")
	}

	v := base[0].Version
	for i := 1; i <= 3; i++ {
		chainUpdate(t, s, owner, v+uint64(i), "index.html", []byte{byte(i)})
	}
	chain, err := s.VersionChain(oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 4 {
		t.Fatalf("chain length = %d, want 4", len(chain))
	}
	for i := 1; i < len(chain); i++ {
		if chain[i].Version <= chain[i-1].Version {
			t.Errorf("versions not increasing at index %d", i)
		}
		prev := chain[i-1]
		if chain[i].Prev != prev.Hash() {
			t.Errorf("header %d does not link to its predecessor", i)
		}
		if chain[i].OID != oid {
			t.Errorf("header %d names the wrong object", i)
		}
	}
	// The head commits to the served state.
	if head := chain[len(chain)-1]; head.Version != mustVersion(t, s, oid) {
		t.Errorf("head version %d, served version %d", head.Version, mustVersion(t, s, oid))
	}
	served, err := joined(s.handleGetCert(context.Background(), object.EncodeOIDRequest(oid)))
	if err != nil {
		t.Fatal(err)
	}
	if head := chain[len(chain)-1]; head.CertHash != globeid.HashElement(served) {
		t.Error("head CertHash does not commit to the served certificate")
	}
}

func TestVersionChainRetentionTrims(t *testing.T) {
	const updates = DefaultVersionRetention + 3
	s, oid, owner := newWireServer(t, 64)
	v := mustVersion(t, s, oid)
	for i := 1; i <= updates; i++ {
		chainUpdate(t, s, owner, v+uint64(i), "index.html", []byte{byte(i)})
	}
	chain, err := s.VersionChain(oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != DefaultVersionRetention {
		t.Fatalf("chain length = %d, want retention %d", len(chain), DefaultVersionRetention)
	}
	if chain[len(chain)-1].Version != v+updates {
		t.Errorf("head version = %d, want %d", chain[len(chain)-1].Version, v+updates)
	}
	// The retained links still verify even though the oldest header's
	// Prev points at an evicted predecessor.
	for i := 1; i < len(chain); i++ {
		prev := chain[i-1]
		if chain[i].Prev != prev.Hash() {
			t.Errorf("retained chain broken at index %d", i)
		}
	}
}

// TestUpdateRefusesNonAdvancingVersion: the signed version alone orders
// states, so an update at a lower version, or at the head's version under
// a different certificate, is refused and the served chain stays
// byte-identical.
func TestUpdateRefusesNonAdvancingVersion(t *testing.T) {
	s, oid, owner := newWireServer(t, 64)
	v := mustVersion(t, s, oid)
	chainUpdate(t, s, owner, v+1, "index.html", []byte("v2"))
	served := func() []byte {
		chain, err := s.VersionChain(oid)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.ExportBundle(oid)
		if err != nil {
			t.Fatal(err)
		}
		out := b.Marshal()
		for _, hd := range chain {
			out = append(out, hd.Marshal()...)
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
		b := chainBundle(t, s, owner, tc.version, "index.html", []byte("rewound"))
		if err := s.Update(b, "owner"); err == nil || !strings.Contains(err.Error(), "not increasing") {
			t.Errorf("%s: Update = %v, want refused as not increasing", tc.name, err)
		}
		if !bytes.Equal(served(), before) {
			t.Fatalf("%s: a refused update changed the served chain", tc.name)
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
	return h.head().header.Version
}

func TestVersionHeaderMarshalRoundTrip(t *testing.T) {
	s, oid, owner := newWireServer(t, 64)
	chainUpdate(t, s, owner, mustVersion(t, s, oid)+1, "index.html", []byte("v2"))
	chain, err := s.VersionChain(oid)
	if err != nil {
		t.Fatal(err)
	}
	for _, hd := range chain {
		got, err := UnmarshalVersionHeader(hd.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if *got != hd {
			t.Fatalf("round trip = %+v, want %+v", *got, hd)
		}
		if !bytes.Equal(got.Marshal(), hd.Marshal()) {
			t.Fatal("re-marshal differs")
		}
	}
	if _, err := UnmarshalVersionHeader([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated header decoded")
	}
}

func TestDeltaSinceReturnsOnlyChangedElements(t *testing.T) {
	s, oid, owner := newWireServer(t, 256)
	have := mustVersion(t, s, oid)
	chainUpdate(t, s, owner, have+1, "index.html", []byte("changed body"))

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
	if len(d.Headers) != 2 {
		t.Fatalf("headers = %d, want 2 (have..new inclusive)", len(d.Headers))
	}
	if d.Headers[0].Version != have || d.Headers[len(d.Headers)-1].Version != have+1 {
		t.Error("header range is not have..new")
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
		chainUpdate(t, s, owner, have+uint64(i), "index.html", []byte{byte(i)})
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
	// The full state: only the head's header, and every element.
	if len(d.Headers) != 1 || d.Headers[0].Version != d.Cert.Version {
		t.Fatalf("full reply carries %d headers, want the head's alone", len(d.Headers))
	}
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
	chainUpdate(t, s, owner, have+1, "logo.png", []byte("new logo"))
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
	if got.NewVersion != 0 || len(got.Items) != len(d.Items) || len(got.Headers) != len(d.Headers) {
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
// delta, is refused before allocation when it claims more headers or
// items than the decoder allows.
func TestFullDeltaReplyKeepsDecoderBounds(t *testing.T) {
	prefix := func(headers uint64) *enc.Writer {
		w := enc.NewWriter(64)
		w.Byte(deltaWireVersion)
		w.Byte(deltaStatusFull)
		w.Uvarint(headers)
		return w
	}
	w := prefix(maxDeltaHeaders + 1)
	if _, err := UnmarshalDeltaReply(w.Bytes()); err == nil || !strings.Contains(err.Error(), "implausible delta header count") {
		t.Fatalf("full reply over the header bound: %v", err)
	}
	w = prefix(0)
	w.BytesPrefixed([]byte("key"))
	w.BytesPrefixed([]byte("cert"))
	w.Uvarint(0)
	w.Uvarint(maxDeltaItems + 1)
	if _, err := UnmarshalDeltaReply(w.Bytes()); err == nil || !strings.Contains(err.Error(), "implausible delta item count") {
		t.Fatalf("full reply over the item bound: %v", err)
	}
}
