package server

// Internal tests for the hash-chained version store and the delta
// computation it feeds: chain linkage and monotonicity on every
// install/update, retention trimming, the reset rule for non-monotonic
// republishes, and DeltaSince's changed-only item selection with the
// full-required decline for evicted versions.

import (
	"bytes"
	"context"
	"testing"
	"time"

	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/object"
)

// chainUpdate re-issues the server's hosted doc with one element
// replaced and a fresh certificate at the given version, via the normal
// Update path.
func chainUpdate(tb testing.TB, s *Server, oid globeid.OID, owner *keys.KeyPair, version uint64, name string, data []byte) *Bundle {
	tb.Helper()
	h, err := s.replica(oid)
	if err != nil {
		tb.Fatal(err)
	}
	elems := h.head().bundle(h.key).Elements
	doc := document.New()
	doc.Replace(elems, version)
	if err := doc.Put(document.Element{Name: name, ContentType: "text/html", Data: data}); err != nil {
		tb.Fatal(err)
	}
	// Put bumped the version; pin it back to the requested one.
	es, _ := doc.Snapshot()
	doc.Replace(es, version)
	icert, err := document.IssueCertificate(doc, oid, owner, wireT0.Add(time.Duration(version)*time.Second), document.UniformTTL(time.Hour))
	if err != nil {
		tb.Fatal(err)
	}
	b := BundleFromDocument(oid, owner.Public(), doc, icert, nil)
	if err := s.Update(b, "owner"); err != nil {
		tb.Fatal(err)
	}
	return b
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
		chainUpdate(t, s, oid, owner, v+uint64(i), "index.html", []byte{byte(i)})
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
		chainUpdate(t, s, oid, owner, v+uint64(i), "index.html", []byte{byte(i)})
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

func TestVersionChainResetsOnNonMonotonicVersion(t *testing.T) {
	s, oid, owner := newWireServer(t, 64)
	v := mustVersion(t, s, oid)
	chainUpdate(t, s, oid, owner, v+1, "index.html", []byte("v2"))
	// An owner republishing at an older version starts a fresh genesis
	// chain: the old history cannot commit to a version that goes
	// backwards.
	chainUpdate(t, s, oid, owner, v, "index.html", []byte("rewound"))
	chain, err := s.VersionChain(oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 1 {
		t.Fatalf("chain length after reset = %d, want 1", len(chain))
	}
	if chain[0].Prev != ([globeid.Size]byte{}) {
		t.Error("reset chain head is not a genesis")
	}
	if chain[0].Version != v {
		t.Errorf("reset head version = %d, want %d", chain[0].Version, v)
	}
}

// mustVersion returns the version obj.version answers with.
func mustVersion(tb testing.TB, s *Server, oid globeid.OID) uint64 {
	tb.Helper()
	body, err := s.handleVersion(object.EncodeOIDRequest(oid))
	if err != nil {
		tb.Fatal(err)
	}
	v, err := decodeVersion(body)
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

func TestVersionHeaderMarshalRoundTrip(t *testing.T) {
	s, oid, owner := newWireServer(t, 64)
	chainUpdate(t, s, oid, owner, mustVersion(t, s, oid)+1, "index.html", []byte("v2"))
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
	chainUpdate(t, s, oid, owner, have+1, "index.html", []byte("changed body"))

	d, err := s.DeltaSince(oid, have)
	if err != nil {
		t.Fatal(err)
	}
	if d.FullRequired {
		t.Fatal("retained version declined")
	}
	if d.NewVersion != have+1 {
		t.Errorf("NewVersion = %d, want %d", d.NewVersion, have+1)
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
		chainUpdate(t, s, oid, owner, have+uint64(i), "index.html", []byte{byte(i)})
	}
	d, err := s.DeltaSince(oid, have) // long evicted
	if err != nil {
		t.Fatal(err)
	}
	if !d.FullRequired {
		t.Fatal("evicted have-version was not declined")
	}
	if d.NewVersion != have+updates {
		t.Errorf("decline NewVersion = %d, want %d", d.NewVersion, have+updates)
	}
	// Unknown versions decline too.
	d, err = s.DeltaSince(oid, 9999)
	if err != nil {
		t.Fatal(err)
	}
	if !d.FullRequired {
		t.Fatal("unknown have-version was not declined")
	}
}

func TestDeltaReplyMarshalRoundTrip(t *testing.T) {
	s, oid, owner := newWireServer(t, 128)
	have := mustVersion(t, s, oid)
	chainUpdate(t, s, oid, owner, have+1, "logo.png", []byte("new logo"))
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
	if got.NewVersion != d.NewVersion || len(got.Items) != len(d.Items) || len(got.Headers) != len(d.Headers) {
		t.Fatalf("round trip lost structure: %+v", got)
	}
	if got.Cert == nil || !bytes.Equal(got.Key.Marshal(), d.Key.Marshal()) {
		t.Fatal("round trip lost certificate or key")
	}

	decline := &DeltaReply{FullRequired: true, NewVersion: 42}
	got, err = UnmarshalDeltaReply(decline.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !got.FullRequired || got.NewVersion != 42 {
		t.Fatalf("decline round trip = %+v", got)
	}
	if !bytes.Equal(got.Marshal(), decline.Marshal()) {
		t.Fatal("decline re-marshal differs")
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
