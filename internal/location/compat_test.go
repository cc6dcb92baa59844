package location

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"globedoc/internal/enc"
	"globedoc/internal/globeid"
	"globedoc/internal/netsim"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// These tests pin the v1 ↔ v2 wire-compatibility contract of the
// location service in both directions:
//
//   - the v1 encodings (ContactAddress.Marshal, OpLookup responses) are
//     byte-frozen — a pre-PR-8 peer must keep decoding them exactly;
//   - a new client against a v1-only service falls back to OpLookup
//     (losing only metadata) after exactly one probe;
//   - an old-style client calling OpLookup against a new service gets
//     byte-identical v1 responses, metadata silently dropped.

func compatOID(b byte) globeid.OID {
	var oid globeid.OID
	for i := range oid {
		oid[i] = b
	}
	return oid
}

// TestContactAddressV1GoldenBytes pins the frozen v1 encoding: endpoint
// only, regardless of what metadata the address carries. If this test
// fails, old services can no longer decode our inserts (and vice versa).
func TestContactAddressV1GoldenBytes(t *testing.T) {
	a := ContactAddress{Address: "ams:1", Protocol: "globedoc", Zone: "europe", Weight: 300}
	w := enc.NewWriter(32)
	a.Marshal(w)
	want := []byte("\x05ams:1\x08globedoc")
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("v1 bytes = %q, want %q", w.Bytes(), want)
	}
	r := enc.NewReader(want)
	got := UnmarshalContactAddress(r)
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if got.Address != "ams:1" || got.Protocol != "globedoc" || got.Zone != "" || got.Weight != 0 {
		t.Errorf("decoded %+v", got)
	}
}

// TestContactAddressExtGoldenBytes pins the extended encoding carried by
// OpLookup2.
func TestContactAddressExtGoldenBytes(t *testing.T) {
	a := ContactAddress{Address: "ams:1", Protocol: "globedoc", Zone: "europe", Weight: 300}
	w := enc.NewWriter(32)
	a.MarshalExt(w)
	want := []byte("\x05ams:1\x08globedoc\x06europe\xac\x02") // 300 = 0xac 0x02 uvarint
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("ext bytes = %q, want %q", w.Bytes(), want)
	}
	r := enc.NewReader(want)
	got := UnmarshalContactAddressExt(r)
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if got != a {
		t.Errorf("decoded %+v, want %+v", got, a)
	}
}

// TestLookupResultV1RejectsExtBytes proves WHY the dual-op design exists:
// a v1 decoder must refuse an extended body rather than misread it.
func TestLookupResultV1RejectsExtBytes(t *testing.T) {
	res := LookupResult{
		Rings: 1,
		Addresses: []ContactAddress{
			{Address: "ams:1", Protocol: "globedoc", Zone: "europe", Weight: 3},
		},
	}
	if _, err := decodeLookupResult(encodeLookupResultExt(res)); err == nil {
		t.Fatal("v1 decoder accepted extended bytes; trailing metadata went undetected")
	}
	if _, err := decodeLookupResultExt(encodeLookupResult(res)); err == nil {
		t.Fatal("ext decoder accepted v1 bytes; it must notice the missing metadata")
	}
}

// startV1OnlyService runs a location service that predates OpLookup2 —
// only the v1 operations are registered, so the transport itself refuses
// the probe with its unknown-operation error.
func startV1OnlyService(t *testing.T, n *netsim.Network, tree *Tree) {
	t.Helper()
	srv := transport.NewServer()
	srv.Handle(OpInsert, func(body []byte) ([]byte, error) {
		site, oid, addr, err := decodeSiteOIDAddr(body)
		if err != nil {
			return nil, err
		}
		return nil, tree.Insert(site, oid, addr)
	})
	srv.Handle(OpLookup, func(body []byte) ([]byte, error) {
		r := enc.NewReader(body)
		site := r.String()
		var oid globeid.OID
		copy(oid[:], r.Raw(globeid.Size))
		if err := r.Finish(); err != nil {
			return nil, err
		}
		res, err := tree.Lookup(context.Background(), site, oid)
		if err != nil {
			return nil, err
		}
		return encodeLookupResult(res), nil
	})
	l, err := n.Listen(netsim.AmsterdamPrimary, "locsvc")
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(l)
	t.Cleanup(srv.Close)
}

// TestNewClientFallsBackToV1Service: a metadata-aware client against a
// pre-PR-8 service probes OpLookup2 once — the transport remembers the
// refusal — and keeps working over OpLookup; results simply carry no
// metadata.
func TestNewClientFallsBackToV1Service(t *testing.T) {
	n := netsim.PaperTestbed(0)
	defer n.Close()
	tree, err := NewTree(PaperDomains())
	if err != nil {
		t.Fatal(err)
	}
	startV1OnlyService(t, n, tree)

	tel := telemetry.New(nil)
	client := NewClient(n.Dialer(netsim.Paris, netsim.AmsterdamPrimary+":locsvc"))
	client.Configure(transport.Config{Telemetry: tel})
	t.Cleanup(client.Close)

	oid := compatOID(0x21)
	a := ContactAddress{Address: "amsterdam-primary:objsrv", Protocol: "globedoc"}
	if err := tree.Insert("amsterdam-primary", oid, a); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		res, err := client.Lookup(context.Background(), "paris", oid)
		if err != nil {
			t.Fatalf("Lookup %d: %v", i, err)
		}
		if len(res.Addresses) != 1 || !res.Addresses[0].SameEndpoint(a) {
			t.Fatalf("Lookup %d = %+v", i, res.Addresses)
		}
		if res.Addresses[0].Zone != "" || res.Addresses[0].Weight != 0 {
			t.Fatalf("Lookup %d carried metadata over v1: %+v", i, res.Addresses[0])
		}
	}
	// Exactly one OpLookup2 probe across all three lookups.
	probes := uint64(0)
	for labels, v := range tel.Registry.Snapshot().LabeledCounters[telemetry.MetricRPCCalls] {
		if strings.Contains(labels, OpLookup2) {
			probes += v
		}
	}
	if probes != 1 {
		t.Errorf("OpLookup2 probes = %d, want exactly 1 (the refusal is remembered)", probes)
	}
}

// TestNewClientDoesNotLatchOnOtherErrors: a genuine lookup failure from a
// metadata-aware service (not-found) must surface as-is, NOT trigger the
// v1 fallback — only the unknown-operation refusal means "old service" —
// and later lookups still carry metadata.
func TestNewClientDoesNotLatchOnOtherErrors(t *testing.T) {
	n := netsim.PaperTestbed(0)
	defer n.Close()
	tree, err := NewTree(PaperDomains())
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(tree)
	l, err := n.Listen(netsim.AmsterdamPrimary, "locsvc")
	if err != nil {
		t.Fatal(err)
	}
	svc.Start(l)
	t.Cleanup(svc.Close)

	client := NewClient(n.Dialer(netsim.Paris, netsim.AmsterdamPrimary+":locsvc"))
	t.Cleanup(client.Close)

	if _, err := client.Lookup(context.Background(), "paris", compatOID(0x7e)); err == nil {
		t.Fatal("lookup of unrecorded OID succeeded")
	}

	// Metadata still flows after the failed lookup.
	oid := compatOID(0x7f)
	a := ContactAddress{Address: "paris:objsrv", Protocol: "globedoc"}
	if err := tree.Insert("paris", oid, a); err != nil {
		t.Fatal(err)
	}
	res, err := client.Lookup(context.Background(), "paris", oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Addresses) != 1 || res.Addresses[0].Zone != "europe" {
		t.Fatalf("metadata lost after remote error: %+v", res.Addresses)
	}
}

// TestOldClientAgainstNewService: a pre-PR-8 client calls OpLookup
// directly; the new service's response must be byte-decodable by the v1
// decoder and carry no metadata.
func TestOldClientAgainstNewService(t *testing.T) {
	n := netsim.PaperTestbed(0)
	defer n.Close()
	tree, err := NewTree(PaperDomains())
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(tree)
	l, err := n.Listen(netsim.AmsterdamPrimary, "locsvc")
	if err != nil {
		t.Fatal(err)
	}
	svc.Start(l)
	t.Cleanup(svc.Close)

	oid := compatOID(0x42)
	a := ContactAddress{Address: "amsterdam-primary:objsrv", Protocol: "globedoc", Weight: 9}
	if err := tree.Insert("amsterdam-primary", oid, a); err != nil {
		t.Fatal(err)
	}

	// An old client is exactly a raw transport client speaking OpLookup.
	old := transport.NewClient(n.Dialer(netsim.Ithaca, netsim.AmsterdamPrimary+":locsvc"))
	t.Cleanup(old.Close)
	w := enc.NewWriter(64)
	w.String("ithaca")
	w.Raw(oid[:])
	body, err := old.Call(context.Background(), OpLookup, w.Bytes())
	if err != nil {
		t.Fatalf("v1 Call: %v", err)
	}
	res, err := decodeLookupResult(body)
	if err != nil {
		t.Fatalf("v1 decode of new service's response: %v", err)
	}
	if len(res.Addresses) != 1 || !res.Addresses[0].SameEndpoint(a) {
		t.Fatalf("res = %+v", res)
	}
	if res.Addresses[0].Zone != "" || res.Addresses[0].Weight != 0 {
		t.Fatalf("v1 response leaked metadata: %+v", res.Addresses[0])
	}
}

// TestZoneOfAndAutoFill covers the tree-side metadata semantics the
// service relies on.
func TestZoneOfAndAutoFill(t *testing.T) {
	tree, err := NewTree(PaperDomains())
	if err != nil {
		t.Fatal(err)
	}
	if z, ok := tree.ZoneOf("ithaca"); !ok || z != "northamerica" {
		t.Errorf("ZoneOf(ithaca) = %q, %v", z, ok)
	}
	if z, ok := tree.ZoneOf("amsterdam-secondary"); !ok || z != "europe" {
		t.Errorf("ZoneOf(amsterdam-secondary) = %q, %v", z, ok)
	}
	if _, ok := tree.ZoneOf("atlantis"); ok {
		t.Error("ZoneOf(atlantis) resolved")
	}

	oid := compatOID(0x51)
	// A legacy registrar inserts without metadata: the tree fills the zone.
	if err := tree.Insert("ithaca", oid, ContactAddress{Address: "ithaca:objsrv", Protocol: "globedoc"}); err != nil {
		t.Fatal(err)
	}
	res, err := tree.Lookup(context.Background(), "ithaca", oid)
	if err != nil {
		t.Fatal(err)
	}
	if res.Addresses[0].Zone != "northamerica" {
		t.Errorf("Zone = %q, want auto-filled northamerica", res.Addresses[0].Zone)
	}

	// Re-inserting the same endpoint refreshes metadata in place: the
	// endpoint is the record's identity.
	if err := tree.Insert("ithaca", oid, ContactAddress{Address: "ithaca:objsrv", Protocol: "globedoc", Zone: "northamerica", Weight: 5}); err != nil {
		t.Fatal(err)
	}
	res, err = tree.Lookup(context.Background(), "ithaca", oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Addresses) != 1 {
		t.Fatalf("metadata refresh duplicated the record: %+v", res.Addresses)
	}
	if res.Addresses[0].Weight != 5 {
		t.Errorf("Weight = %d, want refreshed 5", res.Addresses[0].Weight)
	}
}
