package location

import (
	"bytes"
	"context"
	"testing"

	"globedoc/internal/enc"
	"globedoc/internal/globeid"
	"globedoc/internal/netsim"
)

// These tests pin the location service's two address encodings: the
// plain one (ContactAddress.Marshal, carried by loc.insert) and the
// extended one OpLookup2 answers with. Both are byte-frozen.

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

// TestNewClientDoesNotLatchOnOtherErrors: a genuine lookup failure
// (not-found) surfaces as-is and changes nothing: later lookups still
// carry metadata.
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
