package location_test

import (
	"context"
	"errors"
	"testing"

	"globedoc/internal/location"
	"globedoc/internal/netsim"
	"globedoc/internal/transport"
)

// startLocationService runs a location service on the simulated network
// and returns a client dialing it from fromHost.
func startLocationService(t *testing.T, n *netsim.Network, fromHost string) (*location.Client, *location.Tree) {
	t.Helper()
	tree, err := location.NewTree(location.PaperDomains())
	if err != nil {
		t.Fatal(err)
	}
	l, err := n.Listen(netsim.AmsterdamPrimary, "locsvc")
	if err != nil {
		t.Fatal(err)
	}
	svc := location.NewService(tree)
	svc.Start(l)
	t.Cleanup(svc.Close)
	client := location.NewClient(n.Dialer(fromHost, netsim.AmsterdamPrimary+":locsvc"))
	t.Cleanup(client.Close)
	return client, tree
}

func TestServiceInsertLookupDelete(t *testing.T) {
	n := netsim.PaperTestbed(0)
	defer n.Close()
	client, tree := startLocationService(t, n, netsim.Paris)

	oid := testOID(11)
	a := addr("amsterdam-primary:objsrv")
	if err := client.Insert(context.Background(), "amsterdam-primary", oid, a); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	res, err := client.Lookup(context.Background(), "paris", oid)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if len(res.Addresses) != 1 || !res.Addresses[0].SameEndpoint(a) || res.Rings != 1 {
		t.Errorf("res = %+v", res)
	}
	// OpLookup2 carries the metadata the tree filled in at insert.
	if res.Addresses[0].Zone != "europe" {
		t.Errorf("res = %+v", res)
	}
	// Withdrawal is in-process (Replicator.WithdrawCold); the service
	// answers from the tree it shares.
	if err := tree.Delete("amsterdam-primary", oid, a); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := client.Lookup(context.Background(), "paris", oid); err == nil {
		t.Fatal("Lookup succeeded after Delete")
	}
}

func TestServiceErrorsCrossWire(t *testing.T) {
	n := netsim.PaperTestbed(0)
	defer n.Close()
	client, _ := startLocationService(t, n, netsim.Ithaca)

	if err := client.Insert(context.Background(), "atlantis", testOID(12), addr("x:y")); err == nil {
		t.Fatal("Insert to unknown site succeeded")
	} else {
		var remote *transport.RemoteError
		if !errors.As(err, &remote) {
			t.Fatalf("err = %T %v, want RemoteError", err, err)
		}
	}
	if _, err := client.Lookup(context.Background(), "paris", testOID(13)); err == nil {
		t.Fatal("Lookup of unrecorded OID succeeded")
	}
}

func TestClientImplementsResolver(t *testing.T) {
	var _ location.Resolver = (*location.Client)(nil)
	var _ location.Resolver = (*location.Tree)(nil)
}
