package naming_test

import (
	"context"
	"testing"
	"time"

	"globedoc/internal/keys"
	"globedoc/internal/naming"
	"globedoc/internal/netsim"
)

// startNamingService runs a naming service on the simulated testbed and
// returns a verifying resolver dialing from fromHost.
func startNamingService(t *testing.T, n *netsim.Network, fromHost string) (*naming.Resolver, *naming.Authority) {
	t.Helper()
	auth, err := naming.NewAuthority(keys.Ed25519)
	if err != nil {
		t.Fatal(err)
	}
	auth.Now = func() time.Time { return clock }
	l, err := n.Listen(netsim.AmsterdamPrimary, "namesvc")
	if err != nil {
		t.Fatal(err)
	}
	svc := naming.NewService(auth)
	svc.Start(l)
	t.Cleanup(svc.Close)
	r := naming.NewResolver(n.Dialer(fromHost, netsim.AmsterdamPrimary+":namesvc"), auth.RootKey())
	r.Now = func() time.Time { return clock }
	t.Cleanup(r.Close)
	return r, auth
}

func TestResolverEndToEnd(t *testing.T) {
	n := netsim.PaperTestbed(0)
	defer n.Close()
	r, auth := startNamingService(t, n, netsim.Paris)

	oid := testOID(31)
	if err := auth.Register("home.vu.nl", oid); err != nil {
		t.Fatal(err)
	}
	got, err := r.Resolve(context.Background(), "home.vu.nl")
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if got != oid {
		t.Error("OID mismatch")
	}
}

func TestResolverCaches(t *testing.T) {
	n := netsim.PaperTestbed(0)
	defer n.Close()
	r, auth := startNamingService(t, n, netsim.Ithaca)
	auth.Register("cached.nl", testOID(32))

	if _, err := r.Resolve(context.Background(), "cached.nl"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resolve(context.Background(), "cached.nl"); err != nil {
		t.Fatal(err)
	}
	if r.Hits != 1 || r.Misses != 1 {
		t.Errorf("Hits=%d Misses=%d, want 1/1", r.Hits, r.Misses)
	}
	r.FlushCache()
	if _, err := r.Resolve(context.Background(), "cached.nl"); err != nil {
		t.Fatal(err)
	}
	if r.Misses != 2 {
		t.Errorf("Misses after flush = %d, want 2", r.Misses)
	}
}

func TestResolverRegisterOverWire(t *testing.T) {
	n := netsim.PaperTestbed(0)
	defer n.Close()
	r, _ := startNamingService(t, n, netsim.AmsterdamSecondary)
	oid := testOID(33)
	if err := naming.Register(context.Background(), r.Transport(), "remote.nl", oid); err != nil {
		t.Fatalf("Register: %v", err)
	}
	got, err := r.Resolve(context.Background(), "remote.nl")
	if err != nil || got != oid {
		t.Fatalf("Resolve = %v, %v", got, err)
	}
}

func TestResolverRejectsMissingName(t *testing.T) {
	n := netsim.PaperTestbed(0)
	defer n.Close()
	r, _ := startNamingService(t, n, netsim.Paris)
	if _, err := r.Resolve(context.Background(), "ghost.nl"); err == nil {
		t.Fatal("Resolve of unregistered name succeeded")
	}
}

func TestChainMarshalRoundTrip(t *testing.T) {
	a := newAuthority(t)
	a.CreateZone(naming.Root, "nl")
	a.Register("x.nl", testOID(34))
	chain, err := a.ResolveChain("x.nl")
	if err != nil {
		t.Fatal(err)
	}
	data := naming.MarshalChain(chain)
	got, err := naming.UnmarshalChain(data)
	if err != nil {
		t.Fatalf("UnmarshalChain: %v", err)
	}
	oid, err := naming.VerifyChain(got, "x.nl", a.RootKey(), clock)
	if err != nil {
		t.Fatalf("round-tripped chain rejected: %v", err)
	}
	if oid != testOID(34) {
		t.Error("OID mismatch after round trip")
	}
}

func TestUnmarshalChainRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, {0xff}, {1, 2, 3, 4}} {
		if _, err := naming.UnmarshalChain(data); err == nil {
			t.Errorf("UnmarshalChain(%v) succeeded", data)
		}
	}
}
