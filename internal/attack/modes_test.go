package attack_test

import (
	"context"
	"testing"
	"time"

	"globedoc/internal/attack"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/netsim"
	"globedoc/internal/object"
)

func TestModeStrings(t *testing.T) {
	want := map[attack.Mode]string{
		attack.Honest:            "honest",
		attack.TamperContent:     "tamper-content",
		attack.SubstituteElement: "substitute-element",
		attack.StaleReplay:       "stale-replay",
		attack.ForgeCertificate:  "forge-certificate",
		attack.WrongObject:       "wrong-object",
		attack.Mode(99):          "unknown",
	}
	for mode, name := range want {
		if got := mode.String(); got != name {
			t.Errorf("Mode(%d).String() = %q, want %q", mode, got, name)
		}
	}
	if len(attack.AllModes) != 5 {
		t.Errorf("AllModes = %v", attack.AllModes)
	}
}

func TestMaliciousServerAuxiliaryOps(t *testing.T) {
	owner := keytest.RSA()
	state := genuineState(t, owner, map[string][]byte{"a": []byte("1"), "b": []byte("2")}, t0, time.Hour)
	n := netsim.PaperTestbed(0)
	t.Cleanup(n.Close)
	l, err := n.Listen(netsim.Paris, "evil")
	if err != nil {
		t.Fatal(err)
	}
	srv := attack.NewMaliciousServer(attack.Honest, state)
	srv.Start(l)
	t.Cleanup(srv.Close)

	c := object.NewClient(state.OID, "paris:evil", n.Dialer(netsim.Ithaca, "paris:evil"))
	t.Cleanup(c.Close)
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if all, err := c.Bind(context.Background(), object.BindRequest{All: true}); err != nil || len(all.Items) != 2 {
		t.Fatalf("Bind for every element = %d items, %v; want 2", len(all.Items), err)
	}
	reply, err := c.Bind(context.Background(), object.BindRequest{NameCerts: true, Names: []string{"absent"}})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if ncs, err := object.DecodeCertList(reply.NameCerts); err != nil || len(ncs) != 0 {
		t.Fatalf("name certificates = %v, %v", ncs, err)
	}
	if reply.Items[0].Err == nil {
		t.Fatal("Bind served the absent element")
	}
}

func TestSubstituteSingleElementFallsBack(t *testing.T) {
	// With only one element there is nothing to substitute; the server
	// serves the genuine element (and the client accepts it).
	owner := keytest.RSA()
	state := genuineState(t, owner, map[string][]byte{"only.html": []byte("single")}, t0, time.Hour)
	srv := attack.NewMaliciousServer(attack.SubstituteElement, state)
	client := newVictimClient(t, srv, t0.Add(time.Minute))
	res, err := client.Fetch(context.Background(), state.OID, "only.html")
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if string(res.Element.Data) != "single" {
		t.Errorf("Data = %q", res.Element.Data)
	}
}
