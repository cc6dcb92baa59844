package server_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"globedoc/internal/cert"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/netsim"
	"globedoc/internal/object"
	"globedoc/internal/server"
)

var t0 = time.Date(2005, 4, 4, 12, 0, 0, 0, time.UTC)

// makeBundle builds a valid test bundle signed by owner.
func makeBundle(t *testing.T, owner *keys.KeyPair, elems map[string][]byte) *server.Bundle {
	t.Helper()
	oid := globeid.FromPublicKey(owner.Public())
	doc := document.New()
	for name, data := range elems {
		if err := doc.Put(document.Element{Name: name, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	icert, err := document.IssueCertificate(doc, oid, owner, t0, document.UniformTTL(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	return server.BundleFromDocument(oid, owner.Public(), doc, icert, nil)
}

func TestBundleValidate(t *testing.T) {
	owner := keytest.Ed()
	b := makeBundle(t, owner, map[string][]byte{"index.html": []byte("hi")})
	if err := b.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBundleValidateRejectsWrongKey(t *testing.T) {
	owner := keytest.Ed()
	b := makeBundle(t, owner, map[string][]byte{"a": []byte("a")})
	b.Key = keytest.RSA().Public() // key no longer hashes to OID
	if err := b.Validate(); err == nil {
		t.Fatal("Validate accepted mismatched key")
	}
}

func TestBundleValidateRejectsTamperedElement(t *testing.T) {
	owner := keytest.Ed()
	b := makeBundle(t, owner, map[string][]byte{"a": []byte("genuine")})
	b.Elements[0].Data = []byte("tampered")
	if err := b.Validate(); err == nil {
		t.Fatal("Validate accepted tampered element")
	}
}

func TestBundleValidateRejectsExtraElement(t *testing.T) {
	owner := keytest.Ed()
	b := makeBundle(t, owner, map[string][]byte{"a": []byte("a")})
	b.Elements = append(b.Elements, document.Element{Name: "smuggled", Data: []byte("x")})
	if err := b.Validate(); err == nil {
		t.Fatal("Validate accepted element not in certificate")
	}
}

func TestBundleMarshalRoundTrip(t *testing.T) {
	owner := keytest.Ed()
	b := makeBundle(t, owner, map[string][]byte{"index.html": []byte("<html>"), "logo.png": []byte{1, 2, 3}})
	got, err := server.UnmarshalBundle(b.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalBundle: %v", err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("round-tripped bundle invalid: %v", err)
	}
	if got.TotalBytes() != b.TotalBytes() || len(got.Elements) != 2 {
		t.Errorf("bundle corrupted: %+v", got)
	}
}

func TestUnmarshalBundleRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, {1}, make([]byte, 64)} {
		if _, err := server.UnmarshalBundle(data); err == nil {
			t.Errorf("UnmarshalBundle(%v) succeeded", data)
		}
	}
}

func TestInstallAndServePublicOps(t *testing.T) {
	owner := keytest.Ed()
	srv := server.New("srv", "amsterdam-primary", keys.NewKeystore(), nil, server.Limits{})
	b := makeBundle(t, owner, map[string][]byte{"index.html": []byte("<html>home</html>")})
	if err := srv.Install(b, "owner"); err != nil {
		t.Fatalf("Install: %v", err)
	}

	n := netsim.PaperTestbed(0)
	defer n.Close()
	l, err := n.Listen(netsim.AmsterdamPrimary, "objsvc")
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(l)
	defer srv.Close()

	client := object.NewClient(b.OID, netsim.AmsterdamPrimary+":objsvc",
		n.Dialer(netsim.Paris, netsim.AmsterdamPrimary+":objsvc"))
	defer client.Close()

	if err := client.Ping(context.Background()); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	pk, err := client.GetPublicKey(context.Background())
	if err != nil {
		t.Fatalf("GetPublicKey: %v", err)
	}
	if err := b.OID.Verify(pk); err != nil {
		t.Fatalf("served key fails self-certification: %v", err)
	}
	icert, err := client.GetIntegrityCert(context.Background())
	if err != nil {
		t.Fatalf("GetIntegrityCert: %v", err)
	}
	if err := icert.VerifySignature(b.OID, pk); err != nil {
		t.Fatalf("served certificate invalid: %v", err)
	}
	elem, err := client.GetElement(context.Background(), "index.html")
	if err != nil {
		t.Fatalf("GetElement: %v", err)
	}
	if err := icert.VerifyElement("index.html", elem.Data, t0.Add(time.Minute)); err != nil {
		t.Fatalf("served element fails verification: %v", err)
	}
	stats := srv.Stats()
	if stats.KeyFetches != 1 || stats.CertFetches != 1 || stats.ElementFetches != 1 {
		t.Errorf("Stats = %+v", stats)
	}
	if srv.ReadCount(b.OID) != 1 {
		t.Errorf("ReadCount = %d", srv.ReadCount(b.OID))
	}
}

func TestInstallValidatesBundle(t *testing.T) {
	srv := server.New("srv", "site", keys.NewKeystore(), nil, server.Limits{})
	owner := keytest.Ed()
	b := makeBundle(t, owner, map[string][]byte{"a": []byte("a")})
	b.Elements[0].Data = []byte("tampered")
	if err := srv.Install(b, "owner"); err == nil {
		t.Fatal("Install accepted invalid bundle")
	}
}

func TestInstallDuplicate(t *testing.T) {
	srv := server.New("srv", "site", keys.NewKeystore(), nil, server.Limits{})
	owner := keytest.Ed()
	b := makeBundle(t, owner, map[string][]byte{"a": []byte("a")})
	if err := srv.Install(b, "owner"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Install(b, "owner"); !errors.Is(err, server.ErrAlreadyHosted) {
		t.Fatalf("err = %v", err)
	}
}

func TestLimitsEnforced(t *testing.T) {
	srv := server.New("srv", "site", keys.NewKeystore(), nil, server.Limits{MaxObjects: 1, MaxBytes: 100})
	a := makeBundle(t, keytest.Ed(), map[string][]byte{"a": make([]byte, 200)})
	if err := srv.Install(a, "owner"); !errors.Is(err, server.ErrOverCapacity) {
		t.Fatalf("byte limit: err = %v", err)
	}
	small := makeBundle(t, keytest.Ed(), map[string][]byte{"a": make([]byte, 10)})
	if err := srv.Install(small, "owner"); err != nil {
		t.Fatalf("Install small: %v", err)
	}
	second := makeBundle(t, keytest.RSA(), map[string][]byte{"b": make([]byte, 10)})
	if err := srv.Install(second, "owner"); !errors.Is(err, server.ErrOverCapacity) {
		t.Fatalf("object limit: err = %v", err)
	}
	if srv.StoredBytes() != 10 {
		t.Errorf("StoredBytes = %d", srv.StoredBytes())
	}
}

func TestUpdateRequiresOwner(t *testing.T) {
	srv := server.New("srv", "site", keys.NewKeystore(), nil, server.Limits{})
	owner := keytest.Ed()
	b := makeBundle(t, owner, map[string][]byte{"a": []byte("v1")})
	if err := srv.Install(b, "alice"); err != nil {
		t.Fatal(err)
	}
	b2 := makeBundle(t, owner, map[string][]byte{"a": []byte("v2")})
	if err := srv.Update(b2, "mallory"); !errors.Is(err, server.ErrAccessDenied) {
		t.Fatalf("err = %v", err)
	}
	if err := srv.Update(b2, "alice"); err != nil {
		t.Fatalf("owner update: %v", err)
	}
}

func TestHostedListing(t *testing.T) {
	srv := server.New("srv", "site", keys.NewKeystore(), nil, server.Limits{})
	b := makeBundle(t, keytest.Ed(), map[string][]byte{"a": []byte("a")})
	srv.Install(b, "owner")
	hosted := srv.Hosted()
	if len(hosted) != 1 || hosted[0] != b.OID {
		t.Errorf("Hosted = %v", hosted)
	}
	if !srv.Hosts(b.OID) {
		t.Error("Hosts = false")
	}
	var other globeid.OID
	other[0] = 0xFF
	if srv.Hosts(other) {
		t.Error("Hosts(unknown) = true")
	}
}

func TestNotHostedErrors(t *testing.T) {
	srv := server.New("srv", "amsterdam-primary", keys.NewKeystore(), nil, server.Limits{})
	n := netsim.PaperTestbed(0)
	defer n.Close()
	l, _ := n.Listen(netsim.AmsterdamPrimary, "objsvc")
	srv.Start(l)
	defer srv.Close()

	var ghost globeid.OID
	ghost[5] = 7
	client := object.NewClient(ghost, netsim.AmsterdamPrimary+":objsvc",
		n.Dialer(netsim.Paris, netsim.AmsterdamPrimary+":objsvc"))
	defer client.Close()
	if _, err := client.GetPublicKey(context.Background()); err == nil {
		t.Fatal("GetPublicKey for unhosted object succeeded")
	}
	if _, err := client.GetElement(context.Background(), "x"); err == nil {
		t.Fatal("GetElement for unhosted object succeeded")
	}
}

func TestNameCertsServed(t *testing.T) {
	owner := keytest.Ed()
	oid := globeid.FromPublicKey(owner.Public())
	ca := &cert.CA{Name: "CA", Key: keytest.Ed()}
	nc, err := ca.IssueNameCertificate(oid, "Subject Corp", t0, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	doc := document.New()
	doc.Put(document.Element{Name: "a", Data: []byte("a")})
	icert, _ := document.IssueCertificate(doc, oid, owner, t0, document.UniformTTL(time.Hour))
	b := server.BundleFromDocument(oid, owner.Public(), doc, icert, []*cert.NameCertificate{nc})

	srv := server.New("srv", "amsterdam-primary", keys.NewKeystore(), nil, server.Limits{})
	if err := srv.Install(b, "owner"); err != nil {
		t.Fatal(err)
	}
	n := netsim.PaperTestbed(0)
	defer n.Close()
	l, _ := n.Listen(netsim.AmsterdamPrimary, "objsvc")
	srv.Start(l)
	defer srv.Close()
	client := object.NewClient(oid, netsim.AmsterdamPrimary+":objsvc",
		n.Dialer(netsim.AmsterdamSecondary, netsim.AmsterdamPrimary+":objsvc"))
	defer client.Close()
	reply, err := client.Bind(context.Background(), object.BindRequest{NameCerts: true})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	ncs, err := object.DecodeCertList(reply.NameCerts)
	if err != nil || len(ncs) != 1 || ncs[0].Subject != "Subject Corp" {
		t.Fatalf("name certificates = %v, %v", ncs, err)
	}
}
