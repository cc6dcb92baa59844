package object_test

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"globedoc/internal/alloctest"
	"globedoc/internal/cert"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/netsim"
	"globedoc/internal/object"
	"globedoc/internal/server"
)

func TestOIDRequestRoundTrip(t *testing.T) {
	oid := binderTestOID(keytest.Ed())
	got, err := object.DecodeOIDRequest(object.EncodeOIDRequest(oid))
	if err != nil {
		t.Fatalf("DecodeOIDRequest: %v", err)
	}
	if got != oid {
		t.Fatal("OID corrupted")
	}
	if _, err := object.DecodeOIDRequest([]byte{1, 2}); err == nil {
		t.Fatal("short request accepted")
	}
	if _, err := object.DecodeOIDRequest(append(object.EncodeOIDRequest(oid), 0xff)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestElementRequestRoundTrip(t *testing.T) {
	oid := binderTestOID(keytest.Ed())
	body := object.EncodeElementRequest(oid, "img/logo.png", "paris")
	gotOID, name, site, err := object.DecodeElementRequest(body)
	if err != nil {
		t.Fatalf("DecodeElementRequest: %v", err)
	}
	if gotOID != oid || name != "img/logo.png" || site != "paris" {
		t.Fatalf("decoded %v %q %q", gotOID, name, site)
	}
	if _, _, _, err := object.DecodeElementRequest(nil); err == nil {
		t.Fatal("empty request accepted")
	}
}

func TestElementRoundTrip(t *testing.T) {
	e := document.Element{Name: "a.html", ContentType: "text/html", Data: []byte("body")}
	got, err := object.DecodeElement(object.EncodeElement(e))
	if err != nil {
		t.Fatalf("DecodeElement: %v", err)
	}
	if got.Name != e.Name || got.ContentType != e.ContentType || !bytes.Equal(got.Data, e.Data) {
		t.Fatalf("got %+v", got)
	}
	if _, err := object.DecodeElement([]byte{0x03}); err == nil {
		t.Fatal("garbage element accepted")
	}
}

func TestStringListRoundTrip(t *testing.T) {
	f := func(names []string) bool {
		got, err := object.DecodeStringList(object.EncodeStringList(names))
		if err != nil {
			return false
		}
		if len(got) != len(names) {
			return false
		}
		for i := range names {
			if got[i] != names[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := object.DecodeStringList([]byte{0xff, 0xff, 0xff, 0xff, 0x01}); err == nil {
		t.Fatal("implausible list length accepted")
	}
}

func TestCertListRoundTrip(t *testing.T) {
	ca := &cert.CA{Name: "CA", Key: keytest.Ed()}
	oid := binderTestOID(keytest.RSA())
	t0 := time.Date(2005, 4, 4, 12, 0, 0, 0, time.UTC)
	nc, err := ca.IssueNameCertificate(oid, "Subject", t0, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	got, err := object.DecodeCertList(object.EncodeCertList([]*cert.NameCertificate{nc}))
	if err != nil {
		t.Fatalf("DecodeCertList: %v", err)
	}
	if len(got) != 1 || got[0].Subject != "Subject" {
		t.Fatalf("got %+v", got)
	}
	if empty, err := object.DecodeCertList(object.EncodeCertList(nil)); err != nil || len(empty) != 0 {
		t.Fatalf("empty list: %v %v", empty, err)
	}
	if _, err := object.DecodeCertList([]byte{0x01, 0x05, 1, 2, 3, 4, 5}); err == nil {
		t.Fatal("garbage cert list accepted")
	}
}

// clientFixture serves one real document — index.html plus any extra
// elements — and returns a connected Client.
func clientFixture(t *testing.T, extra ...document.Element) (*object.Client, globeid.OID) {
	t.Helper()
	owner := keytest.Ed()
	oid := binderTestOID(owner)
	doc := document.New()
	doc.Put(document.Element{Name: "index.html", Data: []byte("served")})
	for _, e := range extra {
		doc.Put(e)
	}
	t0 := time.Now()
	icert, err := document.IssueCertificate(doc, oid, owner, t0, document.UniformTTL(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	bundle := server.BundleFromDocument(oid, owner.Public(), doc, icert, nil)

	n := netsim.PaperTestbed(0)
	t.Cleanup(n.Close)
	srv := server.New("srv", netsim.AmsterdamPrimary, nil, nil, server.Limits{})
	if err := srv.Install(bundle, "owner"); err != nil {
		t.Fatal(err)
	}
	l, err := n.Listen(netsim.AmsterdamPrimary, "objsvc")
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(l)
	t.Cleanup(srv.Close)

	c := object.NewClient(oid, netsim.AmsterdamPrimary+":objsvc",
		n.Dialer(netsim.Paris, netsim.AmsterdamPrimary+":objsvc"))
	t.Cleanup(c.Close)
	return c, oid
}

func TestClientAccessors(t *testing.T) {
	c, oid := clientFixture(t)
	if c.OID() != oid {
		t.Error("OID mismatch")
	}
	if c.Addr() != netsim.AmsterdamPrimary+":objsvc" {
		t.Errorf("Addr = %q", c.Addr())
	}
	if c.Transport() == nil {
		t.Error("Transport nil")
	}
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	v, err := c.Version(context.Background())
	if err != nil || v == 0 {
		t.Fatalf("Version = %d, %v", v, err)
	}
	names, err := c.ListElements(context.Background())
	if err != nil || len(names) != 1 {
		t.Fatalf("ListElements = %v, %v", names, err)
	}
	e, err := c.GetElement(context.Background(), "index.html")
	if err != nil || string(e.Data) != "served" {
		t.Fatalf("GetElement = %q, %v", e.Data, err)
	}
	pk, err := c.GetPublicKey(context.Background())
	if err != nil {
		t.Fatalf("GetPublicKey: %v", err)
	}
	if err := oid.Verify(pk); err != nil {
		t.Fatalf("served key does not self-certify: %v", err)
	}
	ic, err := c.GetIntegrityCert(context.Background())
	if err != nil {
		t.Fatalf("GetIntegrityCert: %v", err)
	}
	if err := ic.VerifySignature(oid, pk); err != nil {
		t.Fatal(err)
	}
	ncs, err := c.GetNameCerts(context.Background())
	if err != nil || len(ncs) != 0 {
		t.Fatalf("GetNameCerts = %v, %v", ncs, err)
	}
}

// TestDecodeElementAliasesItsInput pins object's share of the payload
// budget: decoding a 1 MiB element allocates nothing payload-sized — the
// element's Data is a window onto the frame it arrived in.
func TestDecodeElementAliasesItsInput(t *testing.T) {
	const size = 1 << 20
	wire := object.EncodeElement(document.Element{Name: "big.bin", ContentType: "application/octet-stream", Data: make([]byte, size)})
	e, err := object.DecodeElement(wire)
	if err != nil || len(e.Data) != size {
		t.Fatalf("DecodeElement: %d bytes, %v", len(e.Data), err)
	}
	if &e.Data[size-1] != &wire[len(wire)-1] {
		t.Fatal("decoded Data does not alias the wire bytes")
	}
	perDecode := alloctest.BytesPerRun(t, 100, func() {
		if _, err := object.DecodeElement(wire); err != nil {
			t.Fatal(err)
		}
	})
	if perDecode > 256 {
		t.Fatalf("DecodeElement allocates %.0f bytes for a 1 MiB element, want only its two strings", perDecode)
	}
}

// TestGetElementResultsShareNoMemory is the other half of the aliasing
// rule: every call's frame buffer is its own, so scribbling over one
// result — to the end of its capacity — reaches neither a sibling's
// result nor the server's wire table, whether the calls ran one after
// the other or at once, in a coalesced frame or a split one.
func TestGetElementResultsShareNoMemory(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 8<<10) // 128 KiB: a split frame
	c, _ := clientFixture(t, document.Element{Name: "big.bin", Data: big})
	ctx := context.Background()
	scribble := func(e document.Element) {
		data := e.Data[:cap(e.Data)]
		for i := range data {
			data[i] = 0xFF
		}
	}
	for name, want := range map[string][]byte{"index.html": []byte("served"), "big.bin": big} {
		get := func() document.Element {
			e, err := c.GetElement(ctx, name)
			if err != nil {
				t.Errorf("GetElement(%q): %v", name, err)
			}
			return e
		}
		first, second := get(), get()
		scribble(first)
		if !bytes.Equal(second.Data, want) {
			t.Errorf("%s: scribbling one result changed the next call's", name)
		}

		var pair [2]document.Element
		var wg sync.WaitGroup
		for i := range pair {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				pair[i] = get()
			}(i)
		}
		wg.Wait()
		scribble(pair[0])
		if !bytes.Equal(pair[1].Data, want) {
			t.Errorf("%s: concurrent calls share backing memory", name)
		}
		if again := get(); !bytes.Equal(again.Data, want) {
			t.Errorf("%s: scribbling a result reached the server's wire table", name)
		}
	}
}

func TestClientKeyVerifiesOnWire(t *testing.T) {
	// With no seed: verifies NewClient against nil server presence.
	n := netsim.PaperTestbed(0)
	defer n.Close()
	c := object.NewClient(binderTestOID(keytest.Ed()), "paris:absent",
		n.Dialer(netsim.Ithaca, "paris:absent"))
	defer c.Close()
	if err := c.Ping(context.Background()); err == nil {
		t.Fatal("Ping to absent service succeeded")
	}
}
