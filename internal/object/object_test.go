package object_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"globedoc/internal/alloctest"
	"globedoc/internal/cert"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/netsim"
	"globedoc/internal/object"
	"globedoc/internal/server"
	"globedoc/internal/transport"
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
	reply, err := c.Bind(context.Background(), object.BindRequest{NameCerts: true})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if ncs, err := object.DecodeCertList(reply.NameCerts); err != nil || len(ncs) != 0 {
		t.Fatalf("name certificates = %v, %v", ncs, err)
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

func TestBindRequestRoundTrip(t *testing.T) {
	oid := binderTestOID(keytest.Ed())
	at := time.Date(2005, 4, 4, 12, 0, 0, 0, time.UTC)
	for _, req := range []object.BindRequest{
		{OID: oid},
		{OID: oid, FromSite: "paris", NameCerts: true, Names: []string{"a.html", "img/b.png"}, At: at},
		{OID: oid, All: true, At: at},
	} {
		got, err := object.DecodeBindRequest(object.EncodeBindRequest(req))
		if err != nil {
			t.Fatalf("DecodeBindRequest(%+v): %v", req, err)
		}
		if got.OID != req.OID || got.FromSite != req.FromSite || got.NameCerts != req.NameCerts || got.All != req.All ||
			!got.At.Equal(req.At) || fmt.Sprint(got.Names) != fmt.Sprint(req.Names) {
			t.Fatalf("decoded %+v, want %+v", got, req)
		}
	}
	// The flags byte follows the OID and the (empty) site hint.
	const flags = globeid.Size + 1
	listed := object.EncodeBindRequest(object.BindRequest{OID: oid, Names: []string{"a.html"}})
	for name, body := range map[string][]byte{
		"all elements and a list": append(append([]byte(nil), listed[:flags]...), append([]byte{2}, listed[flags+1:]...)...),
		"an unknown flag":         append(append([]byte(nil), listed[:flags]...), append([]byte{0x80}, listed[flags+1:]...)...),
		"a trailing byte":         append(append([]byte(nil), listed...), 0),
		"a truncated name list":   listed[:len(listed)-1],
	} {
		if _, err := object.DecodeBindRequest(body); !errors.Is(err, object.ErrBadPayload) {
			t.Errorf("request with %s: err = %v, want ErrBadPayload", name, err)
		}
	}
}

// TestBindRequestHeldRoundTrip: a warm bind's held hashes survive the
// round trip index for index with its names, and the decoder refuses the
// encodings of held hashes that would give a request a second one or
// that a client never sends: without a held certificate, beside a request
// for all elements, or all zero.
func TestBindRequestHeldRoundTrip(t *testing.T) {
	oid := binderTestOID(keytest.Ed())
	have := globeid.HashElement([]byte("icert"))
	h := globeid.HashElement([]byte("a.html"))
	req := object.BindRequest{OID: oid, Have: have, Names: []string{"a.html", "b.png"}, Held: [][globeid.Size]byte{h, {}}}
	got, err := object.DecodeBindRequest(object.EncodeBindRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Names) != fmt.Sprint(req.Names) || fmt.Sprint(got.Held) != fmt.Sprint(req.Held) {
		t.Fatalf("decoded names %v held %x, want %v %x", got.Names, got.Held, req.Names, req.Held)
	}
	plain := object.EncodeBindRequest(object.BindRequest{OID: oid, Have: have, Names: req.Names})
	if zero := object.EncodeBindRequest(object.BindRequest{OID: oid, Have: have, Names: req.Names, Held: make([][globeid.Size]byte, 2)}); !bytes.Equal(zero, plain) {
		t.Error("a request holding nothing encodes unlike a plain one")
	}

	// The flags byte follows the OID and the (empty) site hint.
	const flags = globeid.Size + 1
	held := object.EncodeBindRequest(req)
	withFlags := func(body []byte, f byte) []byte {
		return append(append(append([]byte(nil), body[:flags]...), f), body[flags+1:]...)
	}
	cold := object.EncodeBindRequest(object.BindRequest{OID: oid, Names: []string{"a.html"}})
	coldHeld := append(append([]byte(nil), cold...), h[:]...)
	nothingHeld := object.EncodeBindRequest(object.BindRequest{OID: oid, Have: have, Names: []string{"a.html"}})
	nothingHeld = append(withFlags(nothingHeld, nothingHeld[flags]|8), make([]byte, globeid.Size)...)
	for name, body := range map[string][]byte{
		"held hashes and no certificate":    withFlags(coldHeld, 8),
		"held hashes and a request for all": withFlags(held, held[flags]|2),
		"held hashes that are all zero":     nothingHeld,
		"a truncated held hash":             held[:len(held)-1],
	} {
		if _, err := object.DecodeBindRequest(body); !errors.Is(err, object.ErrBadPayload) {
			t.Errorf("request with %s: err = %v, want ErrBadPayload", name, err)
		}
	}
}

// TestClientBindAcceptsHeldOnlyWhereHeld: a replica's held item is
// accepted on a slot the request named a held hash for, and refused as a
// malformed reply anywhere else.
func TestClientBindAcceptsHeldOnlyWhereHeld(t *testing.T) {
	n := netsim.PaperTestbed(0)
	t.Cleanup(n.Close)
	liar := transport.NewServer()
	liar.Handle(object.OpBind, func(body []byte) ([]byte, error) {
		req, err := object.DecodeBindRequest(body)
		if err != nil {
			return nil, err
		}
		items := make([]object.BatchWireItem, len(req.Names))
		for i, name := range req.Names {
			items[i] = object.BatchWireItem{Name: name, Held: true}
		}
		if req.All {
			items = []object.BatchWireItem{{Name: "a.html", Held: true}}
		}
		return object.EncodeBindReply(nil, nil, nil, items), nil
	})
	l, err := n.Listen(netsim.AmsterdamPrimary, "liar")
	if err != nil {
		t.Fatal(err)
	}
	liar.Start(l)
	t.Cleanup(liar.Close)
	addr := netsim.AmsterdamPrimary + ":liar"
	c := object.NewClient(binderTestOID(keytest.Ed()), addr, n.Dialer(netsim.Paris, addr))
	t.Cleanup(c.Close)

	ctx := context.Background()
	have, h := globeid.HashElement([]byte("icert")), globeid.HashElement([]byte("a.html"))
	reply, err := c.Bind(ctx, object.BindRequest{Have: have, Names: []string{"a.html"}, Held: [][globeid.Size]byte{h}})
	if err != nil || len(reply.Items) != 1 || !reply.Items[0].Held || reply.Items[0].Err != nil {
		t.Fatalf("held slot answered held: %+v, %v", reply.Items, err)
	}
	for name, req := range map[string]object.BindRequest{
		"a slot holding nothing":    {Have: have, Names: []string{"a.html", "b.png"}, Held: [][globeid.Size]byte{h, {}}},
		"a request holding nothing": {Have: have, Names: []string{"a.html"}},
		"a request for all":         {Have: have, All: true},
	} {
		if _, err := c.Bind(ctx, req); !errors.Is(err, object.ErrBadPayload) {
			t.Errorf("held item on %s: err = %v, want ErrBadPayload", name, err)
		}
	}
}

func TestBindReplyRoundTrip(t *testing.T) {
	elem := document.Element{Name: "a.html", ContentType: "text/html", Data: []byte("carried")}
	body := object.EncodeBindReply([]byte("key"), nil, []byte("icert"), []object.BatchWireItem{
		{Name: "a.html", Wire: object.EncodeElement(elem)},
		{Name: "b.png", ErrMsg: "declined"},
		{Name: "c.css", Held: true},
	})
	reply, err := object.DecodeBindReply(body)
	if err != nil {
		t.Fatal(err)
	}
	if string(reply.Key) != "key" || len(reply.NameCerts) != 0 || string(reply.Cert) != "icert" || len(reply.Items) != 3 {
		t.Fatalf("decoded %+v", reply)
	}
	if it := reply.Items[0]; it.Err != nil || it.Element.Name != "a.html" || string(it.Element.Data) != "carried" {
		t.Fatalf("carried item = %+v", it)
	}
	if reply.Items[1].Err == nil || reply.Items[1].Held {
		t.Fatal("declined item decoded without its error")
	}
	if it := reply.Items[2]; !it.Held || it.Err != nil || it.Element.Data != nil {
		t.Fatalf("held item = %+v, want held with no payload and no decline", it)
	}
	if _, err := object.DecodeBindReply(append(body, 0)); !errors.Is(err, object.ErrBadPayload) {
		t.Fatalf("trailing byte: err = %v, want ErrBadPayload", err)
	}
	if _, err := object.DecodeBindReply(body[:len(body)/2]); err == nil {
		t.Fatal("truncated reply accepted")
	}
}

// TestClientBind drives Bind against a real replica: the key and the
// integrity certificate always come back and verify, the elements asked
// for come back, and those past their validity at the client's clock do
// not.
func TestClientBind(t *testing.T) {
	c, oid := clientFixture(t, document.Element{Name: "about.html", Data: []byte("about")})
	ctx := context.Background()
	check := func(reply object.BindReply) {
		t.Helper()
		pk, err := keys.UnmarshalPublicKey(reply.Key)
		if err != nil || oid.Verify(pk) != nil {
			t.Fatalf("bind key does not self-certify: %v", err)
		}
		ic, err := cert.UnmarshalIntegrityCertificate(reply.Cert)
		if err != nil || ic.VerifySignature(oid, pk) != nil {
			t.Fatalf("bind certificate does not verify: %v", err)
		}
	}
	now := time.Now()

	reply, err := c.Bind(ctx, object.BindRequest{NameCerts: true, Names: []string{"index.html"}, At: now})
	if err != nil {
		t.Fatal(err)
	}
	check(reply)
	if len(reply.Items) != 1 || string(reply.Items[0].Element.Data) != "served" {
		t.Fatalf("bind for index.html carried %+v", reply.Items)
	}
	if ncs, err := object.DecodeCertList(reply.NameCerts); err != nil || len(ncs) != 0 {
		t.Fatalf("name certificates = %v, %v", ncs, err)
	}

	reply, err = c.Bind(ctx, object.BindRequest{All: true, At: now})
	if err != nil {
		t.Fatal(err)
	}
	check(reply)
	if len(reply.Items) != 2 || reply.Items[0].Name != "about.html" || reply.Items[1].Name != "index.html" {
		t.Fatalf("bind for all elements carried %+v, want both in name order", reply.Items)
	}

	reply, err = c.Bind(ctx, object.BindRequest{All: true, At: now.Add(2 * time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range reply.Items {
		if it.Err == nil {
			t.Errorf("bind past the certificate's validity carried %q", it.Name)
		}
	}
}

// TestDecodersSizeNoSliceFromABareCount: every decoder that sizes a slice
// from an item count refuses a count whose items cannot fit in the bytes
// after it before allocating, so a body that holds only a count — a few
// bytes claiming tens of thousands of items — allocates at most 1 KiB.
func TestDecodersSizeNoSliceFromABareCount(t *testing.T) {
	const budget = 1 << 10
	count := []byte{0x80, 0x80, 0x04} // 65,536, the batch bound
	noTime := make([]byte, 8)
	noTime[0] = 0x80 // the zero time
	bindRequest := append(append(make([]byte, globeid.Size), 0, 0), noTime...)
	for _, tc := range []struct {
		name   string
		body   []byte
		decode func([]byte) error
	}{
		{"DecodeBindReply", append([]byte{0, 0, 0}, count...), func(b []byte) error {
			_, err := object.DecodeBindReply(b)
			return err
		}},
		{"DecodeElementsResponse", count, func(b []byte) error {
			_, err := object.DecodeElementsResponse(b)
			return err
		}},
		{"DecodeBindRequest", append(bindRequest, count...), func(b []byte) error {
			_, err := object.DecodeBindRequest(b)
			return err
		}},
		{"DecodeElementsRequest", append(make([]byte, globeid.Size+1), count...), func(b []byte) error {
			_, _, _, err := object.DecodeElementsRequest(b)
			return err
		}},
		{"DecodeCertList", []byte{0x80, 0x08}, func(b []byte) error { // 1,024, the list bound
			_, err := object.DecodeCertList(b)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.decode(tc.body); err == nil {
				t.Fatalf("%d-byte body claiming a full list decoded", len(tc.body))
			}
			got := alloctest.BytesPerRun(t, 20, func() { _ = tc.decode(tc.body) })
			if got > budget {
				t.Errorf("%s of a %d-byte body allocates %.0f B, budget %d", tc.name, len(tc.body), got, budget)
			}
		})
	}
}
