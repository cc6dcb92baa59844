package server

// Internal tests for the precomputed wire payloads: handlers must serve
// the integrity-certificate table, key and element responses without
// per-request marshalling, and Install/update must be the only points
// that rebuild them.

import (
	"bytes"
	"context"
	"fmt"
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
)

var wireT0 = time.Date(2005, 4, 4, 12, 0, 0, 0, time.UTC)

// newWireServer installs a small document and returns the server, its
// OID and the owner key pair.
func newWireServer(tb testing.TB, elemSize int) (*Server, globeid.OID, *keys.KeyPair) {
	tb.Helper()
	owner := keytest.RSA()
	oid := globeid.FromPublicKey(owner.Public())
	doc := document.New()
	payload := bytes.Repeat([]byte{0x42}, elemSize)
	for _, name := range []string{"index.html", "logo.png", "style.css"} {
		if err := doc.Put(document.Element{Name: name, ContentType: "text/html", Data: payload}); err != nil {
			tb.Fatal(err)
		}
	}
	icert, err := document.IssueCertificate(doc, oid, owner, wireT0, document.UniformTTL(time.Hour))
	if err != nil {
		tb.Fatal(err)
	}
	s := New("bench-srv", "site", nil, nil, Limits{})
	b := BundleFromDocument(oid, owner.Public(), doc, icert, nil)
	if err := s.Install(b, "owner"); err != nil {
		tb.Fatal(err)
	}
	return s, oid, owner
}

// signedBundle returns a bundle of elems under a certificate the owner
// signs at version directly, issued version seconds after wireT0, each
// entry valid for an hour.
func signedBundle(tb testing.TB, owner *keys.KeyPair, version uint64, elems []document.Element) *Bundle {
	tb.Helper()
	b, err := signBundle(owner, version, elems)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// signBundle is signedBundle for a goroutine other than the test's.
func signBundle(owner *keys.KeyPair, version uint64, elems []document.Element) (*Bundle, error) {
	oid := globeid.FromPublicKey(owner.Public())
	issued := wireT0.Add(time.Duration(version) * time.Second)
	c := &cert.IntegrityCertificate{ObjectID: oid, Version: version, Issued: issued}
	for _, e := range elems {
		c.Entries = append(c.Entries, cert.ElementEntry{Name: e.Name, Hash: e.Hash(), NotBefore: issued, Expires: issued.Add(time.Hour)})
	}
	if err := c.Sign(owner); err != nil {
		return nil, err
	}
	return &Bundle{OID: oid, Key: owner.Public(), Elements: elems, Cert: c}, nil
}

// joined is a handler's reply as the one body a client reads: the
// concatenation of its buffers.
func joined(bufs [][]byte, err error) ([]byte, error) {
	return bytes.Join(bufs, nil), err
}

func TestHandlersServePrecomputedPayloads(t *testing.T) {
	s, oid, _ := newWireServer(t, 64)
	req := object.EncodeOIDRequest(oid)

	got, err := joined(s.handleGetCert(context.Background(), req))
	if err != nil {
		t.Fatal(err)
	}
	ic, err := cert.UnmarshalIntegrityCertificate(got)
	if err != nil {
		t.Fatalf("served cert payload does not unmarshal: %v", err)
	}
	if ic.ObjectID != oid {
		t.Fatal("served cert names the wrong object")
	}

	elemReq := object.EncodeElementRequest(oid, "index.html", "")
	wire, err := joined(s.handleGetElement(context.Background(), elemReq))
	if err != nil {
		t.Fatal(err)
	}
	e, err := object.DecodeElement(wire)
	if err != nil {
		t.Fatalf("served element payload does not decode: %v", err)
	}
	if e.Name != "index.html" || len(e.Data) != 64 {
		t.Fatalf("decoded element = %q (%d bytes)", e.Name, len(e.Data))
	}
	if got := s.ReadCount(oid); got != 1 {
		t.Fatalf("ReadCount = %d, want 1", got)
	}
}

func TestWireRebuiltOnUpdate(t *testing.T) {
	s, oid, owner := newWireServer(t, 64)
	req := object.EncodeOIDRequest(oid)

	before, err := joined(s.handleGetCert(context.Background(), req))
	if err != nil {
		t.Fatal(err)
	}

	b := signedBundle(t, owner, 2, []document.Element{{Name: "index.html", Data: []byte("v2")}})
	if err := s.Update(b, "owner"); err != nil {
		t.Fatal(err)
	}

	after, err := joined(s.handleGetCert(context.Background(), req))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(before, after) {
		t.Fatal("GetCert payload not rebuilt after update")
	}
	wire, err := joined(s.handleGetElement(context.Background(), object.EncodeElementRequest(oid, "index.html", "")))
	if err != nil {
		t.Fatal(err)
	}
	e, err := object.DecodeElement(wire)
	if err != nil {
		t.Fatal(err)
	}
	if string(e.Data) != "v2" {
		t.Fatalf("element payload not rebuilt: %q", e.Data)
	}
}

func TestHandleGetElementsServesBatch(t *testing.T) {
	s, oid, _ := newWireServer(t, 64)
	names := []string{"index.html", "logo.png", "style.css"}
	resp, err := joined(s.handleGetElements(context.Background(), object.EncodeElementsRequest(oid, names, "paris")))
	if err != nil {
		t.Fatal(err)
	}
	items, err := object.DecodeElementsResponse(resp)
	if err != nil {
		t.Fatalf("batch response does not decode: %v", err)
	}
	if len(items) != len(names) {
		t.Fatalf("batch returned %d items, want %d", len(items), len(names))
	}
	for i, it := range items {
		if it.Name != names[i] {
			t.Fatalf("item %d = %q, want %q (order must match request)", i, it.Name, names[i])
		}
		if it.Err != nil {
			t.Fatalf("item %q: %v", it.Name, it.Err)
		}
		if it.Element.Name != names[i] || len(it.Element.Data) != 64 {
			t.Fatalf("item %q decoded to %q (%d bytes)", it.Name, it.Element.Name, len(it.Element.Data))
		}
	}
	if got := s.ReadCount(oid); got != 3 {
		t.Fatalf("ReadCount = %d, want 3 (every batch item counts as a read)", got)
	}
}

func TestHandleGetElementsUnknownNameIsPerItem(t *testing.T) {
	s, oid, _ := newWireServer(t, 64)
	resp, err := joined(s.handleGetElements(context.Background(), object.EncodeElementsRequest(oid, []string{"index.html", "missing.js"}, "")))
	if err != nil {
		t.Fatalf("a missing element must not fail the whole batch: %v", err)
	}
	items, err := object.DecodeElementsResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if items[0].Err != nil {
		t.Fatalf("known element errored: %v", items[0].Err)
	}
	if items[1].Err == nil {
		t.Fatal("unknown element returned no per-item error")
	}
}

func TestHandleGetElementsBudgetOverflowMarksItems(t *testing.T) {
	// Three 7 MiB elements cannot all fit under the ~16 MiB response
	// frame budget: the overflowing tail must come back as per-item
	// errors telling the client to ask for them again in its next
	// exchange, and its bytes must not count as served.
	s, oid, _ := newWireServer(t, 7<<20)
	resp, err := joined(s.handleGetElements(context.Background(), object.EncodeElementsRequest(oid, []string{"index.html", "logo.png", "style.css"}, "")))
	if err != nil {
		t.Fatal(err)
	}
	items, err := object.DecodeElementsResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	served, deferred := 0, 0
	for _, it := range items {
		if it.Err != nil {
			deferred++
		} else {
			served++
		}
	}
	if served != 2 || deferred != 1 {
		t.Fatalf("served=%d deferred=%d, want 2 served and 1 deferred under the frame budget", served, deferred)
	}
	if got := s.ReadCount(oid); got != 2 {
		t.Fatalf("ReadCount = %d, want 2 (deferred items are not reads)", got)
	}
}

// TestGetCertZeroAllocs pins the satellite requirement: serving the
// integrity-certificate table performs zero per-request allocations —
// the marshalling happened once, at install/update time.
func TestGetCertZeroAllocs(t *testing.T) {
	s, oid, _ := newWireServer(t, 1024)
	req := object.EncodeOIDRequest(oid)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.handleGetCert(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("handleGetCert allocates %.1f objects per request, want 0", allocs)
	}
}

// TestGetElementServesTheWireTableUncopied pins the server's share of
// the payload budget: a 1 MiB element is answered with the precomputed
// wire bytes themselves (the transport then sends them from there), so a
// request allocates nothing payload-sized.
func TestGetElementServesTheWireTableUncopied(t *testing.T) {
	const size = 1 << 20
	s, oid, _ := newWireServer(t, size)
	req := object.EncodeElementRequest(oid, "index.html", "")
	h, err := s.replica(oid)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := h.head().wire.element("index.html")
	table := p.wire
	got, err := s.handleGetElement(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0]) != len(table) || &got[0][0] != &table[0] {
		t.Fatal("handleGetElement answered with a copy of the wire table entry")
	}
	perRequest := alloctest.BytesPerRun(t, 100, func() {
		if _, err := s.handleGetElement(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	})
	if perRequest > 4096 {
		t.Fatalf("handleGetElement allocates %.0f bytes serving a 1 MiB element, want no payload-sized allocation", perRequest)
	}
}

// TestWarmBindReplyServesTheWireTableUncopied pins the same budget for
// the request a warm client sends for a 1 MiB element: obj.bind naming
// the certificate the replica still serves. The reply is the elements
// alone, scatter-assembled: the element's buffer is the wire table entry
// itself, so the server allocates its framing and nothing payload-sized —
// in the handler, and in the exchange as a whole, whose one payload-sized
// allocation is the client's frame buffer.
func TestWarmBindReplyServesTheWireTableUncopied(t *testing.T) {
	const size = 1 << 20
	s, oid, _ := newWireServer(t, size)
	h, err := s.replica(oid)
	if err != nil {
		t.Fatal(err)
	}
	head := h.head()
	p, _ := head.wire.element("index.html")
	table := p.wire
	warm := object.BindRequest{OID: oid, Have: head.certHash, Names: []string{"index.html"}}
	req := object.EncodeBindRequest(warm)
	got, err := s.handleBind(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	aliased := false
	for _, b := range got {
		aliased = aliased || (len(b) == len(table) && &b[0] == &table[0])
	}
	if !aliased {
		t.Fatal("warm obj.bind answered with a copy of the wire table entry")
	}
	if reply, err := object.DecodeBindReply(bytes.Join(got, nil)); err != nil || len(reply.Key)+len(reply.Cert) > 0 {
		t.Fatalf("warm obj.bind for an unchanged version carries %d key and %d certificate bytes (err %v), want neither",
			len(reply.Key), len(reply.Cert), err)
	}
	perRequest := alloctest.BytesPerRun(t, 100, func() {
		if _, err := s.handleBind(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	})
	if perRequest > 4096 {
		t.Fatalf("handleBind allocates %.0f bytes serving a 1 MiB element warm, want no payload-sized allocation", perRequest)
	}

	n := netsim.PaperTestbed(0)
	t.Cleanup(n.Close)
	l, err := n.Listen(netsim.AmsterdamPrimary, "objsvc")
	if err != nil {
		t.Fatal(err)
	}
	s.Start(l)
	t.Cleanup(s.Close)
	c := object.NewClient(oid, "objsvc", n.Dialer(netsim.Paris, netsim.AmsterdamPrimary+":objsvc"))
	t.Cleanup(c.Close)
	perCall := alloctest.BytesPerRun(t, 20, func() {
		if reply, err := c.Bind(context.Background(), warm); err != nil || len(reply.Items) != 1 {
			t.Fatalf("warm Bind: %v", err)
		}
	})
	if ratio := perCall / size; ratio > 1.05 {
		t.Errorf("warm Bind allocates %.0f bytes per 1 MiB element (%.2f per payload byte), want <= 1.05", perCall, ratio)
	}
}

func BenchmarkHandleGetCert(b *testing.B) {
	s, oid, _ := newWireServer(b, 1024)
	req := object.EncodeOIDRequest(oid)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.handleGetCert(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHandleGetElement(b *testing.B) {
	s, oid, _ := newWireServer(b, 64<<10)
	req := object.EncodeElementRequest(oid, "index.html", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.handleGetElement(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHandleGetKey(b *testing.B) {
	s, oid, _ := newWireServer(b, 64)
	req := object.EncodeOIDRequest(oid)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.handleGetKey(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHandleBindCarriesWhatWasAsked: obj.bind always carries the key and
// the integrity certificate, carries the name certificates only when
// asked, and carries the elements asked for — by name, or every one in
// name order — each from the wire table and counted like a fetch of it.
// An element whose certificate entry is not fresh at the client's clock
// reading is declined and moves no byte.
func TestHandleBindCarriesWhatWasAsked(t *testing.T) {
	s, oid, owner := newWireServer(t, 64)
	h, err := s.replica(oid)
	if err != nil {
		t.Fatal(err)
	}
	head := h.head()
	bind := func(req object.BindRequest) object.BindReply {
		t.Helper()
		req.OID = oid
		resp, err := joined(s.handleBind(context.Background(), object.EncodeBindRequest(req)))
		if err != nil {
			t.Fatal(err)
		}
		reply, err := object.DecodeBindReply(resp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reply.Key, owner.Public().Marshal()) || !bytes.Equal(reply.Cert, head.wire.icert[0]) {
			t.Fatal("bind reply lacks the key or the integrity certificate")
		}
		return reply
	}
	carried := func(reply object.BindReply) []string {
		var names []string
		for _, it := range reply.Items {
			if it.Err == nil && len(it.Element.Data) == 64 {
				names = append(names, it.Name)
			}
		}
		return names
	}
	fresh := wireT0.Add(time.Minute)

	if reply := bind(object.BindRequest{At: fresh}); len(reply.Items) != 0 || len(reply.NameCerts) != 0 {
		t.Fatalf("certificate-only bind carried %d items and %d name-certificate bytes", len(reply.Items), len(reply.NameCerts))
	}
	if reply := bind(object.BindRequest{NameCerts: true, Names: []string{"logo.png"}, At: fresh}); !bytes.Equal(reply.NameCerts, head.wire.nameCerts[0]) ||
		fmt.Sprint(carried(reply)) != "[logo.png]" {
		t.Fatalf("bind for logo.png with name certificates carried %v", carried(reply))
	}
	if got := carried(bind(object.BindRequest{All: true, At: fresh})); fmt.Sprint(got) != "[index.html logo.png style.css]" {
		t.Fatalf("bind for all elements carried %v, want every element in name order", got)
	}
	if got := s.ReadCount(oid); got != 4 {
		t.Fatalf("ReadCount = %d, want 4 element reads", got)
	}

	stale := bind(object.BindRequest{All: true, At: wireT0.Add(2 * time.Hour)})
	if len(stale.Items) != 3 || len(carried(stale)) != 0 {
		t.Fatalf("bind past the certificate's validity carried %v", carried(stale))
	}
	if got := s.ReadCount(oid); got != 4 {
		t.Fatalf("ReadCount = %d after a stale bind, want still 4", got)
	}
}

// TestHandleBindAnswersHeldSlots: a warm bind slot naming the hash the
// client holds an element's bytes under is answered held — no bytes, no
// read counted, no access observed — when the head lists the element
// under that hash, whatever the client's clock reading, and carried under
// the usual rules when it lists another; a slot naming no hash is a plain
// request.
func TestHandleBindAnswersHeldSlots(t *testing.T) {
	s, oid, _ := newWireServer(t, 64)
	h, err := s.replica(oid)
	if err != nil {
		t.Fatal(err)
	}
	head := h.head()
	var observed []string
	s.AccessObserver = func(_ globeid.OID, element, _ string) { observed = append(observed, element) }
	bind := func(at time.Time, held ...[globeid.Size]byte) object.BindReply {
		t.Helper()
		req := object.BindRequest{OID: oid, Have: head.certHash, Names: []string{"index.html", "logo.png", "style.css"}, Held: held, At: at}
		resp, err := joined(s.handleBind(context.Background(), object.EncodeBindRequest(req)))
		if err != nil {
			t.Fatal(err)
		}
		reply, err := object.DecodeBindReply(resp)
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}
	status := func(reply object.BindReply) string {
		var out []string
		for _, it := range reply.Items {
			switch {
			case it.Held:
				out = append(out, "held")
			case it.Err != nil:
				out = append(out, "declined")
			default:
				out = append(out, "carried")
			}
		}
		return fmt.Sprint(out)
	}
	index, logo := head.leaves[0].Hash, head.leaves[1].Hash
	stale := logo
	stale[0] ^= 1

	reply := bind(wireT0.Add(time.Minute), index, stale, [globeid.Size]byte{})
	if got := status(reply); got != "[held carried carried]" {
		t.Fatalf("slots held under the head's hash, another hash and none: %s", got)
	}
	if got := fmt.Sprint(observed); got != "[logo.png style.css]" || s.ReadCount(oid) != 2 {
		t.Errorf("observed %s with ReadCount %d, want the two carried elements only", got, s.ReadCount(oid))
	}
	if got := status(bind(wireT0.Add(2*time.Hour), index, logo, stale)); got != "[held held declined]" {
		t.Errorf("held slots past the certificate's validity: %s, want the current ones held and the other declined", got)
	}
	if s.ReadCount(oid) != 2 {
		t.Errorf("ReadCount = %d after held and declined slots, want still 2", s.ReadCount(oid))
	}
}

// TestReplicaListSizesNoSliceFromABareCount: the admin list reply's
// decoder refuses a count of OIDs that cannot fit in the bytes after it
// before allocating for them, so 3 bytes claiming 2^20 replicas
// allocate at most 1 KiB.
func TestReplicaListSizesNoSliceFromABareCount(t *testing.T) {
	body := []byte{0x80, 0x80, 0x40} // 2^20, the list bound
	if _, err := decodeReplicaList(body); err == nil {
		t.Fatal("a bare count of 2^20 replicas decoded")
	}
	if got := alloctest.BytesPerRun(t, 20, func() { _, _ = decodeReplicaList(body) }); got > 1<<10 {
		t.Errorf("decoding a bare count allocates %.0f B, budget 1024", got)
	}
}
