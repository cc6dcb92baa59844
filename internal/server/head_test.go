package server

// Tests for the one representation of hosted state: a replica is its
// immutable head version. The head holds each payload byte once, an
// update shares what did not change, superseded versions hold no bytes,
// and every request — a batch, an export — is answered from one head.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"globedoc/internal/alloctest"
	"globedoc/internal/cert"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/object"
)

// headNames returns n element names, sorted.
func headNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("e%02d.html", i)
	}
	return names
}

// headBundle signs a bundle at version whose elements are size bytes of
// fill, except the one named changed, which is size bytes of version's
// low byte — so bundles of different versions differ in that element.
func headBundle(tb testing.TB, owner *keys.KeyPair, version uint64, names []string, size int, fill byte, changed string) *Bundle {
	tb.Helper()
	elems := make([]document.Element, len(names))
	for i, name := range names {
		data := make([]byte, size)
		b := fill
		if name == changed {
			b = byte(version)
		}
		for j := range data {
			data[j] = b
		}
		elems[i] = document.Element{Name: name, ContentType: "text/html", Data: data}
	}
	return signedBundle(tb, owner, version, elems)
}

// servedPayload returns obj.getelement's reply for name: the one buffer
// the handler answers with.
func servedPayload(tb testing.TB, s *Server, oid globeid.OID, name string) []byte {
	tb.Helper()
	got, err := s.handleGetElement(context.Background(), object.EncodeElementRequest(oid, name, ""))
	if err != nil {
		tb.Fatal(err)
	}
	if len(got) != 1 {
		tb.Fatalf("obj.getelement answered with %d buffers, want 1", len(got))
	}
	return got[0]
}

// TestRetainedHeapTracksStoredBytes pins what the process holds per
// hosted byte — the quantity Limits.MaxBytes is meant to bound: one copy
// of the payloads after Install, and still about one after ten updates,
// because superseded versions keep no bytes.
func TestRetainedHeapTracksStoredBytes(t *testing.T) {
	const n, size = 64, 64 << 10
	owner := keytest.RSA()
	names := headNames(n)
	s := New("heap-srv", "site", nil, nil, Limits{})
	installed := alloctest.HeapRetained(t, func() {
		if err := s.Install(headBundle(t, owner, 1, names, size, 0x42, ""), "owner"); err != nil {
			t.Fatal(err)
		}
	})
	stored := s.StoredBytes()
	if stored != n*size {
		t.Fatalf("StoredBytes = %d, want %d", stored, n*size)
	}
	if limit := stored + stored/4; installed > limit {
		t.Errorf("server retains %d heap bytes after Install of %d stored bytes (%.2fx), want <= 1.25x", installed, stored, float64(installed)/float64(stored))
	}
	updated := alloctest.HeapRetained(t, func() {
		for v := uint64(2); v <= 11; v++ {
			if err := s.Update(headBundle(t, owner, v, names, size, 0x42, names[0]), "owner"); err != nil {
				t.Fatal(err)
			}
		}
	})
	if total, limit := installed+updated, stored+stored/2; total > limit {
		t.Errorf("server retains %d heap bytes after ten one-element updates of %d stored bytes (%.2fx), want <= 1.5x", total, stored, float64(total)/float64(stored))
	}
	t.Logf("retained/stored: %.2fx after Install, %.2fx after ten updates", float64(installed)/float64(stored), float64(installed+updated)/float64(stored))
	if got := s.StoredBytes(); got != stored {
		t.Errorf("StoredBytes = %d after same-size updates, want %d", got, stored)
	}
}

// TestSupersededVersionsHoldNoPayloads is the white-box half of the
// retention rule: every retained version but the head is its signed
// version and its leaf hashes, the retained versions never share a
// backing array with a previous set (which would pin evicted versions),
// and as many as the retention are kept.
func TestSupersededVersionsHoldNoPayloads(t *testing.T) {
	const retention = DefaultVersionRetention
	s, oid, owner := newWireServer(t, 64)
	h, err := s.replica(oid)
	if err != nil {
		t.Fatal(err)
	}
	v := mustVersion(t, s, oid)
	for i := 1; i <= retention+2; i++ {
		before := h.versions()
		updateAt(t, s, owner, v+uint64(i), "index.html", []byte{byte(i)})
		after := h.versions()
		if &before[0] == &after[0] {
			t.Fatalf("update %d reused the previous versions' backing array", i)
		}
		if cap(after) > retention {
			t.Fatalf("update %d: capacity %d exceeds retention %d", i, cap(after), retention)
		}
	}
	versions := h.versions()
	if len(versions) != retention {
		t.Fatalf("%d versions retained, want retention %d", len(versions), retention)
	}
	for i, snap := range versions[:len(versions)-1] {
		if snap.wire.elements != nil || snap.wire.icert[0] != nil || snap.cert != nil || snap.size != 0 || snap.certHash != ([globeid.Size]byte{}) {
			t.Errorf("superseded version at index %d still holds servable state", i)
		}
		if snap.version == 0 || len(snap.entries) != 3 {
			t.Errorf("superseded version at index %d lost its version or entries", i)
		}
	}
	if head := versions[len(versions)-1]; len(head.wire.elements) != 3 || head.cert == nil {
		t.Error("head does not hold the served state")
	}
	// A retained base still yields a delta.
	d, err := s.DeltaSince(oid, versions[0].version)
	if err != nil {
		t.Fatal(err)
	}
	if d.FullRequired || d.Current {
		t.Fatalf("delta from the oldest retained version: FullRequired=%v Current=%v", d.FullRequired, d.Current)
	}
}

// TestUpdateCopiesOnlyWhatChanged pins Server.Update's allocation: with
// one of 64 x 4 KiB elements changed it copies that element, not the
// replica (256 KiB).
func TestUpdateCopiesOnlyWhatChanged(t *testing.T) {
	const n, size, runs = 64, 4 << 10, 10
	owner := keytest.RSA()
	names := headNames(n)
	s := New("update-srv", "site", nil, nil, Limits{})
	if err := s.Install(headBundle(t, owner, 1, names, size, 0x42, ""), "owner"); err != nil {
		t.Fatal(err)
	}
	// One bundle per measured call and one for the warm-up call.
	bundles := make([]*Bundle, runs+1)
	for i := range bundles {
		bundles[i] = headBundle(t, owner, uint64(i+2), names, size, 0x42, names[0])
	}
	next := 0
	perUpdate := alloctest.BytesPerRun(t, runs, func() {
		if err := s.Update(bundles[next], "owner"); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("Update allocates %.0f bytes", perUpdate)
	if perUpdate > 64<<10 {
		t.Fatalf("Update of a %d-byte replica with one changed element allocates %.0f bytes, want <= %d", n*size, perUpdate, 64<<10)
	}
}

// TestUpdateSharesUnchangedPayloads: across an update an unchanged
// element is served from the very same wire entry, a changed one from a
// new entry, and one whose content type alone changed is not shared.
func TestUpdateSharesUnchangedPayloads(t *testing.T) {
	owner := keytest.RSA()
	names := headNames(3)
	s := New("share-srv", "site", nil, nil, Limits{})
	first := headBundle(t, owner, 1, names, 256, 0x42, "")
	if err := s.Install(first, "owner"); err != nil {
		t.Fatal(err)
	}
	oid := first.OID
	before := map[string][]byte{}
	for _, name := range names {
		before[name] = servedPayload(t, s, oid, name)
	}
	second := headBundle(t, owner, 2, names, 256, 0x42, names[0])
	second.Elements[1].ContentType = "text/plain" // same bytes, same hash
	if err := s.Update(second, "owner"); err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		got := servedPayload(t, s, oid, name)
		shared := &got[0] == &before[name][0]
		if want := i == 2; shared != want {
			t.Errorf("%s: payload shared across the update = %v, want %v", name, shared, want)
		}
		e, err := object.DecodeElement(got)
		if err != nil {
			t.Fatal(err)
		}
		if e.ContentType != second.Elements[i].ContentType || string(e.Data) != string(second.Elements[i].Data) {
			t.Errorf("%s: served element is not the updated one", name)
		}
	}
}

// raceReaders runs read in four goroutines, rounds times each, beside an
// updater flipping the replica between the elements of bundles a and b,
// each flip signed by owner at the next version.
func raceReaders(t *testing.T, s *Server, owner *keys.KeyPair, a, b *Bundle, rounds int, read func() error) {
	t.Helper()
	stop := make(chan struct{})
	var updater, readers sync.WaitGroup
	updater.Add(1)
	go func() {
		defer updater.Done()
		v := max(a.Cert.Version, b.Cert.Version)
		for next, other := b, a; ; next, other = other, next {
			select {
			case <-stop:
				return
			default:
			}
			v++
			signed, err := signBundle(owner, v, next.Elements)
			if err == nil {
				err = s.Update(signed, "owner")
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < rounds; i++ {
				if err := read(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	updater.Wait()
}

// TestExportBundleNeverTorn: an export racing an update is one version —
// certificate and elements together — so it always validates at the
// puller or peer that receives it. The stress half hunts a window that
// was a few instructions wide; the first half states the reason it is
// closed: the view a request loads stays one valid version whatever is
// published after it.
func TestExportBundleNeverTorn(t *testing.T) {
	owner := keytest.RSA()
	names := headNames(8)
	a := headBundle(t, owner, 1, names, 512, 0xa1, "")
	b := headBundle(t, owner, 2, names, 512, 0xb2, "")
	s := New("export-srv", "site", nil, nil, Limits{})
	if err := s.Install(a, "owner"); err != nil {
		t.Fatal(err)
	}
	h, err := s.replica(a.OID)
	if err != nil {
		t.Fatal(err)
	}
	view := h.head()
	if err := s.Update(b, "owner"); err != nil {
		t.Fatal(err)
	}
	if got := view.bundle(h.key); got.Cert.Version != a.Cert.Version || got.Validate() != nil {
		t.Fatalf("a view loaded before an update exports version %d, Validate: %v", got.Cert.Version, got.Validate())
	}
	raceReaders(t, s, owner, a, b, 100, func() error {
		got, err := s.ExportBundle(a.OID)
		if err != nil {
			return err
		}
		if err := got.Validate(); err != nil {
			return fmt.Errorf("exported bundle at version %d is torn: %w", got.Cert.Version, err)
		}
		return nil
	})
}

// TestGetElementsAnswersFromOneHead: every element of a batch reply
// comes from the same version, so all of them verify against one
// certificate however the batch races an update.
func TestGetElementsAnswersFromOneHead(t *testing.T) {
	owner := keytest.RSA()
	names := headNames(32)
	a := headBundle(t, owner, 1, names, 64, 0xa1, "")
	b := headBundle(t, owner, 2, names, 64, 0xb2, "")
	s := New("batch-srv", "site", nil, nil, Limits{})
	if err := s.Install(a, "owner"); err != nil {
		t.Fatal(err)
	}
	req := object.EncodeElementsRequest(a.OID, names, "")
	verifiesAgainst := func(items []object.BatchItem, c *cert.IntegrityCertificate) bool {
		for _, it := range items {
			entry, err := c.Lookup(it.Name)
			if err != nil || it.Err != nil || entry.Hash != it.Element.Hash() {
				return false
			}
		}
		return true
	}
	raceReaders(t, s, owner, a, b, 500, func() error {
		resp, err := joined(s.handleGetElements(context.Background(), req))
		if err != nil {
			return err
		}
		items, err := object.DecodeElementsResponse(resp)
		if err != nil {
			return err
		}
		if len(items) != len(names) {
			return fmt.Errorf("batch returned %d items, want %d", len(items), len(names))
		}
		if !verifiesAgainst(items, a.Cert) && !verifiesAgainst(items, b.Cert) {
			return fmt.Errorf("batch reply mixes elements of two versions")
		}
		return nil
	})
}

// TestBindAnswersFromOneHead: an obj.bind reply's certificate and its
// elements are one version's, so every carried element verifies against
// the certificate beside it however the bind races an update — the
// property that keeps an honest replica updated mid-bind from looking
// like a tamperer.
func TestBindAnswersFromOneHead(t *testing.T) {
	owner := keytest.RSA()
	names := headNames(32)
	a := headBundle(t, owner, 1, names, 64, 0xa1, "")
	b := headBundle(t, owner, 2, names, 64, 0xb2, "")
	s := New("bind-srv", "site", nil, nil, Limits{})
	if err := s.Install(a, "owner"); err != nil {
		t.Fatal(err)
	}
	req := object.EncodeBindRequest(object.BindRequest{OID: a.OID, All: true})
	raceReaders(t, s, owner, a, b, 500, func() error {
		resp, err := joined(s.handleBind(context.Background(), req))
		if err != nil {
			return err
		}
		reply, err := object.DecodeBindReply(resp)
		if err != nil {
			return err
		}
		c, err := cert.UnmarshalIntegrityCertificate(reply.Cert)
		if err != nil {
			return err
		}
		if len(reply.Items) != len(names) {
			return fmt.Errorf("bind carried %d items, want %d", len(reply.Items), len(names))
		}
		for _, it := range reply.Items {
			entry, err := c.Lookup(it.Name)
			if err != nil || it.Err != nil || entry.Hash != it.Element.Hash() {
				return fmt.Errorf("bind reply's %q is not the version of its certificate (%d)", it.Name, c.Version)
			}
		}
		return nil
	})
}

// TestDeltaDecodeAllocationBudget pins what a secondary allocates to
// decode obj.getdelta's reply for one changed element of 8 or of 64 at
// 10 heap objects, however many items the reply lists: the items are one
// slice and their names one string, beside the reply, the changed
// element's content type, the key and the certificate (its table and
// its encoding).
func TestDeltaDecodeAllocationBudget(t *testing.T) {
	const deltaDecodeBudget = 10
	for _, n := range []int{8, 64} {
		owner := keytest.Ed()
		names := headNames(n)
		s := New("delta-srv", "site", nil, nil, Limits{})
		if err := s.Install(headBundle(t, owner, 1, names, 64, 0x42, ""), "owner"); err != nil {
			t.Fatal(err)
		}
		if err := s.Update(headBundle(t, owner, 2, names, 64, 0x42, names[0]), "owner"); err != nil {
			t.Fatal(err)
		}
		oid := s.Hosted()[0]
		reply, err := joined(s.handleGetDelta(context.Background(), EncodeDeltaRequest(oid, 1)))
		if err != nil {
			t.Fatal(err)
		}
		got := alloctest.AllocsPerRun(t, 50, func() {
			if _, err := UnmarshalDeltaReply(reply); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("UnmarshalDeltaReply(%d items, 1 changed): %.1f allocations", n, got)
		if got > deltaDecodeBudget {
			t.Errorf("UnmarshalDeltaReply(%d items, 1 changed): %.1f allocations per call, budget %d", n, got, deltaDecodeBudget)
		}
	}
}

// TestServingADeltaCopiesNoElementByte pins what obj.getdelta allocates
// to answer a delta in which 1 of 64 elements changed. The reply
// references the head's element payloads where they lie, as obj.bind's
// does, so it allocates the same for 4 KiB elements as for 64 KiB ones:
// the items, their framing and a copy of the key and certificate.
func TestServingADeltaCopiesNoElementByte(t *testing.T) {
	const budget = 12 << 10
	owner := keytest.RSA()
	names := headNames(64)
	var got [2]float64
	for i, size := range []int{4 << 10, 64 << 10} {
		s := New("delta-srv", "site", nil, nil, Limits{})
		if err := s.Install(headBundle(t, owner, 1, names, size, 0x42, ""), "owner"); err != nil {
			t.Fatal(err)
		}
		if err := s.Update(headBundle(t, owner, 2, names, size, 0x42, names[7]), "owner"); err != nil {
			t.Fatal(err)
		}
		req := EncodeDeltaRequest(s.Hosted()[0], 1)
		got[i] = alloctest.BytesPerRun(t, 50, func() {
			if _, err := s.handleGetDelta(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("obj.getdelta, 1 of 64 x %d KiB changed: %.0f B allocated", size>>10, got[i])
	}
	if got[0] > budget {
		t.Errorf("serving a delta of 1 of 64 x 4 KiB allocates %.0f B, budget %d", got[0], budget)
	}
	if got[1] > got[0]+512 {
		t.Errorf("serving a delta allocates %.0f B for 64 KiB elements and %.0f B for 4 KiB ones: element bytes are copied", got[1], got[0])
	}
}
