package document_test

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/fstest"
	"testing/quick"
	"time"

	"globedoc/internal/cert"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys/keytest"
)

func TestPutGetRemove(t *testing.T) {
	d := document.New()
	if err := d.Put(document.Element{Name: "index.html", Data: []byte("<html>")}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	e, err := d.Get("index.html")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(e.Data, []byte("<html>")) {
		t.Errorf("Data = %q", e.Data)
	}
	if e.ContentType != "text/html; charset=utf-8" {
		t.Errorf("ContentType = %q", e.ContentType)
	}
	if err := d.Remove("index.html"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := d.Get("index.html"); !errors.Is(err, document.ErrNoSuchElement) {
		t.Fatalf("Get after Remove: %v", err)
	}
	if err := d.Remove("index.html"); !errors.Is(err, document.ErrNoSuchElement) {
		t.Fatalf("double Remove: %v", err)
	}
}

func TestPutRejectsEmptyName(t *testing.T) {
	d := document.New()
	if err := d.Put(document.Element{Data: []byte("x")}); !errors.Is(err, document.ErrEmptyName) {
		t.Fatalf("err = %v, want ErrEmptyName", err)
	}
}

// TestVersionIncrements pins what a document version is: the version of
// the last certificate issued over it. Put and Remove leave it alone;
// each issue advances it by one, whether or not the elements changed.
func TestVersionIncrements(t *testing.T) {
	owner := keytest.Ed()
	oid := globeid.FromPublicKey(owner.Public())
	d := document.New()
	if d.Version() != 0 {
		t.Fatalf("initial version = %d", d.Version())
	}
	d.Put(document.Element{Name: "a", Data: []byte("1")})
	d.Put(document.Element{Name: "b", Data: []byte("2")})
	d.Remove("a")
	if d.Version() != 0 {
		t.Fatalf("version after puts and a remove = %d, want 0", d.Version())
	}
	for want := uint64(1); want <= 3; want++ {
		c, err := document.IssueCertificate(d, oid, owner, time.Unix(1e9, 0), document.UniformTTL(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		if c.Version != want || d.Version() != want {
			t.Fatalf("issue %d signed version %d, document at %d", want, c.Version, d.Version())
		}
	}
}

// TestConcurrentIssuersSignDistinctVersions checks that the version an
// issue signs is reserved under the lock that takes the elements: eight
// concurrent issuers sign eight distinct versions, 1 through 8.
func TestConcurrentIssuersSignDistinctVersions(t *testing.T) {
	const issuers = 8
	owner := keytest.Ed()
	oid := globeid.FromPublicKey(owner.Public())
	d := document.New()
	d.Put(document.Element{Name: "index.html", Data: []byte("page")})
	versions := make(chan uint64, issuers)
	var wg sync.WaitGroup
	for i := 0; i < issuers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := document.IssueCertificate(d, oid, owner, time.Unix(1e9, 0), document.UniformTTL(time.Hour))
			if err != nil {
				t.Error(err)
				return
			}
			versions <- c.Version
		}()
	}
	wg.Wait()
	close(versions)
	seen := make(map[uint64]bool)
	for v := range versions {
		if seen[v] || v < 1 || v > issuers {
			t.Errorf("version %d signed twice or out of 1..%d", v, issuers)
		}
		seen[v] = true
	}
	if len(seen) != issuers || d.Version() != issuers {
		t.Fatalf("%d distinct versions signed, document at %d; want %d", len(seen), d.Version(), issuers)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	d := document.New()
	d.Put(document.Element{Name: "a", Data: []byte("original")})
	e, _ := d.Get("a")
	e.Data[0] = 'X'
	again, _ := d.Get("a")
	if !bytes.Equal(again.Data, []byte("original")) {
		t.Fatal("mutation through Get leaked into document state")
	}
}

func TestPutCopiesCallerData(t *testing.T) {
	d := document.New()
	data := []byte("original")
	d.Put(document.Element{Name: "a", Data: data})
	data[0] = 'X'
	e, _ := d.Get("a")
	if !bytes.Equal(e.Data, []byte("original")) {
		t.Fatal("caller mutation leaked into document state")
	}
}

func TestNamesSortedAndSizes(t *testing.T) {
	d := document.New()
	d.Put(document.Element{Name: "z.png", Data: make([]byte, 10)})
	d.Put(document.Element{Name: "a.html", Data: make([]byte, 5)})
	names := d.Names()
	if len(names) != 2 || names[0] != "a.html" || names[1] != "z.png" {
		t.Errorf("Names = %v", names)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
	if d.TotalSize() != 15 {
		t.Errorf("TotalSize = %d", d.TotalSize())
	}
}

// TestSnapshotSortedCallerSlicesIsolated: Snapshot shares the document's
// bytes, so the invariant protecting served state is that a caller's own
// slices — the one passed to Put, the one Get returned — are copies: a
// mutation of either reaches neither Get, nor Snapshot, nor the next
// certificate's hashes. Snapshot stays sorted. (internal/server's
// TestCallerMutationAfterPutChangesNothingServed follows the same
// mutation through a reissue to both replicas.)
func TestSnapshotSortedCallerSlicesIsolated(t *testing.T) {
	owner := keytest.Ed()
	oid := globeid.FromPublicKey(owner.Public())
	d := document.New()
	put := []byte("2")
	d.Put(document.Element{Name: "b", Data: put})
	d.Put(document.Element{Name: "a", Data: []byte("1")})
	got, err := d.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	put[0], got.Data[0] = 'X', 'Y'

	want := map[string]string{"a": "1", "b": "2"}
	elems := d.Snapshot()
	if len(elems) != 2 || elems[0].Name != "a" || elems[1].Name != "b" {
		t.Fatalf("Snapshot = %v, want a, b", elems)
	}
	for _, e := range elems {
		if string(e.Data) != want[e.Name] {
			t.Errorf("Snapshot %s = %q, want %q", e.Name, e.Data, want[e.Name])
		}
		if again, _ := d.Get(e.Name); string(again.Data) != want[e.Name] {
			t.Errorf("Get %s = %q, want %q", e.Name, again.Data, want[e.Name])
		}
	}
	c, err := document.IssueCertificate(d, oid, owner, time.Unix(1e9, 0), document.UniformTTL(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range c.Entries {
		if entry.Hash != globeid.HashElement([]byte(want[entry.Name])) {
			t.Errorf("certificate hash of %s is not that of %q", entry.Name, want[entry.Name])
		}
	}
}

// TestSnapshotWhilePutting: a Put racing a reader replaces the entry and
// never writes the bytes an earlier Snapshot shares, so every snapshot
// sees an element whole — one Put's bytes — and -race reports nothing.
func TestSnapshotWhilePutting(t *testing.T) {
	const puts = 200
	fill := func(b byte) []byte { return bytes.Repeat([]byte{b}, 64) }
	d := document.New()
	d.Put(document.Element{Name: "a", Data: fill(0)})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= puts; i++ {
			d.Put(document.Element{Name: "a", Data: fill(byte(i))})
		}
	}()
	for i := 0; i < puts; i++ {
		if e := d.Snapshot()[0]; !bytes.Equal(e.Data, fill(e.Data[0])) {
			t.Errorf("snapshot %d saw a torn element: %v", i, e.Data)
			break
		}
	}
	wg.Wait()
}

// TestIssueCertificateHashesWhatWasPut: the certificate takes the hashes
// Put stored, so after puts, overwrites and removals each entry's hash
// must still be that of the element's current bytes, and the entries
// must be the current elements, sorted.
func TestIssueCertificateHashesWhatWasPut(t *testing.T) {
	owner := keytest.Ed()
	oid := globeid.FromPublicKey(owner.Public())
	d := document.New()
	for _, e := range []document.Element{
		{Name: "c.html", Data: []byte("c1")},
		{Name: "a.html", Data: []byte("a1")},
		{Name: "b.png", Data: []byte("b1")},
		{Name: "a.html", Data: []byte("a2, overwritten")},
		{Name: "d.css", Data: nil},
	} {
		if err := d.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Remove("b.png"); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(document.Element{Name: "c.html", Data: []byte("c2")}); err != nil {
		t.Fatal(err)
	}
	c, err := document.IssueCertificate(d, oid, owner, time.Unix(1e9, 0), document.UniformTTL(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	names := d.Names()
	if len(c.Entries) != len(names) {
		t.Fatalf("certificate lists %d entries, document holds %d", len(c.Entries), len(names))
	}
	for i, entry := range c.Entries {
		if entry.Name != names[i] {
			t.Fatalf("entry %d is %q, want %q", i, entry.Name, names[i])
		}
		e, err := d.Get(entry.Name)
		if err != nil {
			t.Fatal(err)
		}
		if entry.Hash != globeid.HashElement(e.Data) {
			t.Errorf("certificate hash of %s is not that of its bytes %q", entry.Name, e.Data)
		}
	}
}

func TestFromFS(t *testing.T) {
	fsys := fstest.MapFS{
		"site/index.html":    {Data: []byte("<html>home</html>")},
		"site/img/logo.png":  {Data: []byte{0x89, 'P', 'N', 'G'}},
		"site/notes/faq.txt": {Data: []byte("faq")},
	}
	d, err := document.FromFS(fsys, "site")
	if err != nil {
		t.Fatalf("FromFS: %v", err)
	}
	names := d.Names()
	want := []string{"img/logo.png", "index.html", "notes/faq.txt"}
	if len(names) != 3 {
		t.Fatalf("Names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("Names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestIssueCertificateCoversAllElements(t *testing.T) {
	owner := keytest.Ed()
	oid := globeid.FromPublicKey(owner.Public())
	d := document.New()
	d.Put(document.Element{Name: "index.html", Data: []byte("page")})
	d.Put(document.Element{Name: "logo.png", Data: []byte("img")})

	issued := time.Date(2005, 4, 4, 12, 0, 0, 0, time.UTC)
	c, err := document.IssueCertificate(d, oid, owner, issued, document.UniformTTL(time.Hour))
	if err != nil {
		t.Fatalf("IssueCertificate: %v", err)
	}
	if err := c.VerifySignature(oid, owner.Public()); err != nil {
		t.Fatalf("VerifySignature: %v", err)
	}
	if len(c.Entries) != 2 {
		t.Fatalf("entries = %d", len(c.Entries))
	}
	for _, name := range d.Names() {
		e, _ := d.Get(name)
		if err := c.VerifyElement(name, e.Data, issued.Add(time.Minute)); err != nil {
			t.Errorf("VerifyElement(%q): %v", name, err)
		}
	}
	if c.Version != d.Version() {
		t.Errorf("certificate version %d != document version %d", c.Version, d.Version())
	}
}

func TestIssueCertificatePerElementTTL(t *testing.T) {
	owner := keytest.Ed()
	oid := globeid.FromPublicKey(owner.Public())
	d := document.New()
	d.Put(document.Element{Name: "news.html", Data: []byte("breaking")})
	d.Put(document.Element{Name: "logo.png", Data: []byte("logo")})
	issued := time.Date(2005, 4, 4, 12, 0, 0, 0, time.UTC)
	ttl := func(name string) time.Duration {
		if name == "news.html" {
			return time.Minute
		}
		return 24 * time.Hour
	}
	c, err := document.IssueCertificate(d, oid, owner, issued, ttl)
	if err != nil {
		t.Fatal(err)
	}
	news, _ := c.Lookup("news.html")
	logo, _ := c.Lookup("logo.png")
	if !news.Expires.Equal(issued.Add(time.Minute)) {
		t.Errorf("news expires %v", news.Expires)
	}
	if !logo.Expires.Equal(issued.Add(24 * time.Hour)) {
		t.Errorf("logo expires %v", logo.Expires)
	}
	at := issued.Add(10 * time.Minute)
	newsData, _ := d.Get("news.html")
	if err := c.VerifyElement("news.html", newsData.Data, at); !errors.Is(err, cert.ErrFreshness) {
		t.Errorf("stale news accepted: %v", err)
	}
}

func TestGuessContentType(t *testing.T) {
	cases := map[string]string{
		"x.png":  "image/png",
		"x.bin":  "application/octet-stream",
		"x.jpeg": "image/jpeg",
	}
	for name, want := range cases {
		if got := document.GuessContentType(name); got != want && name != "x.jpeg" {
			t.Errorf("GuessContentType(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestQuickDocumentStateMachine(t *testing.T) {
	// Property: after any sequence of puts of distinct names, every name
	// is retrievable with its latest content and Len matches.
	f := func(names []string, payload byte) bool {
		d := document.New()
		seen := make(map[string][]byte)
		for i, n := range names {
			if n == "" {
				continue
			}
			data := []byte{payload, byte(i)}
			if d.Put(document.Element{Name: n, Data: data}) != nil {
				return false
			}
			seen[n] = data
		}
		if d.Len() != len(seen) {
			return false
		}
		for n, want := range seen {
			e, err := d.Get(n)
			if err != nil || !bytes.Equal(e.Data, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestIssueSnapshotCoversItsElements: the elements IssueSnapshot returns
// are the ones its certificate lists, in the certificate's order and each
// under its own hash, while a writer keeps replacing one of them — the
// pair describes one state however a Put races the signature.
func TestIssueSnapshotCoversItsElements(t *testing.T) {
	owner := keytest.Ed()
	oid := globeid.FromPublicKey(owner.Public())
	d := document.New()
	for _, name := range []string{"c.html", "a.html", "b.png"} {
		if err := d.Put(document.Element{Name: name, Data: []byte(name)}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := byte(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := d.Put(document.Element{Name: "b.png", Data: []byte{i}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()
	for round := 0; round < 50; round++ {
		elems, c, err := document.IssueSnapshot(d, oid, owner, time.Unix(1e9, 0), document.UniformTTL(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		if len(elems) != len(c.Entries) {
			t.Fatalf("round %d: %d elements, %d entries", round, len(elems), len(c.Entries))
		}
		for i, e := range elems {
			if entry := c.Entries[i]; entry.Name != e.Name || entry.Hash != e.Hash() {
				t.Fatalf("round %d: element %q at %d is not what entry %q lists", round, e.Name, i, entry.Name)
			}
		}
	}
}
