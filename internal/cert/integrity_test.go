package cert_test

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"globedoc/internal/cert"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/keys/keytest"
)

var (
	t0 = time.Date(2005, 4, 4, 12, 0, 0, 0, time.UTC)
	t1 = t0.Add(time.Hour)
)

func newCert(t *testing.T, owner *keys.KeyPair, elems map[string][]byte) (*cert.IntegrityCertificate, globeid.OID) {
	t.Helper()
	oid := globeid.FromPublicKey(owner.Public())
	c := &cert.IntegrityCertificate{ObjectID: oid, Version: 1, Issued: t0}
	for name, data := range elems {
		c.Entries = append(c.Entries, cert.ElementEntry{
			Name:      name,
			Hash:      globeid.HashElement(data),
			NotBefore: t0,
			Expires:   t1,
		})
	}
	if err := c.Sign(owner); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	return c, oid
}

func TestSignAndVerifySignature(t *testing.T) {
	owner := keytest.RSA()
	c, oid := newCert(t, owner, map[string][]byte{"index.html": []byte("<html>")})
	if err := c.VerifySignature(oid, owner.Public()); err != nil {
		t.Fatalf("VerifySignature: %v", err)
	}
}

func TestVerifySignatureRejectsWrongKey(t *testing.T) {
	owner := keytest.RSA()
	other := keytest.Ed()
	c, oid := newCert(t, owner, map[string][]byte{"a": []byte("a")})
	err := c.VerifySignature(oid, other.Public())
	if !errors.Is(err, cert.ErrAuthenticity) {
		t.Fatalf("err = %v, want ErrAuthenticity", err)
	}
}

func TestVerifySignatureRejectsWrongObject(t *testing.T) {
	owner := keytest.RSA()
	c, _ := newCert(t, owner, map[string][]byte{"a": []byte("a")})
	otherOID := globeid.FromPublicKey(keytest.Ed().Public())
	err := c.VerifySignature(otherOID, owner.Public())
	if !errors.Is(err, cert.ErrConsistency) {
		t.Fatalf("err = %v, want ErrConsistency", err)
	}
}

func TestVerifySignatureRejectsMutatedEntry(t *testing.T) {
	owner := keytest.RSA()
	c, oid := newCert(t, owner, map[string][]byte{"a": []byte("genuine")})
	// A malicious replica rewrites the hash to match its fake content.
	c.Entries[0].Hash = globeid.HashElement([]byte("forged"))
	err := c.VerifySignature(oid, owner.Public())
	if !errors.Is(err, cert.ErrAuthenticity) {
		t.Fatalf("err = %v, want ErrAuthenticity", err)
	}
}

// TestVerifyEncoding: the check over a held encoding accepts exactly the
// certificate's own encoding with a valid signature, and refuses the
// bytes once the decoded certificate or the bytes themselves differ, the
// wrong object, and the wrong key.
func TestVerifyEncoding(t *testing.T) {
	owner := keytest.RSA()
	c, oid := newCert(t, owner, map[string][]byte{"a": []byte("genuine"), "b": []byte("b")})
	data := c.Marshal()
	calls := 0
	counting := func(k keys.PublicKey, message, sig []byte) error { calls++; return k.Verify(message, sig) }
	if err := c.VerifyEncoding(data, oid, owner.Public(), nil); err != nil {
		t.Fatalf("VerifyEncoding: %v", err)
	}
	if err := c.VerifyEncoding(data, oid, keytest.Ed().Public(), nil); !errors.Is(err, cert.ErrAuthenticity) {
		t.Errorf("wrong key: err = %v, want ErrAuthenticity", err)
	}
	if err := c.VerifyEncoding(data, globeid.FromPublicKey(keytest.Ed().Public()), owner.Public(), nil); !errors.Is(err, cert.ErrConsistency) {
		t.Errorf("wrong object: err = %v, want ErrConsistency", err)
	}
	flipped := bytes.Clone(data)
	flipped[len(flipped)-1] ^= 1
	if err := c.VerifyEncoding(flipped, oid, owner.Public(), nil); !errors.Is(err, cert.ErrAuthenticity) {
		t.Errorf("flipped signature byte: err = %v, want ErrAuthenticity", err)
	}
	// A malicious replica rewrites a decoded entry after the bytes were
	// checked: the bytes no longer encode what would be read.
	c.Entries[0].Hash = globeid.HashElement([]byte("forged"))
	calls = 0
	if err := c.VerifyEncoding(data, oid, owner.Public(), counting); !errors.Is(err, cert.ErrAuthenticity) || calls != 0 {
		t.Errorf("mutated entry: err = %v after %d signature checks, want ErrAuthenticity before any", err, calls)
	}
}

func TestVerifyElementAuthenticFreshConsistent(t *testing.T) {
	owner := keytest.RSA()
	content := []byte("hello world")
	c, _ := newCert(t, owner, map[string][]byte{"index.html": content})
	if err := c.VerifyElement("index.html", content, t0.Add(time.Minute)); err != nil {
		t.Fatalf("VerifyElement: %v", err)
	}
}

func TestVerifyElementRejectsTamperedContent(t *testing.T) {
	owner := keytest.RSA()
	c, _ := newCert(t, owner, map[string][]byte{"index.html": []byte("genuine")})
	err := c.VerifyElement("index.html", []byte("tampered"), t0.Add(time.Minute))
	if !errors.Is(err, cert.ErrAuthenticity) {
		t.Fatalf("err = %v, want ErrAuthenticity", err)
	}
}

func TestVerifyElementRejectsExpired(t *testing.T) {
	owner := keytest.RSA()
	content := []byte("content")
	c, _ := newCert(t, owner, map[string][]byte{"index.html": content})
	err := c.VerifyElement("index.html", content, t1.Add(time.Second))
	if !errors.Is(err, cert.ErrFreshness) {
		t.Fatalf("err = %v, want ErrFreshness", err)
	}
}

func TestVerifyElementRejectsNotYetValid(t *testing.T) {
	owner := keytest.RSA()
	content := []byte("content")
	c, _ := newCert(t, owner, map[string][]byte{"index.html": content})
	err := c.VerifyElement("index.html", content, t0.Add(-time.Second))
	if !errors.Is(err, cert.ErrFreshness) {
		t.Fatalf("err = %v, want ErrFreshness", err)
	}
}

func TestVerifyElementRejectsSubstitution(t *testing.T) {
	// A malicious replica answers a request for "index.html" with the
	// (genuine, fresh) bytes of "other.html". The hash check must fail
	// because the client consults the entry for the *requested* name.
	owner := keytest.RSA()
	index := []byte("the index page")
	other := []byte("a different page")
	c, _ := newCert(t, owner, map[string][]byte{"index.html": index, "other.html": other})
	err := c.VerifyElement("index.html", other, t0.Add(time.Minute))
	if !errors.Is(err, cert.ErrAuthenticity) {
		t.Fatalf("err = %v, want ErrAuthenticity (substitution)", err)
	}
}

func TestVerifyElementUnknownName(t *testing.T) {
	owner := keytest.RSA()
	c, _ := newCert(t, owner, map[string][]byte{"a": []byte("a")})
	err := c.VerifyElement("missing.html", []byte("x"), t0)
	if !errors.Is(err, cert.ErrUnknownElement) {
		t.Fatalf("err = %v, want ErrUnknownElement", err)
	}
}

func TestPerElementExpiry(t *testing.T) {
	// Different elements can carry different validity intervals — the
	// capability the paper highlights over r-oSFS's single global one.
	owner := keytest.RSA()
	oid := globeid.FromPublicKey(owner.Public())
	short := []byte("volatile")
	long := []byte("stable")
	c := &cert.IntegrityCertificate{ObjectID: oid, Version: 1, Issued: t0}
	c.Entries = []cert.ElementEntry{
		{Name: "volatile.html", Hash: globeid.HashElement(short), NotBefore: t0, Expires: t0.Add(time.Minute)},
		{Name: "stable.png", Hash: globeid.HashElement(long), NotBefore: t0, Expires: t0.Add(24 * time.Hour)},
	}
	if err := c.Sign(owner); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	at := t0.Add(10 * time.Minute)
	if err := c.VerifyElement("volatile.html", short, at); !errors.Is(err, cert.ErrFreshness) {
		t.Errorf("volatile at +10m: err = %v, want ErrFreshness", err)
	}
	if err := c.VerifyElement("stable.png", long, at); err != nil {
		t.Errorf("stable at +10m: %v", err)
	}
}

func TestSignRejectsDuplicateNames(t *testing.T) {
	owner := keytest.RSA()
	oid := globeid.FromPublicKey(owner.Public())
	c := &cert.IntegrityCertificate{ObjectID: oid, Issued: t0}
	c.Entries = []cert.ElementEntry{
		{Name: "a", Expires: t1},
		{Name: "a", Expires: t1},
	}
	if err := c.Sign(owner); err == nil {
		t.Fatal("Sign accepted duplicate element names")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	owner := keytest.RSA()
	c, oid := newCert(t, owner, map[string][]byte{
		"index.html": []byte("index"),
		"logo.png":   []byte("logo"),
	})
	data := c.Marshal()
	got, err := cert.UnmarshalIntegrityCertificate(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if err := got.VerifySignature(oid, owner.Public()); err != nil {
		t.Fatalf("round-tripped certificate does not verify: %v", err)
	}
	if !bytes.Equal(got.Marshal(), data) {
		t.Fatal("re-marshalled encoding differs")
	}
	if len(got.Entries) != 2 || got.Entries[0].Name != "index.html" {
		t.Fatalf("entries corrupted: %+v", got.Entries)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, {0}, {1, 2, 3}, bytes.Repeat([]byte{0xff}, 64)} {
		if _, err := cert.UnmarshalIntegrityCertificate(data); err == nil {
			t.Errorf("Unmarshal(%v) succeeded", data)
		}
	}
}

func TestQuickBitFlippedCertificateRejected(t *testing.T) {
	owner := keytest.Ed() // fast signatures for the property test
	c, oid := newCert(t, owner, map[string][]byte{"index.html": []byte("content")})
	data := c.Marshal()
	f := func(pos uint, bit uint) bool {
		mutated := append([]byte(nil), data...)
		mutated[pos%uint(len(mutated))] ^= 1 << (bit % 8)
		if bytes.Equal(mutated, data) {
			return true
		}
		got, err := cert.UnmarshalIntegrityCertificate(mutated)
		if err != nil {
			return true // malformed: rejected at decode
		}
		return got.VerifySignature(oid, owner.Public()) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRandomContentNeverVerifies(t *testing.T) {
	owner := keytest.Ed()
	genuine := []byte("the one true content")
	c, _ := newCert(t, owner, map[string][]byte{"e": genuine})
	f := func(fake []byte) bool {
		if bytes.Equal(fake, genuine) {
			return true
		}
		return c.VerifyElement("e", fake, t0.Add(time.Minute)) != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyEncodingDelegates(t *testing.T) {
	owner := keytest.RSA()
	c, oid := newCert(t, owner, map[string][]byte{"a": []byte("a")})
	data := c.Marshal()

	var calls int
	record := func(pk keys.PublicKey, message, sig []byte) error {
		calls++
		return pk.Verify(message, sig)
	}
	if err := c.VerifyEncoding(data, oid, owner.Public(), record); err != nil {
		t.Fatalf("VerifyEncoding: %v", err)
	}
	if calls != 1 {
		t.Fatalf("verify func ran %d times, want 1", calls)
	}

	// A verify failure is classified as ErrAuthenticity, like VerifySignature.
	fail := func(keys.PublicKey, []byte, []byte) error { return keys.ErrBadSignature }
	if err := c.VerifyEncoding(data, oid, owner.Public(), fail); !errors.Is(err, cert.ErrAuthenticity) {
		t.Fatalf("err = %v, want ErrAuthenticity", err)
	}

	// The consistency check still runs before any delegation.
	otherOID := globeid.FromPublicKey(keytest.Ed().Public())
	calls = 0
	if err := c.VerifyEncoding(data, otherOID, owner.Public(), record); !errors.Is(err, cert.ErrConsistency) {
		t.Fatalf("err = %v, want ErrConsistency", err)
	}
	if calls != 0 {
		t.Fatal("verify func ran despite consistency failure")
	}
}

func TestMaxExpiry(t *testing.T) {
	owner := keytest.RSA()
	oid := globeid.FromPublicKey(owner.Public())
	c := &cert.IntegrityCertificate{ObjectID: oid, Version: 1, Issued: t0}
	if !c.MaxExpiry().IsZero() {
		t.Fatal("empty certificate should have zero MaxExpiry")
	}
	c.Entries = []cert.ElementEntry{
		{Name: "a", Expires: t0.Add(time.Minute)},
		{Name: "b", Expires: t1},
		{Name: "c", Expires: t0.Add(30 * time.Minute)},
	}
	if got := c.MaxExpiry(); !got.Equal(t1) {
		t.Fatalf("MaxExpiry = %v, want %v", got, t1)
	}
}

// TestSupersedes pins the one ordering of signed states: a higher
// version supersedes, whenever it was issued; an equal or lower one does
// not, however late it was issued.
func TestSupersedes(t *testing.T) {
	held := &cert.IntegrityCertificate{Version: 5, Issued: t0}
	for _, tc := range []struct {
		name string
		c    *cert.IntegrityCertificate
		want bool
	}{
		{"higher version, issued earlier", &cert.IntegrityCertificate{Version: 6, Issued: t0.Add(-time.Hour)}, true},
		{"same version, issued later", &cert.IntegrityCertificate{Version: 5, Issued: t1}, false},
		{"same version, same issue time", &cert.IntegrityCertificate{Version: 5, Issued: t0}, false},
		{"same version, issued earlier", &cert.IntegrityCertificate{Version: 5, Issued: t0.Add(-time.Hour)}, false},
		{"lower version, issued later", &cert.IntegrityCertificate{Version: 4, Issued: t1}, false},
	} {
		if got := tc.c.Supersedes(held); got != tc.want {
			t.Errorf("%s: Supersedes = %v, want %v", tc.name, got, tc.want)
		}
	}
}
