package globeid_test

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"globedoc/internal/alloctest"
	"globedoc/internal/globeid"
	"globedoc/internal/keys/keytest"
)

func TestSelfCertifyingOID(t *testing.T) {
	kp := keytest.RSA()
	oid := globeid.FromPublicKey(kp.Public())
	if oid.IsZero() {
		t.Fatal("derived OID is zero")
	}
	if err := oid.Verify(kp.Public()); err != nil {
		t.Fatalf("Verify rejected the key the OID was derived from: %v", err)
	}
}

func TestVerifyRejectsForeignKey(t *testing.T) {
	a := keytest.RSA()
	b := keytest.Ed()
	oid := globeid.FromPublicKey(a.Public())
	err := oid.Verify(b.Public())
	if !errors.Is(err, globeid.ErrKeyMismatch) {
		t.Fatalf("Verify = %v, want ErrKeyMismatch", err)
	}
}

func TestOIDDeterministic(t *testing.T) {
	kp := keytest.RSA()
	if globeid.FromPublicKey(kp.Public()) != globeid.FromPublicKey(kp.Public()) {
		t.Fatal("FromPublicKey not deterministic")
	}
}

func TestDistinctKeysDistinctOIDs(t *testing.T) {
	a := globeid.FromPublicKey(keytest.RSA().Public())
	b := globeid.FromPublicKey(keytest.Ed().Public())
	if a == b {
		t.Fatal("two distinct keys produced the same OID")
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	oid := globeid.FromPublicKey(keytest.RSA().Public())
	s := oid.String()
	if len(s) != 40 {
		t.Fatalf("String length = %d, want 40", len(s))
	}
	if s != strings.ToLower(s) {
		t.Fatalf("String not lowercase: %q", s)
	}
	parsed, err := globeid.Parse(s)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if parsed != oid {
		t.Fatal("Parse(String()) != original OID")
	}
}

func TestParseRejectsBadInput(t *testing.T) {
	bad := []string{"", "abc", strings.Repeat("g", 40), strings.Repeat("a", 39), strings.Repeat("a", 41)}
	for _, s := range bad {
		if _, err := globeid.Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded", s)
		}
	}
}

func TestFromBytes(t *testing.T) {
	oid := globeid.FromPublicKey(keytest.RSA().Public())
	got, err := globeid.FromBytes(oid[:])
	if err != nil {
		t.Fatalf("FromBytes: %v", err)
	}
	if got != oid {
		t.Fatal("FromBytes round trip failed")
	}
	if _, err := globeid.FromBytes(oid[:19]); err == nil {
		t.Fatal("FromBytes accepted short slice")
	}
}

func TestShort(t *testing.T) {
	oid := globeid.FromPublicKey(keytest.RSA().Public())
	if got := oid.Short(); len(got) != 8 || !strings.HasPrefix(oid.String(), got) {
		t.Errorf("Short = %q", got)
	}
}

// A cold fetch names its object in a span and an error or two: Short
// costs the string it returns and nothing more.
func TestShortAllocatesOnce(t *testing.T) {
	oid := globeid.OID(globeid.HashElement([]byte("short")))
	if got := alloctest.AllocsPerRun(t, 100, func() { _ = oid.Short() }); got > 1 {
		t.Errorf("Short allocates %.0f objects, want 1: the string", got)
	}
}

func TestHashElementMatchesContent(t *testing.T) {
	a := globeid.HashElement([]byte("content-a"))
	b := globeid.HashElement([]byte("content-b"))
	if a == b {
		t.Fatal("distinct contents hashed identically")
	}
	if a != globeid.HashElement([]byte("content-a")) {
		t.Fatal("HashElement not deterministic")
	}
}

func TestQuickHashAvalanche(t *testing.T) {
	f := func(data []byte, flip uint) bool {
		if len(data) == 0 {
			return true
		}
		orig := globeid.HashElement(data)
		mutated := append([]byte(nil), data...)
		mutated[flip%uint(len(mutated))] ^= 1 << (flip % 8)
		return globeid.HashElement(mutated) != orig
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickParseStringRoundTrip(t *testing.T) {
	f := func(raw [20]byte) bool {
		oid, err := globeid.FromBytes(raw[:])
		if err != nil {
			return false
		}
		back, err := globeid.Parse(oid.String())
		return err == nil && back == oid
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
