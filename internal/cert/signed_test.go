package cert

import (
	"encoding/hex"
	"testing"
	"time"

	"globedoc/internal/alloctest"
	"globedoc/internal/globeid"
)

// TestNameCertSignedEncodingIsPinned pins the bytes a name certificate's
// signature covers, and its marshalled form, for fixed values: a change
// to the encoder would void every certificate already issued. Encoded
// into room of its size, it allocates nothing.
func TestNameCertSignedEncodingIsPinned(t *testing.T) {
	var oid globeid.OID
	for i := range oid {
		oid[i] = byte(i + 1)
	}
	issued := time.Date(2005, 4, 4, 12, 0, 0, 0, time.UTC)
	nc := NameCertificate{ObjectID: oid, Subject: "Vrije Universiteit Amsterdam", Issuer: "ExampleRoot CA", NotBefore: issued, Expires: issued.Add(365 * 24 * time.Hour), Sig: []byte{1, 2, 3}}
	const signed = "0102030405060708090a0b0c0d0e0f10111213141c5672696a6520556e6976657273697465697420416d7374657264616d0e4578616d706c65526f6f742043410f70ce5b6b6a80000fe0d82e990d8000"
	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"signed", nc.appendSigned(nil), signed},
		{"marshalled", nc.Marshal(), "50" + signed + "03010203"},
		{"zero signed", (&NameCertificate{}).appendSigned(nil), "0000000000000000000000000000000000000000000080000000000000008000000000000000"},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s:\n%s, want\n%s", c.name, got, c.want)
		}
	}
	if got := alloctest.AllocsPerRun(t, 100, func() {
		var room [nameCertRoom]byte
		_ = nc.appendSigned(room[:0])
	}); got != 0 {
		t.Errorf("encoding a certificate into its room allocates %.0f objects, want 0", got)
	}
}
