package naming

import (
	"bytes"
	"encoding/hex"
	"testing"
	"time"

	"globedoc/internal/alloctest"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
)

// TestSignedEncodingsArePinned pins the bytes a record's and a
// delegation's signatures cover, for fixed values: a change to either
// encoder would void every signature already issued. Encoded into room
// of its size, the record's allocates nothing.
func TestSignedEncodingsArePinned(t *testing.T) {
	var oid globeid.OID
	for i := range oid {
		oid[i] = byte(i + 1)
	}
	issued := time.Date(2005, 4, 4, 12, 0, 0, 0, time.UTC)
	rec := Record{Name: "home.vu.nl", OID: oid, Issued: issued, Expires: issued.Add(time.Hour)}
	child, err := keys.GenerateFrom(keys.Ed25519, bytes.NewReader(bytes.Repeat([]byte{7}, 32)))
	if err != nil {
		t.Fatal(err)
	}
	d := Delegation{Parent: "nl", Child: "vu.nl", ChildKey: child.Public(), Issued: issued, Expires: issued.Add(24 * time.Hour)}
	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"record", rec.appendSigned(nil), "14676c6f6265646f632d6e616d652d7265636f72640a686f6d652e76752e6e6c0102030405060708090a0b0c0d0e0f10111213140f70ce5b6b6a80000f70d1a19c232000"},
		{"delegation", d.appendSigned(nil), "18676c6f6265646f632d6e616d652d64656c65676174696f6e026e6c0576752e6e6c220220ea4a6c63e29c520abef5507b132ec5f9954776aebebe7b92421eea691446d22c0f70ce5b6b6a80000f711ceffcb98000"},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s signs\n%s, want\n%s", c.name, got, c.want)
		}
	}
	if got := alloctest.AllocsPerRun(t, 100, func() {
		var room [recordRoom]byte
		_ = rec.appendSigned(room[:0])
	}); got != 0 {
		t.Errorf("encoding a record into its room allocates %.0f objects, want 0", got)
	}
}
