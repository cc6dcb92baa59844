package cert_test

import (
	"fmt"
	"testing"

	"globedoc/internal/alloctest"
	"globedoc/internal/cert"
	"globedoc/internal/globeid"
	"globedoc/internal/keys/keytest"
)

// TestCheckAuthenticityAllocationBudget pins the authenticity check of
// Figure 3 step 13 at 0 heap objects for an element that matches its
// entry: hashing the payload allocates nothing, however large it is.
func TestCheckAuthenticityAllocationBudget(t *testing.T) {
	for _, n := range []int{1 << 10, 1 << 20} {
		content := make([]byte, n)
		for i := range content {
			content[i] = byte(i * 31)
		}
		entry := cert.ElementEntry{Name: "element.bin", Hash: globeid.HashElement(content), Expires: t1}
		got := alloctest.AllocsPerRun(t, 20, func() {
			if err := entry.CheckAuthenticity(content); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("CheckAuthenticity(%d bytes): %.1f allocations per call, budget 0", n, got)
		}
	}
}

// TestUnmarshalIntegrityCertificateAllocationBudget pins the decode of a
// 64-entry certificate at 4 heap objects — the certificate, its entry
// table, one string every name is a substring of, and the signature —
// where a string per name made it 67.
func TestUnmarshalIntegrityCertificateAllocationBudget(t *testing.T) {
	owner := keytest.Ed()
	c := &cert.IntegrityCertificate{ObjectID: globeid.FromPublicKey(owner.Public()), Version: 1, Issued: t0}
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("part-%02d.html", i)
		c.Entries = append(c.Entries, cert.ElementEntry{Name: name, Hash: globeid.HashElement([]byte(name)), NotBefore: t0, Expires: t1})
	}
	if err := c.Sign(owner); err != nil {
		t.Fatal(err)
	}
	data := c.Marshal()
	got := alloctest.AllocsPerRun(t, 50, func() {
		if _, err := cert.UnmarshalIntegrityCertificate(data); err != nil {
			t.Fatal(err)
		}
	})
	if got > 4 {
		t.Errorf("UnmarshalIntegrityCertificate(64 entries): %.1f allocations per call, budget 4", got)
	}
}
