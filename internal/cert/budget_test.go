package cert_test

import (
	"testing"

	"globedoc/internal/alloctest"
	"globedoc/internal/cert"
	"globedoc/internal/globeid"
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
