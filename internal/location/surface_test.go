package location

import (
	"slices"
	"testing"
)

// TestServedOperations pins the location service's wire surface: every
// operation it answers has a sender in this tree, named beside it.
// Withdrawing an address is in-process only (Tree.Delete, which
// Replicator.WithdrawCold calls).
func TestServedOperations(t *testing.T) {
	want := []string{
		OpInsert,  // globedoc-admin publish and publish-site
		OpLookup2, // Client.Lookup, every remote binder's location step
	}
	tree, err := NewTree(PaperDomains())
	if err != nil {
		t.Fatal(err)
	}
	got := NewService(tree).srv.Ops()
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("served operations = %q, want %q", got, want)
	}
}
