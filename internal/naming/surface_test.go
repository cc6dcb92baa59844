package naming

import (
	"slices"
	"testing"

	"globedoc/internal/keys"
)

// TestServedOperations pins the naming service's wire surface: every
// operation it answers has a sender in this tree, named beside it.
// Unbinding a name is in-process only (Authority.Unregister).
func TestServedOperations(t *testing.T) {
	want := []string{
		OpResolve,  // Resolver.Resolve, every remote binder's naming step
		OpRegister, // Register: globedoc-admin publish and publish-site
	}
	auth, err := NewAuthority(keys.Ed25519)
	if err != nil {
		t.Fatal(err)
	}
	got := NewService(auth).srv.Ops()
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("served operations = %q, want %q", got, want)
	}
}
