package core

import (
	"reflect"
	"slices"
	"testing"
)

// TestOptionsSurface pins the secure client's configuration surface.
// Each field has a setter outside the tests, named beside it; a knob only
// tests set is a constant instead. Settings with another home stay there:
// the replica connections' retry policy (which also bounds certificate
// refresh) and pool bound on the binder's transport.Config, the trace
// sample rate on the telemetry's tracer.
func TestOptionsSurface(t *testing.T) {
	want := []string{
		"Trust",             // -ca-keystore; deploy's world CA; perfbench
		"RequireIdentity",   // -require-identity
		"CacheBindings",     // -cache-bindings; the cache, concurrent and placement benches; perfbench
		"Telemetry",         // the proxy's registry; deploy's world default; perfbench
		"Now",               // the cache, multiplex, placement and traceoverhead benches' fake clocks; perfbench
		"FetchWorkers",      // bench-multiplex's serial arm
		"DisableBatchFetch", // bench-multiplex's serial arm
		"VCache",            // -disable-vcache, -vcache-max-bytes, -vcache-max-signatures; bench-cache; perfbench
		"MaxBindings",       // -max-bindings
		"Selector",          // deploy's zone-aware default; bench-placement's ordered arm
	}
	typ := reflect.TypeOf(Options{})
	got := make([]string, typ.NumField())
	for i := range got {
		got[i] = typ.Field(i).Name
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("Options fields = %q, want %q", got, want)
	}
}
