package telemetry_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"globedoc/internal/telemetry"
)

func TestDebugHandlerServesSnapshot(t *testing.T) {
	tel := telemetry.New(nil)
	tel.RPCCalls.With("obj.getelement", "ok").Inc()
	tel.FetchLatency.Observe(0.25)
	sp := tel.Tracer.StartSpan("fetch.secure")
	leaf := sp.Leaf("key.fetch")
	leaf.End()
	sp.End()

	srv := httptest.NewServer(tel.DebugHandler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debugz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debugz status = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var snap telemetry.DebugSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding snapshot: %v", err)
	}
	if snap.Schema != telemetry.DebugSchema {
		t.Errorf("schema = %q, want %q", snap.Schema, telemetry.DebugSchema)
	}
	if snap.TakenAt.IsZero() {
		t.Error("taken_at is zero")
	}
	if got := snap.Metrics.LabeledCounters[telemetry.MetricRPCCalls][`{op="obj.getelement",outcome="ok"}`]; got != 1 {
		t.Errorf("rpc_calls_total = %d, want 1 (%v)", got, snap.Metrics.LabeledCounters)
	}
	if got := snap.Metrics.Histograms[telemetry.MetricFetchLatency].Count; got != 1 {
		t.Errorf("fetch_latency count = %d, want 1", got)
	}
	if len(snap.Spans) != 2 {
		t.Errorf("snapshot has %d spans, want 2", len(snap.Spans))
	}

	// The sub-endpoints serve their slices of the same state.
	for _, path := range []string{"/debugz/metrics", "/debugz/spans", "/debug/pprof/"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %s", path, resp.Status)
		}
	}
}

func TestServeDebugEmptyAddrIsNoOp(t *testing.T) {
	tel := telemetry.New(nil)
	addr, stop, err := tel.ServeDebug("")
	if err != nil || addr != "" {
		t.Fatalf("ServeDebug(\"\") = %q, %v", addr, err)
	}
	stop() // must be callable
}

func TestServeDebugBindsAndStops(t *testing.T) {
	tel := telemetry.New(nil)
	addr, stop, err := tel.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/debugz")
	if err != nil {
		t.Fatalf("fetching /debugz from %s: %v", addr, err)
	}
	resp.Body.Close()
	stop()
	if _, err := http.Get("http://" + addr + "/debugz"); err == nil {
		t.Error("endpoint still serving after stop")
	}
}

func TestOrFallsBackToDefault(t *testing.T) {
	if telemetry.Or(nil) != telemetry.Default() {
		t.Error("Or(nil) != Default()")
	}
	own := telemetry.New(nil)
	if telemetry.Or(own) != own {
		t.Error("Or(t) != t")
	}
}
