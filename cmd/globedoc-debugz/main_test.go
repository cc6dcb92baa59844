package main

// Round-trip test for the trace renderer: spans exported as JSON lines
// by two tracers — a "client" and a "server" process joined by a
// propagated span context — must parse back and render as one indented
// tree with durations and a process-boundary marker.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"globedoc/internal/telemetry"
)

func TestTraceRenderRoundTrip(t *testing.T) {
	var buf bytes.Buffer

	// The "client process": a fetch root with an RPC call under it.
	client := telemetry.NewTracer(nil)
	client.AddExporter(telemetry.NewJSONLExporter(&buf))
	root := client.StartSpan("secure.fetch")
	root.Annotate("element", "index.html")
	call := client.StartSpanFrom("rpc.call", root.Context())
	call.Annotate("op", "obj.getelement")

	// The "server process": a separate tracer adopting the propagated
	// context, exactly as transport.Server does with a traced frame.
	server := telemetry.NewTracer(nil)
	server.AddExporter(telemetry.NewJSONLExporter(&buf))
	serve := server.StartSpanFrom("rpc.serve", call.Context())
	serve.Annotate("op", "obj.getelement")
	serve.Annotate("remote", "true")
	serve.End()

	call.End()
	root.End()

	records, err := telemetry.ReadSpans(&buf)
	if err != nil {
		t.Fatalf("ReadSpans: %v", err)
	}
	if len(records) != 3 {
		t.Fatalf("round-tripped %d spans, want 3", len(records))
	}
	for _, r := range records {
		if r.TraceID != root.TraceID() {
			t.Fatalf("span %s carries trace %d, want %d", r.Name, r.TraceID, root.TraceID())
		}
	}

	var out strings.Builder
	if err := renderTrace(&out, records, root.TraceID()); err != nil {
		t.Fatalf("renderTrace: %v", err)
	}
	rendered := out.String()
	lines := strings.Split(strings.TrimRight(rendered, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines, want header + 3 spans:\n%s", len(lines), rendered)
	}
	if !strings.Contains(lines[0], "3 spans") {
		t.Errorf("header %q does not count 3 spans", lines[0])
	}
	if !strings.HasPrefix(lines[1], "secure.fetch  ") {
		t.Errorf("root line %q not at depth 0 with a duration", lines[1])
	}
	if !strings.HasPrefix(lines[2], "  rpc.call  ") {
		t.Errorf("call line %q not indented under the root", lines[2])
	}
	if !strings.HasPrefix(lines[3], "    ⇄ rpc.serve  ") {
		t.Errorf("serve line %q not indented under the call with a process-boundary marker", lines[3])
	}
	if !strings.Contains(lines[3], "op=obj.getelement") {
		t.Errorf("serve line %q lost its op annotation", lines[3])
	}

	// A second round trip — re-serializing the parsed records — yields
	// the same stream, and the listing mode counts the same single trace.
	records2, err := telemetry.ReadSpans(strings.NewReader(bufFrom(records)))
	if err != nil {
		t.Fatalf("ReadSpans on re-serialized stream: %v", err)
	}
	counts := telemetry.TraceIDs(records2)
	if len(counts) != 1 || counts[0].Spans != 3 {
		t.Errorf("TraceIDs = %+v, want one trace of 3 spans", counts)
	}
}

// bufFrom re-serializes records as JSON lines, proving the exported
// stream is regenerable from parsed records (a true round trip).
func bufFrom(records []telemetry.SpanRecord) string {
	var buf bytes.Buffer
	exp := telemetry.NewJSONLExporter(&buf)
	for _, r := range records {
		exp.ExportSpan(r)
	}
	return buf.String()
}

func TestRenderTraceUnknownID(t *testing.T) {
	if err := renderTrace(&strings.Builder{}, nil, 42); err == nil {
		t.Fatal("renderTrace on an empty record set succeeded, want error")
	}
}

// debugzServer serves a fixed DebugSnapshot on /debugz for the merged
// health/selection views.
func debugzServer(t *testing.T, snap telemetry.DebugSnapshot) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debugz" {
			http.NotFound(w, r)
			return
		}
		if err := json.NewEncoder(w).Encode(snap); err != nil {
			t.Errorf("encoding snapshot: %v", err)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestMergedHealthAndSelections(t *testing.T) {
	// Two processes: the first has sparse samples for the shared address
	// and a ranking for oid-a; the second has richer samples and a
	// ranking for oid-b. The merged health table must prefer the richer
	// view per address, and the merged selections must carry both OIDs.
	a := telemetry.DebugSnapshot{
		Schema: telemetry.DebugSchema,
		Health: telemetry.HealthSnapshot{
			Schema: telemetry.HealthSchema,
			Addrs: []telemetry.AddrHealth{
				{Addr: "paris:objsvc", RTTMillis: 9, HasRTT: true, Samples: 2},
			},
		},
		Selection: telemetry.SelectionSnapshot{
			Schema: telemetry.SelectionSchema,
			Rankings: []telemetry.SelectionRanking{
				{OID: "oid-a", Selector: "health-ranked", Ranked: []string{"paris:objsvc", "ithaca:objsvc"}},
			},
		},
	}
	b := telemetry.DebugSnapshot{
		Schema: telemetry.DebugSchema,
		Health: telemetry.HealthSnapshot{
			Schema: telemetry.HealthSchema,
			Addrs: []telemetry.AddrHealth{
				{Addr: "paris:objsvc", RTTMillis: 42, HasRTT: true, Samples: 10},
				{Addr: "ithaca:objsvc", ErrorRate: 1, ConsecutiveFailures: 3, Samples: 4},
			},
		},
		Selection: telemetry.SelectionSnapshot{
			Schema: telemetry.SelectionSchema,
			Rankings: []telemetry.SelectionRanking{
				{OID: "oid-b", Selector: "ordered", Ranked: []string{"ithaca:objsvc"}},
			},
		},
	}
	srvA, srvB := debugzServer(t, a), debugzServer(t, b)
	addrs := strings.TrimPrefix(srvA.URL, "http://") + "," + strings.TrimPrefix(srvB.URL, "http://")

	var health bytes.Buffer
	if err := runHealth(&health, addrs, time.Second); err != nil {
		t.Fatalf("runHealth: %v", err)
	}
	out := health.String()
	if !strings.Contains(out, "42.00ms") {
		t.Errorf("merged health kept the sparse paris view:\n%s", out)
	}
	if strings.Contains(out, "9.00ms") {
		t.Errorf("merged health shows the outvoted paris sample:\n%s", out)
	}
	if !strings.Contains(out, "ithaca:objsvc") {
		t.Errorf("merged health missing ithaca:\n%s", out)
	}

	var sel bytes.Buffer
	if err := runSelections(&sel, addrs, time.Second); err != nil {
		t.Fatalf("runSelections: %v", err)
	}
	out = sel.String()
	for _, want := range []string{"oid-a", "oid-b", "health-ranked", "ordered", "paris:objsvc > ithaca:objsvc"} {
		if !strings.Contains(out, want) {
			t.Errorf("merged selections missing %q:\n%s", want, out)
		}
	}
}
