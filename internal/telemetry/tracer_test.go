package telemetry_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"globedoc/internal/clock"
	"globedoc/internal/telemetry"
)

func TestSpanParentChildStructure(t *testing.T) {
	fake := clock.NewFake(time.Unix(1000, 0))
	tr := telemetry.NewTracer(fake)
	ring := telemetry.NewRingExporter(16)
	tr.AddExporter(ring)

	root := tr.StartSpan("fetch.secure")
	fake.Advance(10 * time.Millisecond)
	child := root.Leaf("key.fetch")
	fake.Advance(5 * time.Millisecond)
	if d := child.End(); d != 5*time.Millisecond {
		t.Errorf("key.fetch End = %v, want 5ms", d)
	}
	grand := tr.StartSpanFrom("key.verify", root.Context())
	fake.Advance(2 * time.Millisecond)
	grand.End()
	root.End()

	spans := ring.Spans()
	if len(spans) != 3 {
		t.Fatalf("exported %d spans, want 3", len(spans))
	}
	// Children export before the root (they end first).
	kf, kv, rt := spans[0], spans[1], spans[2]
	if kf.Name != "key.fetch" || kv.Name != "key.verify" || rt.Name != "fetch.secure" {
		t.Fatalf("span order = %s, %s, %s", kf.Name, kv.Name, rt.Name)
	}
	if rt.ParentID != 0 {
		t.Errorf("root has parent %d", rt.ParentID)
	}
	for _, c := range []telemetry.SpanRecord{kf, kv} {
		if c.ParentID != rt.SpanID {
			t.Errorf("%s parent = %d, want root %d", c.Name, c.ParentID, rt.SpanID)
		}
		if c.TraceID != rt.TraceID {
			t.Errorf("%s trace = %d, want %d", c.Name, c.TraceID, rt.TraceID)
		}
	}
	if kf.Duration() != 5*time.Millisecond {
		t.Errorf("key.fetch duration = %v, want 5ms", kf.Duration())
	}
	if rt.Duration() != 17*time.Millisecond {
		t.Errorf("root duration = %v, want 17ms", rt.Duration())
	}
}

func TestSpanEndIsIdempotent(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	tr := telemetry.NewTracer(fake)
	ring := telemetry.NewRingExporter(8)
	tr.AddExporter(ring)

	sp := tr.StartSpan("once")
	fake.Advance(time.Second)
	sp.End()
	fake.Advance(time.Second)
	sp.End()
	if got := ring.Total(); got != 1 {
		t.Fatalf("span exported %d times, want 1", got)
	}
	if d := ring.Spans()[0].Duration(); d != time.Second {
		t.Errorf("exported duration = %v, want 1s", d)
	}

	leaf := tr.LeafFrom("leaf", sp.Context())
	fake.Advance(time.Second)
	first := leaf.End()
	fake.Advance(time.Second)
	if again := leaf.End(); again != first || first != time.Second {
		t.Errorf("leaf End = %v, then %v; want 1s both times", first, again)
	}
	if got := ring.Total(); got != 2 {
		t.Fatalf("span and leaf exported %d times, want 2", got)
	}
}

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *telemetry.Tracer
	sp := tr.StartSpan("nothing")
	if sp != nil {
		t.Fatal("nil tracer returned a non-nil span")
	}
	// All of these must be safe on the nil span.
	leaf := sp.Leaf("child")
	leaf.Annotate("error", "e")
	if d := leaf.End(); d != 0 {
		t.Errorf("a nil span's leaf reports %v", d)
	}
	leaf = tr.LeafFrom("child", telemetry.SpanContext{TraceID: 1, SpanID: 2, Sampled: true})
	leaf.Annotate("error", "e")
	if d := leaf.End(); d != 0 {
		t.Errorf("a nil tracer's leaf reports %v", d)
	}
	sp.Annotate("k", "v")
	sp.End()
	if sp.TraceID() != 0 {
		t.Error("nil span has a trace ID")
	}
}

func TestRingExporterEviction(t *testing.T) {
	ring := telemetry.NewRingExporter(3)
	for i := 0; i < 5; i++ {
		ring.ExportSpan(telemetry.SpanRecord{SpanID: uint64(i + 1)})
	}
	spans := ring.Spans()
	if len(spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(spans))
	}
	for i, want := range []uint64{3, 4, 5} {
		if spans[i].SpanID != want {
			t.Errorf("spans[%d].SpanID = %d, want %d (oldest first)", i, spans[i].SpanID, want)
		}
	}
	if ring.Total() != 5 {
		t.Errorf("Total = %d, want 5", ring.Total())
	}
	ring.Reset()
	if len(ring.Spans()) != 0 {
		t.Error("Reset left spans behind")
	}
}

func TestJSONLExporterOneObjectPerLine(t *testing.T) {
	var buf bytes.Buffer
	exp := telemetry.NewJSONLExporter(&buf)
	fake := clock.NewFake(time.Unix(42, 0))
	tr := telemetry.NewTracer(fake)
	tr.AddExporter(exp)

	a := tr.StartSpan("alpha")
	a.Annotate("outcome", "ok")
	fake.Advance(time.Millisecond)
	a.End()
	tr.StartSpan("beta").End()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var rec telemetry.SpanRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 1 is not valid JSON: %v", err)
	}
	if rec.Name != "alpha" || rec.Duration() != time.Millisecond {
		t.Errorf("round-tripped %q/%v, want alpha/1ms", rec.Name, rec.Duration())
	}
	if len(rec.Attrs) != 1 || rec.Attrs[0].Key != "outcome" || rec.Attrs[0].Value != "ok" {
		t.Errorf("attrs did not round-trip: %+v", rec.Attrs)
	}
}

func TestConcurrentSpansUnderRace(t *testing.T) {
	tr := telemetry.NewTracer(nil)
	ring := telemetry.NewRingExporter(1024)
	tr.AddExporter(ring)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := tr.StartSpan("op")
				child := sp.Leaf("step")
				child.Annotate("i", "x")
				child.End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := ring.Total(); got != 8*50*2 {
		t.Fatalf("exported %d spans, want %d", got, 8*50*2)
	}
	// Span IDs must be unique across goroutines.
	seen := make(map[uint64]bool)
	for _, rec := range ring.Spans() {
		if seen[rec.SpanID] {
			t.Fatalf("duplicate span ID %d", rec.SpanID)
		}
		seen[rec.SpanID] = true
	}
}
