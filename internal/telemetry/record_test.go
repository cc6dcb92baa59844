package telemetry_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"globedoc/internal/alloctest"
	"globedoc/internal/clock"
	"globedoc/internal/telemetry"
)

// TestExportedRecordNeverChanges: End hands exporters the span's own
// attributes instead of a copy, so they must be frozen. An Annotate after
// End changes neither the record the ring holds nor the JSONL line already
// written, and the record's attributes are full to capacity: no later
// append, by the span or by an exporter, writes into storage they share.
// Every attribute count from none to past the slice's first capacity is
// covered, so both the inline slot and the slice are exercised.
func TestExportedRecordNeverChanges(t *testing.T) {
	for n := 0; n <= 5; n++ {
		tr := telemetry.NewTracer(clock.NewFake(time.Unix(0, 0)))
		ring := telemetry.NewRingExporter(4)
		var lines bytes.Buffer
		tr.AddExporter(ring)
		tr.AddExporter(telemetry.NewJSONLExporter(&lines))

		sp := tr.StartSpan("frozen")
		for i := 0; i < n; i++ {
			sp.Annotate(fmt.Sprintf("k%d", i), "v")
		}
		sp.End()
		exported := ring.Spans()[0]
		want := append([]telemetry.Attr(nil), exported.Attrs...)
		line := lines.String()

		sp.Annotate("late", "after End")
		sp.Annotate("later", "after End")

		got := ring.Spans()[0]
		if !reflect.DeepEqual(got.Attrs, want) {
			t.Errorf("%d attributes: the ring's record changed after End: %v, want %v", n, got.Attrs, want)
		}
		for _, a := range got.Attrs[:cap(got.Attrs)] {
			if a.Key == "late" || a.Key == "later" {
				t.Errorf("%d attributes: an Annotate after End wrote %q into the record's storage", n, a.Key)
			}
		}
		if lines.String() != line {
			t.Errorf("%d attributes: the JSONL stream changed after End:\n%s\nwant\n%s", n, lines.String(), line)
		}
		if len(want) != n {
			t.Errorf("%d attributes: the record carries %d", n, len(want))
		}
	}
}

// TestRingReadersWhileSpansEnd runs Ring.Spans readers, which marshal
// every record and read its attribute storage to capacity, beside
// goroutines whose spans annotate, end and annotate again. Under -race
// this pins that a record's shared attributes are never written once
// exported.
func TestRingReadersWhileSpansEnd(t *testing.T) {
	tr := telemetry.NewTracer(nil)
	ring := telemetry.NewRingExporter(64)
	tr.AddExporter(ring)
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, rec := range ring.Spans() {
					if _, err := json.Marshal(rec); err != nil {
						t.Error(err)
						return
					}
					for _, a := range rec.Attrs[:cap(rec.Attrs)] {
						if a.Key == "late" {
							t.Errorf("record %d carries an attribute annotated after End", rec.SpanID)
							return
						}
					}
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				sp := tr.StartSpan("op")
				for a := 0; a < i%6; a++ {
					sp.Annotate("k", "v")
				}
				sp.End()
				sp.Annotate("late", "after End")
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}

// spanLifecycleAllocBudget is a span's whole cost with a ring attached:
// the span and the one slice its attributes move to past the inline slot.
// The ring keeps the record by value and shares the span's attributes.
const spanLifecycleAllocBudget = 2

func TestSpanLifecycleAllocationBudget(t *testing.T) {
	tr := telemetry.NewTracer(nil)
	tr.AddExporter(telemetry.NewRingExporter(16))
	root := tr.StartSpan("root")
	defer root.End()
	got := alloctest.AllocsPerRun(t, 100, func() {
		sp := root.StartChild("rpc.call")
		sp.Annotate("op", "obj.bind")
		sp.Annotate("attempts", "1")
		sp.Annotate("outcome", "ok")
		sp.End()
	})
	t.Logf("one span lifecycle: %.0f allocs", got)
	if got > spanLifecycleAllocBudget {
		t.Errorf("StartChild, three Annotates and End allocate %.0f objects, budget %d", got, spanLifecycleAllocBudget)
	}
}

// An RPC span is allocated with room for its attributes: one object for
// its whole lifecycle, and the record it exports is the one StartSpanFrom
// gives, past the room's four attributes too.
func TestRPCSpanIsOneObject(t *testing.T) {
	tr := telemetry.NewTracer(nil)
	ring := telemetry.NewRingExporter(16)
	tr.AddExporter(ring)
	parent := telemetry.SpanContext{TraceID: 7, SpanID: 9, Sampled: true}
	for _, start := range []func(string, telemetry.SpanContext) *telemetry.Span{tr.StartSpanFrom, tr.StartRPCSpan} {
		sp := start("rpc.call", parent)
		for _, k := range []string{"a", "b", "c", "d", "e", "f"} {
			sp.Annotate(k, k)
		}
		sp.End()
	}
	spans := ring.Spans()
	if len(spans) != 2 {
		t.Fatalf("%d spans exported, want 2", len(spans))
	}
	from, rpc := spans[0], spans[1]
	if rpc.Name != from.Name || rpc.TraceID != from.TraceID || rpc.ParentID != from.ParentID || !reflect.DeepEqual(rpc.Attrs, from.Attrs) {
		t.Errorf("StartRPCSpan exported %+v, StartSpanFrom %+v", rpc, from)
	}

	got := alloctest.AllocsPerRun(t, 100, func() {
		sp := tr.StartRPCSpan("rpc.serve", parent)
		sp.Annotate("op", "obj.bind")
		sp.Annotate("remote", "true")
		sp.Annotate("outcome", "ok")
		sp.End()
	})
	if got > 1 {
		t.Errorf("StartRPCSpan, three Annotates and End allocate %.0f objects, want 1", got)
	}
}

func TestContextCarriesSpan(t *testing.T) {
	ctx := context.Background()
	if got := telemetry.ContextWith(ctx, nil); got != ctx {
		t.Error("ContextWith a nil span did not return ctx unchanged")
	}
	if sc := telemetry.SpanContextFrom(ctx); sc.Valid() {
		t.Errorf("a bare context carries %+v", sc)
	}
	tr := telemetry.NewTracer(nil)
	tr.SetSampleRate(0)
	sp := tr.StartSpan("root")
	defer sp.End()
	if got, want := telemetry.SpanContextFrom(telemetry.ContextWith(ctx, sp)), sp.Context(); got != want {
		t.Errorf("SpanContextFrom = %+v, want the carried span's %+v", got, want)
	}
}
