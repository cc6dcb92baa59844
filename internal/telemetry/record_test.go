package telemetry_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"globedoc/internal/alloctest"
	"globedoc/internal/clock"
	"globedoc/internal/telemetry"
)

// op is a span or a leaf behind the two calls the tests below make.
type op struct {
	annotate func(key, value string)
	end      func()
}

func begin(tr *telemetry.Tracer, leaf bool, name string) op {
	if leaf {
		l := tr.LeafFrom(name, telemetry.SpanContext{})
		return op{annotate: l.Annotate, end: func() { l.End() }}
	}
	sp := tr.StartSpan(name)
	return op{annotate: sp.Annotate, end: sp.End}
}

// TestExportedRecordNeverChanges: a record, once exported, is the
// exporter's own. An Annotate after End changes neither the record the
// ring holds nor the JSONL line already written, and the record's
// attributes are full to capacity, so no later append writes into storage
// they share. When the ring wraps and reuses the record's slot, the
// record read before stays as it was. Spans and leaves are both covered,
// at every attribute count from none to past their room.
func TestExportedRecordNeverChanges(t *testing.T) {
	for _, leaf := range []bool{false, true} {
		for n := 0; n <= 5; n++ {
			tr := telemetry.NewTracer(clock.NewFake(time.Unix(0, 0)))
			ring := telemetry.NewRingExporter(4)
			var lines bytes.Buffer
			tr.AddExporter(ring)
			tr.AddExporter(telemetry.NewJSONLExporter(&lines))

			sp := begin(tr, leaf, "frozen")
			for i := 0; i < n; i++ {
				sp.annotate(fmt.Sprintf("k%d", i), "v")
			}
			sp.end()
			exported := ring.Spans()[0]
			want := append([]telemetry.Attr(nil), exported.Attrs...)
			line := lines.String()

			sp.annotate("late", "after End")
			sp.annotate("later", "after End")

			got := ring.Spans()[0]
			if !reflect.DeepEqual(got.Attrs, want) {
				t.Errorf("leaf %v, %d attributes: the ring's record changed after End: %v, want %v", leaf, n, got.Attrs, want)
			}
			for _, a := range got.Attrs[:cap(got.Attrs)] {
				if a.Key == "late" || a.Key == "later" {
					t.Errorf("leaf %v, %d attributes: an Annotate after End wrote %q into the record's storage", leaf, n, a.Key)
				}
			}
			if lines.String() != line {
				t.Errorf("leaf %v, %d attributes: the JSONL stream changed after End:\n%s\nwant\n%s", leaf, n, lines.String(), line)
			}
			if len(want) != n {
				t.Errorf("leaf %v, %d attributes: the record carries %d", leaf, n, len(want))
			}

			for i := 0; i < 4; i++ { // every slot reused, the record's among them
				next := begin(tr, leaf, "wrap")
				for j := 0; j < n; j++ {
					next.annotate(fmt.Sprintf("k%d", j), "overwritten")
				}
				next.end()
			}
			if ring.Spans()[0].Name != "wrap" {
				t.Fatalf("the ring did not wrap")
			}
			if !reflect.DeepEqual(exported.Attrs, want) {
				t.Errorf("leaf %v, %d attributes: a record read before the ring wrapped changed: %v, want %v", leaf, n, exported.Attrs, want)
			}
		}
	}
}

// TestRingReadersWhileSpansEnd runs Ring.Spans readers, which marshal
// every record and read its attribute storage to capacity, beside
// goroutines whose spans and leaves annotate, end and annotate again into
// a ring they wrap many times over. Each reader marshals its previous
// read again and wants the same bytes. Under -race this pins that a
// record is never written once read: not by its span, and not by the
// next export into its slot.
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
			var prev []telemetry.SpanRecord
			prevJSON := []byte("null")
			for {
				select {
				case <-stop:
					return
				default:
				}
				if again, err := json.Marshal(prev); err != nil || !bytes.Equal(again, prevJSON) {
					t.Errorf("a read record changed after the read: %s, was %s (%v)", again, prevJSON, err)
					return
				}
				spans := ring.Spans()
				for _, rec := range spans {
					for _, a := range rec.Attrs[:cap(rec.Attrs)] {
						if a.Key == "late" {
							t.Errorf("record %d carries an attribute annotated after End", rec.SpanID)
							return
						}
					}
				}
				data, err := json.Marshal(spans)
				if err != nil {
					t.Error(err)
					return
				}
				prev, prevJSON = spans, data
			}
		}()
	}
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				sp := begin(tr, (g+i)%2 == 0, "op")
				for a := 0; a < i%6; a++ {
					sp.annotate("k", strconv.Itoa(i))
				}
				sp.end()
				sp.annotate("late", "after End")
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}

// spanLifecycleAllocBudget is a heap span's whole cost with a ring
// attached: the span, whose room holds its attributes. The ring copies
// them into the room it made with itself.
const spanLifecycleAllocBudget = 1

func TestSpanLifecycleAllocationBudget(t *testing.T) {
	tr := telemetry.NewTracer(nil)
	tr.AddExporter(telemetry.NewRingExporter(16))
	root := tr.StartSpan("root")
	defer root.End()
	got := alloctest.AllocsPerRun(t, 100, func() {
		sp := tr.StartSpanFrom("rpc.call", root.Context())
		sp.Annotate("op", "obj.bind")
		sp.Annotate("attempts", "1")
		sp.Annotate("outcome", "ok")
		sp.End()
	})
	t.Logf("one span lifecycle: %.0f allocs", got)
	if got > spanLifecycleAllocBudget {
		t.Errorf("StartSpanFrom, three Annotates and End allocate %.0f objects, budget %d", got, spanLifecycleAllocBudget)
	}
}

// An rpc.call or a plain handler's rpc.serve is a leaf: it carries two
// to four attributes, all in its room, and its Context, which parents
// the far side's span over the wire, is its own identity, so its whole
// lifecycle allocates nothing. Past the room its attributes move to a
// slice, and the record still carries every one, in order.
func TestRPCSpanIsALeaf(t *testing.T) {
	tr := telemetry.NewTracer(nil)
	ring := telemetry.NewRingExporter(16)
	tr.AddExporter(ring)
	parent := telemetry.SpanContext{TraceID: 7, SpanID: 9, Sampled: true}
	sp := tr.LeafFrom("rpc.call", parent)
	wire := sp.Context()
	var want []telemetry.Attr
	for _, k := range []string{"a", "b", "c", "d", "e", "f"} {
		sp.Annotate(k, k)
		want = append(want, telemetry.Attr{Key: k, Value: k})
	}
	sp.End()
	spans := ring.Spans()
	if len(spans) != 1 {
		t.Fatalf("%d spans exported, want 1", len(spans))
	}
	if rec := spans[0]; rec.Name != "rpc.call" || rec.TraceID != 7 || rec.ParentID != 9 || !reflect.DeepEqual(rec.Attrs, want) {
		t.Errorf("exported %+v, want rpc.call under 7/9 with attributes %v", rec, want)
	}
	if rec := spans[0]; wire != (telemetry.SpanContext{TraceID: 7, SpanID: rec.SpanID, Sampled: true}) {
		t.Errorf("Context() = %+v, want the leaf's own identity %d/%d, sampled", wire, rec.TraceID, rec.SpanID)
	}
	var none telemetry.Leaf
	if none.Context().Valid() {
		t.Error("a no-op leaf's Context is valid")
	}

	got := alloctest.AllocsPerRun(t, 100, func() {
		sp := tr.LeafFrom("rpc.call", parent)
		sp.Annotate("op", "obj.bind")
		_ = sp.Context()
		sp.Annotate("error", "reset")
		sp.Annotate("attempts", "2")
		sp.Annotate("outcome", "error")
		sp.End()
	})
	if got != 0 {
		t.Errorf("LeafFrom, Context, four Annotates and End allocate %.0f objects, want 0", got)
	}
}

// TestLeafAllocatesNothing: a leaf lives on its caller's stack and the
// ring copies its attributes into room made with the ring, so a leaf
// under telemetry.New allocates nothing, with no attribute or with two.
func TestLeafAllocatesNothing(t *testing.T) {
	tel := telemetry.New(nil)
	root := tel.Tracer.StartSpan("fetch.secure")
	defer root.End()
	for _, n := range []int{0, 2} {
		got := alloctest.AllocsPerRun(t, 100, func() {
			leaf := root.Leaf("binding.cache")
			for i := 0; i < n; i++ {
				leaf.Annotate("outcome", "hit")
			}
			leaf.End()
		})
		if got != 0 {
			t.Errorf("a leaf with %d attributes allocates %.0f objects, want 0", n, got)
		}
	}
	if tel.Ring.Total() == 0 {
		t.Error("no leaf was exported")
	}
}

// TestLeafMatchesChildSpan: a leaf exports the record a child span
// started and ended at the same instants would — trace, parent, name,
// times and every attribute, past its room too — under a span ID of its
// own drawn at start. It inherits its parent's sampling decision, and an
// "error" attribute exports it from an unsampled trace.
func TestLeafMatchesChildSpan(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	tr := telemetry.NewTracer(fake)
	ring := telemetry.NewRingExporter(16)
	tr.AddExporter(ring)
	root := tr.StartSpan("fetch.secure")
	child := tr.StartSpanFrom("element.fetch", root.Context())
	leaf := root.Leaf("element.fetch")
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		child.Annotate(k, k)
		leaf.Annotate(k, k)
	}
	fake.Advance(time.Millisecond)
	child.End()
	if d := leaf.End(); d != time.Millisecond {
		t.Errorf("leaf End = %v, want 1ms", d)
	}
	root.End()
	spans := ring.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans exported, want 3", len(spans))
	}
	c, l := spans[0], spans[1]
	if l.SpanID == 0 || l.SpanID == c.SpanID || l.SpanID == root.Context().SpanID {
		t.Errorf("leaf span ID %d, child %d, root %d: want one of its own", l.SpanID, c.SpanID, root.Context().SpanID)
	}
	l.SpanID = c.SpanID
	if !reflect.DeepEqual(l, c) {
		t.Errorf("leaf exported %+v, child span %+v", l, c)
	}

	tr.SetSampleRate(0)
	ring.Reset()
	unsampled := tr.StartSpan("fetch.secure")
	quiet := unsampled.Leaf("element.fetch")
	quiet.End()
	failed := unsampled.Leaf("element.verify.authenticity")
	failed.Annotate("error", "hash mismatch")
	failed.End()
	unsampled.End()
	spans = ring.Spans()
	if len(spans) != 1 || spans[0].Name != "element.verify.authenticity" || spans[0].ParentID != unsampled.Context().SpanID {
		t.Errorf("an unsampled trace exported %+v, want only the failed leaf under its root", spans)
	}
	orphan := tr.LeafFrom("serve.element", telemetry.SpanContext{})
	orphan.Annotate("error", "e")
	orphan.End()
	if rec := ring.Spans()[1]; rec.ParentID != 0 || rec.TraceID != rec.SpanID {
		t.Errorf("a leaf from no context exported %+v, want the root of its own trace", rec)
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
