package telemetry_test

// Edge cases of the export path: ring wraparound losing the middle of a
// trace, many goroutines interleaving on one JSON-lines stream, and the
// health EWMAs' decay arithmetic on an injectable clock.

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"globedoc/internal/clock"
	"globedoc/internal/telemetry"
)

func TestRingWraparoundStitchesPartialTrace(t *testing.T) {
	// A ring smaller than the trace: the root and the first children are
	// overwritten, so stitching must surface the survivors as orphaned
	// roots instead of dropping them with their lost parents.
	tracer := telemetry.NewTracer(clock.NewFake(time.Unix(1000, 0)))
	ring := telemetry.NewRingExporter(4)
	tracer.AddExporter(ring)

	root := tracer.StartSpan("fetch.all")
	var children []telemetry.Leaf
	for i := 0; i < 8; i++ {
		children = append(children, root.Leaf(fmt.Sprintf("element.%d", i)))
	}
	for i := range children {
		children[i].End()
	}
	root.End() // exports last, evicting all but the newest children... and itself

	spans := ring.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring retained %d spans, want 4", len(spans))
	}
	if total := ring.Total(); total != 9 {
		t.Fatalf("ring total = %d, want 9 exports", total)
	}
	roots := telemetry.BuildTrace(spans, root.TraceID())
	// The root span IS retained (it exported last); the three surviving
	// children attach to it, and nothing is orphaned.
	reachable := 0
	var walk func(n *telemetry.TraceNode)
	walk = func(n *telemetry.TraceNode) {
		reachable++
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	if reachable != 4 {
		t.Errorf("stitched %d spans, want all 4 retained ones", reachable)
	}

	// Now lose the root too: reset and export only children.
	ring.Reset()
	late := root.Leaf("late")
	late.End()
	orphans := telemetry.BuildTrace(ring.Spans(), root.TraceID())
	if len(orphans) != 1 || !orphans[0].Orphaned {
		t.Fatalf("child without retained parent = %+v, want one orphaned root", orphans)
	}
}

func TestJSONLExporterConcurrentWrites(t *testing.T) {
	// Many goroutines finish spans into one JSON-lines stream; under
	// -race this pins the exporter's locking, and the parse-back proves
	// no line interleaves with another.
	var buf bytes.Buffer
	tracer := telemetry.NewTracer(nil)
	tracer.AddExporter(telemetry.NewJSONLExporter(&buf))

	const goroutines, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := tracer.StartSpan(fmt.Sprintf("worker.%d", g))
				sp.Annotate("iteration", fmt.Sprint(i))
				sp.End()
			}
		}(g)
	}
	wg.Wait()

	records, err := telemetry.ReadSpans(&buf)
	if err != nil {
		t.Fatalf("concurrent JSONL output failed to parse: %v", err)
	}
	if len(records) != goroutines*per {
		t.Fatalf("parsed %d spans, want %d", len(records), goroutines*per)
	}
	perName := make(map[string]int)
	for _, r := range records {
		if r.SpanID == 0 {
			t.Fatal("span with zero ID in stream")
		}
		perName[r.Name]++
	}
	for g := 0; g < goroutines; g++ {
		if n := perName[fmt.Sprintf("worker.%d", g)]; n != per {
			t.Errorf("worker.%d exported %d spans, want %d", g, n, per)
		}
	}
}

func TestHealthEWMADecayOnFakeClock(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	h := telemetry.NewHealthTracker(fake)

	// Build up a hard failure streak.
	for i := 0; i < 5; i++ {
		h.RecordFailure("paris:objsvc")
	}
	st, ok := h.Lookup("paris:objsvc")
	if !ok {
		t.Fatal("no state after failures")
	}
	if st.ConsecutiveFailures != 5 {
		t.Fatalf("consecutive failures = %d, want 5", st.ConsecutiveFailures)
	}
	high := st.ErrorRate
	if high <= 0.5 {
		t.Fatalf("error EWMA after 5 straight failures = %v, want > 0.5", high)
	}

	// One half-life of quiet halves the error rate — by clock, not by
	// traffic.
	fake.Advance(telemetry.HealthHalfLife)
	st, _ = h.Lookup("paris:objsvc")
	if got, want := st.ErrorRate, high/2; math.Abs(got-want) > 1e-9 {
		t.Errorf("after one half-life: error EWMA = %v, want %v", got, want)
	}
	// Decay is idempotent over repeated lookups at the same instant.
	again, _ := h.Lookup("paris:objsvc")
	if again.ErrorRate != st.ErrorRate {
		t.Errorf("lookup at same instant changed the EWMA: %v -> %v", st.ErrorRate, again.ErrorRate)
	}
	// Ten half-lives later the address has effectively healed, but the
	// consecutive-failure count holds until a success proves recovery.
	fake.Advance(10 * telemetry.HealthHalfLife)
	st, _ = h.Lookup("paris:objsvc")
	if st.ErrorRate > 0.001 {
		t.Errorf("after ten half-lives: error EWMA = %v, want ~0", st.ErrorRate)
	}
	if st.ConsecutiveFailures != 5 {
		t.Errorf("quiet time cleared consecutive failures (%d), only a success may", st.ConsecutiveFailures)
	}
	if h.Penalty("paris:objsvc") < 5 {
		t.Errorf("penalty %v dropped below the consecutive-failure floor", h.Penalty("paris:objsvc"))
	}

	// A success resets the streak and seeds the RTT EWMA exactly.
	h.RecordSuccess("paris:objsvc", 40*time.Millisecond)
	st, _ = h.Lookup("paris:objsvc")
	if st.ConsecutiveFailures != 0 {
		t.Errorf("success left consecutive failures at %d", st.ConsecutiveFailures)
	}
	if st.RTTMillis != 40 {
		t.Errorf("first RTT sample = %vms, want exactly 40", st.RTTMillis)
	}
	// A second success blends at the sample weight: 0.8*40 + 0.2*80.
	h.RecordSuccess("paris:objsvc", 80*time.Millisecond)
	st, _ = h.Lookup("paris:objsvc")
	if got, want := st.RTTMillis, 0.8*40+0.2*80; math.Abs(got-want) > 1e-9 {
		t.Errorf("blended RTT EWMA = %v, want %v", got, want)
	}

	// Unknown addresses and the nil tracker stay inert.
	if _, ok := h.Lookup("never-seen:objsvc"); ok {
		t.Error("lookup invented state for an unseen address")
	}
	if p := h.Penalty("never-seen:objsvc"); p != 0 {
		t.Errorf("penalty for unseen address = %v, want 0", p)
	}
	var nilTracker *telemetry.HealthTracker
	nilTracker.RecordFailure("x")
	nilTracker.RecordSuccess("x", time.Second)
	if p := nilTracker.Penalty("x"); p != 0 {
		t.Errorf("nil tracker penalty = %v", p)
	}

	// The snapshot is sorted and versioned.
	h.RecordSuccess("amsterdam-primary:objsvc", 5*time.Millisecond)
	snap := h.Snapshot()
	if snap.Schema != telemetry.HealthSchema {
		t.Errorf("schema = %q", snap.Schema)
	}
	if len(snap.Addrs) != 2 || snap.Addrs[0].Addr > snap.Addrs[1].Addr {
		t.Errorf("snapshot addrs not sorted: %+v", snap.Addrs)
	}
}

func TestHealthErrorRateSaturates(t *testing.T) {
	// However long the failure streak, the EWMA stays a rate in [0, 1].
	h := telemetry.NewHealthTracker(clock.NewFake(time.Unix(0, 0)))
	for i := 0; i < 1000; i++ {
		h.RecordFailure("ithaca:objsvc")
	}
	st, _ := h.Lookup("ithaca:objsvc")
	if st.ErrorRate <= 0.99 || st.ErrorRate > 1 {
		t.Errorf("saturated error EWMA = %v, want (0.99, 1]", st.ErrorRate)
	}
	if !strings.Contains(fmt.Sprint(st.Samples), "1000") {
		t.Errorf("samples = %d, want 1000", st.Samples)
	}
}
