// Package telemetry is the observability substrate of the GlobeDoc
// reproduction: a dependency-free tracing core (spans over the injectable
// clock), a metrics registry (atomic counters, gauges and fixed-bucket
// histograms), and the /debugz operational surface that snapshots both.
//
// The paper's entire evaluation (§4, Figures 4–7) is an observability
// claim — "security overhead is X% of fetch time" — so the tracer is
// wired through the full 14-step secure-binding pipeline (internal/core)
// and core.Timing is *derived from* span durations: the benchmark
// harness and the tracer measure the same interval by construction and
// can never disagree.
//
// Every fetch times its steps, sampled or not. A span that other spans
// in its process hang off — a trace's root, a context handler's serve —
// is one heap object (Span); one that parents nothing here — each of the
// 14 steps, an element's serve, an RPC's call, whose child is the
// server's — is a Leaf, held by value on its caller's stack, and timing
// and exporting it allocates nothing (DESIGN.md §8, "What a span
// costs").
//
// Everything here is safe for concurrent use and nil-tolerant: a nil
// *Span or nil instrument is a no-op, and so is the leaf a nil span
// starts, so instrumented code never has to guard its telemetry calls. A
// Leaf itself belongs to the goroutine that started it.
package telemetry

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"globedoc/internal/clock"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRecord is a finished span as handed to exporters: plain data, safe
// to retain, marshal or compare after the span itself is gone. Its Attrs
// are a copy no span writes again: the ring keeps them in room of its
// own, and every other exporter of one span shares a single heap copy,
// so an exporter must not write to them.
type SpanRecord struct {
	TraceID  uint64    `json:"trace_id"`
	SpanID   uint64    `json:"span_id"`
	ParentID uint64    `json:"parent_id,omitempty"`
	Name     string    `json:"name"`
	Start    time.Time `json:"start"`
	End      time.Time `json:"end"`
	Attrs    []Attr    `json:"attrs,omitempty"`
}

// Duration returns the span's measured interval.
func (r SpanRecord) Duration() time.Duration { return r.End.Sub(r.Start) }

// SpanContext is the propagatable identity of a span: everything a
// remote process needs to continue the trace. It crosses the wire in
// the transport's frame header, so a server-side span exports with the
// same trace ID as the client span that caused it.
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
	// Sampled carries the head-based sampling decision made at the trace
	// root; downstream processes honour it instead of re-deciding.
	Sampled bool
}

// Valid reports whether sc identifies a real span (the zero SpanContext
// means "no trace in progress").
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 && sc.SpanID != 0 }

// Exporter receives finished spans. Implementations must be safe for
// concurrent use.
type Exporter interface {
	ExportSpan(SpanRecord)
}

// Tracer creates spans. The zero value is usable: spans are timed with
// the real clock and exported nowhere (timing-only mode, which is how an
// unconfigured core.Client still fills core.Timing from spans).
type Tracer struct {
	// Clock is the time source for span timestamps (nil = the real
	// clock). Real-clock timestamps carry Go's monotonic reading, so
	// durations are immune to wall-clock steps.
	Clock clock.Clock

	mu        sync.RWMutex
	exporters []Exporter

	// ids is the shared ID sequence for traces and spans. It is seeded
	// once from crypto/rand so two processes stitching one distributed
	// trace cannot mint colliding span IDs (a counter starting at 1 in
	// every process would collide immediately).
	ids      atomic.Uint64
	seedOnce sync.Once

	// sampleBits holds math.Float64bits of the head-sampling rate and
	// sampleSet whether it was ever configured. Unconfigured means
	// sample-everything: an unadorned tracer keeps the PR-2 behaviour of
	// exporting every span.
	sampleSet  atomic.Bool
	sampleBits atomic.Uint64
}

// NewTracer returns a tracer over the given clock (nil = real clock).
func NewTracer(clk clock.Clock) *Tracer {
	return &Tracer{Clock: clk}
}

// AddExporter registers e to receive every finished span.
func (t *Tracer) AddExporter(e Exporter) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.exporters = append(t.exporters, e)
}

func (t *Tracer) now() time.Time {
	if t.Clock != nil {
		return t.Clock.Now()
	}
	return clock.Real.Now()
}

// SetSampleRate configures head-based sampling: rate is the fraction of
// new traces whose spans are exported (<= 0 none, >= 1 all). The
// decision is made once at the trace root — from a deterministic hash of
// the trace ID — and inherited by every child and every remote
// continuation, so a trace is always exported whole or not at all.
// Spans are still *timed* when unsampled (core.Timing is derived from
// span durations), and a span that records an "error" attribute is
// exported regardless of the decision. An unconfigured tracer samples
// everything.
func (t *Tracer) SetSampleRate(rate float64) {
	if t == nil {
		return
	}
	t.sampleBits.Store(math.Float64bits(rate))
	t.sampleSet.Store(true)
}

// sampleRoot decides sampling for a new trace identified by id.
func (t *Tracer) sampleRoot(id uint64) bool {
	if !t.sampleSet.Load() {
		return true
	}
	rate := math.Float64frombits(t.sampleBits.Load())
	if rate >= 1 {
		return true
	}
	if rate <= 0 {
		return false
	}
	// splitmix64 finalizer: a well-mixed hash of the trace ID compared
	// against the rate as a fraction of the uint64 space. Deterministic,
	// so re-deciding for the same trace always agrees.
	h := id
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h < uint64(rate*float64(math.MaxUint64))
}

// nextID returns a fresh span ID, seeding the sequence on first use.
func (t *Tracer) nextID() uint64 {
	t.seedOnce.Do(func() {
		var b [8]byte
		if _, err := rand.Read(b[:]); err == nil {
			t.ids.CompareAndSwap(0, binary.BigEndian.Uint64(b[:]))
		}
	})
	id := t.ids.Add(1)
	if id == 0 { // zero is the nil-span sentinel; skip it on wraparound
		id = t.ids.Add(1)
	}
	return id
}

// StartSpan begins a new root span (a new trace). Safe on a nil tracer,
// which returns a nil (no-op) span.
func (t *Tracer) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	return t.start(name, SpanContext{})
}

// StartSpanFrom continues the trace identified by sc: the new span joins
// sc's trace as a child of sc's span and inherits its sampling decision.
// This is both how a client call span nests under the pipeline root
// (sc from the local context) and how a server adopts the trace context
// a frame carried across the wire. An invalid sc degrades to StartSpan.
func (t *Tracer) StartSpanFrom(name string, sc SpanContext) *Span {
	if t == nil {
		return nil
	}
	return t.start(name, sc)
}

func (t *Tracer) start(name string, sc SpanContext) *Span {
	s := &Span{head: t.begin(name, sc)}
	s.attrs = s.room[:0]
	return s
}

// LeafFrom is StartSpanFrom for a leaf: a span that parents no other,
// held by value on the caller's stack. A nil tracer returns a no-op
// leaf.
func (t *Tracer) LeafFrom(name string, sc SpanContext) Leaf {
	if t == nil {
		return Leaf{}
	}
	return Leaf{head: t.begin(name, sc)}
}

// head is what a span and a leaf share: the identity, name and start of
// one timed operation.
type head struct {
	tracer   *Tracer
	name     string
	traceID  uint64
	spanID   uint64
	parentID uint64
	sampled  bool
	start    time.Time
}

// begin starts a span or leaf named name: a child of sc's span in sc's
// trace, inheriting its sampling decision, when sc is valid, else the
// root of a new trace.
func (t *Tracer) begin(name string, sc SpanContext) head {
	if !sc.Valid() {
		id := t.nextID()
		return head{tracer: t, name: name, traceID: id, spanID: id, sampled: t.sampleRoot(id), start: t.now()}
	}
	return head{
		tracer:   t,
		name:     name,
		traceID:  sc.TraceID,
		spanID:   t.nextID(),
		parentID: sc.SpanID,
		sampled:  sc.Sampled,
		start:    t.now(),
	}
}

// finish stamps the end of h's operation and, unless head sampling
// decided against its trace, exports it with attrs — an "error"
// attribute overrides the decision, so failing operations are always
// visible. It returns the operation's duration.
func (h *head) finish(attrs []Attr) time.Duration {
	end := h.tracer.now()
	if h.sampled || hasError(attrs) {
		h.tracer.export(SpanRecord{
			TraceID:  h.traceID,
			SpanID:   h.spanID,
			ParentID: h.parentID,
			Name:     h.name,
			Start:    h.start,
			End:      end,
		}, attrs)
	}
	return end.Sub(h.start)
}

// hasError reports whether attrs hold an "error" attribute.
func hasError(attrs []Attr) bool {
	for _, a := range attrs {
		if a.Key == "error" {
			return true
		}
	}
	return false
}

// export hands rec, with attrs as its attributes, to every exporter
// without retaining attrs, which may be a leaf's storage on its
// caller's stack: a ring copies them into the slot it keeps rec in, and
// the other exporters share one heap copy. No interface call receives
// attrs itself, so the compiler can keep a leaf off the heap.
func (t *Tracer) export(rec SpanRecord, attrs []Attr) {
	t.mu.RLock()
	exporters := t.exporters
	t.mu.RUnlock()
	for _, e := range exporters {
		if r, ok := e.(*RingExporter); ok {
			r.keep(rec, attrs)
			continue
		}
		if rec.Attrs == nil && len(attrs) > 0 {
			rec.Attrs = append(make([]Attr, 0, len(attrs)), attrs...)
		}
		e.ExportSpan(rec)
	}
}

// Span is one timed operation that other spans may hang off: a trace's
// root, or the serve of a handler that starts spans of its own. All
// methods are safe on a nil span. A span is one heap object: its
// attributes live in room until a fifth moves them to a slice. A span
// that parents nothing in its process is better a Leaf, which costs no
// heap object at all.
type Span struct {
	head

	mu    sync.Mutex
	ended bool
	attrs []Attr // a view of room until it outgrows it
	room  [spanAttrCap]Attr
}

// spanAttrCap is the attributes a span or a leaf holds in itself, and a
// ring slot copies a record's into: every span in the tree fits, the
// most being a failed rpc.call's four.
const spanAttrCap = 4

// Context returns the span's propagatable identity, for carrying across
// the wire (via the transport) or starting a span from (StartSpanFrom).
// A nil span returns the zero (invalid) SpanContext.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.traceID, SpanID: s.spanID, Sampled: s.sampled}
}

// Leaf begins a leaf child of s within the same trace, inheriting its
// sampling decision. A nil span returns a no-op leaf.
func (s *Span) Leaf(name string) Leaf {
	if s == nil {
		return Leaf{}
	}
	return s.tracer.LeafFrom(name, s.Context())
}

// Annotate attaches a key/value attribute to the span. An Annotate after
// End is dropped.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
	s.mu.Unlock()
}

// End finishes the span and exports it, unless head sampling decided
// against this trace — an "error" attribute overrides the decision, so
// failing operations are always visible. Ending twice is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.mu.Unlock()
	s.finish(s.attrs) // ended froze attrs: nothing writes them again
}

// TraceID returns the span's trace identifier (0 for a nil span).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.traceID
}

// Leaf is a span that parents no other span in this process — a
// pipeline step, an element's serve, an RPC's call and a plain
// handler's serve — held by value on its caller's stack, so timing and
// exporting it costs no heap object: its first spanAttrCap attributes
// live in it, and End hands exporters a copy (see Tracer.export). A
// span in another process may still hang off it: its Context crosses
// the wire as a span's does. A leaf belongs to the goroutine that
// started it. The zero Leaf, which a nil parent or tracer returns, is a
// no-op whose End reports zero.
type Leaf struct {
	head
	ended bool
	n     int
	room  [spanAttrCap]Attr
	more  []Attr // every attribute, once there are more than room holds
	dur   time.Duration
}

// Context returns the leaf's propagatable identity, for carrying across
// the wire: the remote span started from it joins the leaf's trace as
// its child. A no-op leaf returns the zero (invalid) SpanContext.
func (l *Leaf) Context() SpanContext {
	if l.tracer == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: l.traceID, SpanID: l.spanID, Sampled: l.sampled}
}

// Annotate attaches a key/value attribute to the leaf. An Annotate after
// End is dropped.
func (l *Leaf) Annotate(key, value string) {
	if l.tracer == nil || l.ended {
		return
	}
	a := Attr{Key: key, Value: value}
	switch {
	case l.more != nil:
		l.more = append(l.more, a)
	case l.n < len(l.room):
		l.room[l.n] = a
		l.n++
	default:
		l.more = append(append(make([]Attr, 0, 2*len(l.room)), l.room[:]...), a)
	}
}

// End finishes the leaf, exports it as Span.End would, and returns its
// duration. Ending twice exports once and reports the same duration.
func (l *Leaf) End() time.Duration {
	if l.tracer == nil || l.ended {
		return l.dur
	}
	l.ended = true
	attrs := l.room[:l.n]
	if l.more != nil {
		attrs = l.more
	}
	l.dur = l.finish(attrs)
	return l.dur
}

// RingExporter keeps the most recent spans in a fixed-size ring buffer —
// the in-memory exporter backing tests and the /debugz "recent spans"
// view. Each slot has room for spanAttrCap attributes, made with the
// ring, so keeping a record allocates nothing unless it carries more.
type RingExporter struct {
	mu    sync.Mutex
	buf   []SpanRecord
	room  []Attr // spanAttrCap attributes for each slot of buf
	next  int
	total uint64
}

// NewRingExporter returns a ring keeping the last n spans (n >= 1).
func NewRingExporter(n int) *RingExporter {
	if n < 1 {
		n = 1
	}
	return &RingExporter{buf: make([]SpanRecord, 0, n), room: make([]Attr, n*spanAttrCap)}
}

// ExportSpan implements Exporter.
func (r *RingExporter) ExportSpan(rec SpanRecord) {
	r.keep(rec, rec.Attrs)
}

// keep stores rec, with a copy of attrs as its attributes, in the next
// slot, overwriting the oldest record once the ring is full. It never
// retains attrs.
func (r *RingExporter) keep(rec SpanRecord, attrs []Attr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	i := r.next
	if len(r.buf) < cap(r.buf) {
		i = len(r.buf)
		r.buf = r.buf[:i+1]
	} else {
		r.next = (r.next + 1) % cap(r.buf)
	}
	rec.Attrs = nil
	switch n := len(attrs); {
	case n > spanAttrCap:
		rec.Attrs = append(make([]Attr, 0, n), attrs...)
	case n > 0:
		at := i * spanAttrCap
		rec.Attrs = r.room[at : at+n : at+n]
		copy(rec.Attrs, attrs)
	}
	r.buf[i] = rec
}

// Spans returns the retained spans, oldest first. The records' Attrs are
// copies, which a later export into their slot leaves as they are.
func (r *RingExporter) Spans() []SpanRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanRecord, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	n := 0
	for _, rec := range out {
		n += len(rec.Attrs)
	}
	attrs := make([]Attr, 0, n)
	for i := range out {
		if k := len(out[i].Attrs); k > 0 {
			attrs = append(attrs, out[i].Attrs...)
			out[i].Attrs = attrs[len(attrs)-k : len(attrs) : len(attrs)]
		}
	}
	return out
}

// Total reports how many spans have ever been exported to the ring.
func (r *RingExporter) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Reset discards every retained span.
func (r *RingExporter) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf = r.buf[:0]
	r.next = 0
}

// JSONLExporter writes one JSON object per finished span — the
// machine-readable trace stream the binaries expose behind -trace-out.
type JSONLExporter struct {
	mu sync.Mutex
	w  io.Writer
}

// NewJSONLExporter writes span records to w as JSON lines.
func NewJSONLExporter(w io.Writer) *JSONLExporter {
	return &JSONLExporter{w: w}
}

// ExportSpan implements Exporter. Encoding errors are dropped: telemetry
// must never fail the operation it observes.
func (j *JSONLExporter) ExportSpan(rec SpanRecord) {
	data, err := json.Marshal(rec)
	if err != nil {
		return
	}
	data = append(data, '\n')
	j.mu.Lock()
	_, _ = j.w.Write(data) // see above: export errors must not fail the op
	j.mu.Unlock()
}
