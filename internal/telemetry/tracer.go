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
// Everything here is safe for concurrent use and nil-tolerant: a nil
// *Span or nil instrument is a no-op, so instrumented code never has to
// guard its telemetry calls.
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
// are shared with the ended span, which never changes them again; an
// exporter must not write to them either.
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
	id := t.nextID()
	return &Span{
		tracer:  t,
		name:    name,
		traceID: id,
		spanID:  id,
		sampled: t.sampleRoot(id),
		start:   t.now(),
	}
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
	if !sc.Valid() {
		return t.StartSpan(name)
	}
	return &Span{
		tracer:   t,
		name:     name,
		traceID:  sc.TraceID,
		spanID:   t.nextID(),
		parentID: sc.SpanID,
		sampled:  sc.Sampled,
		start:    t.now(),
	}
}

// Span is one timed operation. All methods are safe on a nil span.
//
// A span is one heap object plus at most one attribute allocation: its
// first attribute lives in the span itself, and a second moves them all to
// one slice with room for spanAttrCap. End freezes the attributes — an
// Annotate after it is dropped — so the exported record shares them
// instead of copying.
type Span struct {
	tracer   *Tracer
	name     string
	traceID  uint64
	spanID   uint64
	parentID uint64
	start    time.Time

	mu      sync.Mutex
	sampled bool // immutable after creation
	ended   bool
	attrs   []Attr // a view of inline until it outgrows it
	inline  [1]Attr
	end     time.Time
}

// spanAttrCap is the room a span's attribute slice is made with when its
// attributes outgrow the inline slot: every RPC and root span fits, the
// most being a failed rpc.call's four. Most spans carry at most one
// attribute, and every slot made inline costs all spans 32 bytes
// (EXPERIMENTS.md, "Warm hits without garbage").
const spanAttrCap = 4

// StartChild begins a child span within the same trace, inheriting the
// parent's sampling decision.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		tracer:   s.tracer,
		name:     name,
		traceID:  s.traceID,
		spanID:   s.tracer.nextID(),
		parentID: s.spanID,
		sampled:  s.sampled,
		start:    s.tracer.now(),
	}
}

// Context returns the span's propagatable identity, for carrying across
// the wire (via the transport) or starting a span from (StartSpanFrom).
// A nil span returns the zero (invalid) SpanContext.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.traceID, SpanID: s.spanID, Sampled: s.sampled}
}

// Annotate attaches a key/value attribute to the span. An Annotate after
// End is dropped: the exported record shares the span's attributes, which
// End froze.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		switch len(s.attrs) {
		case 0:
			s.attrs = s.inline[:0]
		case len(s.inline):
			s.attrs = append(make([]Attr, 0, spanAttrCap), s.attrs...)
		}
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
	s.end = s.tracer.now()
	export := s.sampled || s.hasErrorLocked()
	var rec SpanRecord
	if export {
		rec = s.recordLocked()
	}
	s.mu.Unlock()
	if !export {
		return
	}

	s.tracer.mu.RLock()
	exporters := s.tracer.exporters
	s.tracer.mu.RUnlock()
	for _, e := range exporters {
		e.ExportSpan(rec)
	}
}

// hasErrorLocked reports whether the span recorded an "error" attribute.
func (s *Span) hasErrorLocked() bool {
	for _, a := range s.attrs {
		if a.Key == "error" {
			return true
		}
	}
	return false
}

// Duration returns the span's elapsed time: end-start once ended, the
// running interval otherwise. A nil span reports zero.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.end.Sub(s.start)
	}
	return s.tracer.now().Sub(s.start)
}

// TraceID returns the span's trace identifier (0 for a nil span).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.traceID
}

func (s *Span) recordLocked() SpanRecord {
	rec := SpanRecord{
		TraceID:  s.traceID,
		SpanID:   s.spanID,
		ParentID: s.parentID,
		Name:     s.name,
		Start:    s.start,
		End:      s.end,
	}
	if n := len(s.attrs); n > 0 {
		rec.Attrs = s.attrs[:n:n] // full, so an exporter's append copies
	}
	return rec
}

// RingExporter keeps the most recent spans in a fixed-size ring buffer —
// the in-memory exporter backing tests and the /debugz "recent spans"
// view.
type RingExporter struct {
	mu    sync.Mutex
	buf   []SpanRecord
	next  int
	total uint64
}

// NewRingExporter returns a ring keeping the last n spans (n >= 1).
func NewRingExporter(n int) *RingExporter {
	if n < 1 {
		n = 1
	}
	return &RingExporter{buf: make([]SpanRecord, 0, n)}
}

// ExportSpan implements Exporter.
func (r *RingExporter) ExportSpan(rec SpanRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, rec)
		return
	}
	r.buf[r.next] = rec
	r.next = (r.next + 1) % cap(r.buf)
}

// Spans returns the retained spans, oldest first.
func (r *RingExporter) Spans() []SpanRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanRecord, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
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
