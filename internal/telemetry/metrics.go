package telemetry

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. All methods are safe on
// a nil counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket latency/value histogram. An observation v
// lands in the first bucket whose upper bound satisfies v <= bound; the
// implicit final bucket catches everything above the last bound.
type Histogram struct {
	bounds    []float64
	counts    []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
	exemplars []atomic.Uint64 // per-bucket trace ID of the last sampled observation
	sum       atomic.Uint64   // float64 bits, updated by CAS
	count     atomic.Uint64
}

// NewHistogram returns a histogram over the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	sorted := append([]float64(nil), bounds...)
	sort.Float64s(sorted)
	return &Histogram{
		bounds:    sorted,
		counts:    make([]atomic.Uint64, len(sorted)+1),
		exemplars: make([]atomic.Uint64, len(sorted)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[h.bucket(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveExemplar records one value and remembers traceID as the
// bucket's exemplar — the trace to look at to explain observations in
// that latency range. A zero traceID (unsampled or absent trace) leaves
// the previous exemplar in place.
func (h *Histogram) ObserveExemplar(v float64, traceID uint64) {
	if h == nil {
		return
	}
	if traceID != 0 {
		h.exemplars[h.bucket(v)].Store(traceID)
	}
	h.Observe(v)
}

// bucket returns the index of the bucket v lands in: the first bound
// satisfying v <= bound, or the overflow bucket.
func (h *Histogram) bucket(v float64) int {
	return sort.SearchFloat64s(h.bounds, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Mean returns the average observation (0 with no observations).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// HistogramSnapshot is the JSON-able state of a histogram. Buckets are
// non-cumulative; the final bucket (Bound = +Inf, encoded as null) holds
// observations above the last bound.
type HistogramSnapshot struct {
	Buckets []HistogramBucket `json:"buckets"`
	Sum     float64           `json:"sum"`
	Count   uint64            `json:"count"`
}

// HistogramBucket is one bucket of a snapshot. A nil Bound means +Inf.
type HistogramBucket struct {
	Bound *float64 `json:"le"` // upper bound; null = +Inf
	Count uint64   `json:"count"`
	// ExemplarTraceID is the trace ID of the last sampled observation
	// recorded into this bucket (0 = none): feed it to /debugz/trace to
	// see one concrete trace behind the bucket's latency range.
	ExemplarTraceID uint64 `json:"exemplar_trace_id,omitempty"`
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	snap := HistogramSnapshot{
		Buckets: make([]HistogramBucket, len(h.counts)),
		Sum:     h.Sum(),
		Count:   h.Count(),
	}
	for i := range h.counts {
		snap.Buckets[i].Count = h.counts[i].Load()
		snap.Buckets[i].ExemplarTraceID = h.exemplars[i].Load()
		if i < len(h.bounds) {
			bound := h.bounds[i]
			snap.Buckets[i].Bound = &bound
		}
	}
	return snap
}

// CounterVec is a family of counters distinguished by label values, e.g.
// rpc_calls_total{op,outcome}. Children are created on first use.
type CounterVec struct {
	labels []string

	mu       sync.Mutex
	children map[string]*Counter
}

// NewCounterVec returns a counter family with the given label names.
func NewCounterVec(labels ...string) *CounterVec {
	return &CounterVec{labels: labels, children: make(map[string]*Counter)}
}

// With returns the child counter for the given label values (in label
// order). Safe on a nil vec, which returns a nil (no-op) counter.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	var buf [128]byte
	key := appendLabelKey(buf[:0], v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[string(key)] // a hit converts without allocating
	if !ok {
		c = &Counter{}
		v.children[string(key)] = c
	}
	return c
}

// Total sums every child counter.
func (v *CounterVec) Total() uint64 {
	if v == nil {
		return 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	var total uint64
	for _, c := range v.children {
		total += c.Value()
	}
	return total
}

// Values returns a label-set → count map, e.g.
// `{op="obj.getelement",outcome="ok"}` → 12.
func (v *CounterVec) Values() map[string]uint64 {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]uint64, len(v.children))
	for key, c := range v.children {
		out[key] = c.Value()
	}
	return out
}

// appendLabelKey appends label values in the canonical {k="v",...} form
// used as both map key and snapshot key. Extra or missing values are
// tolerated (rendered positionally) so a miscounted call site still
// records data.
func appendLabelKey(b []byte, labels, values []string) []byte {
	b = append(b, '{')
	for i := 0; i < max(len(labels), len(values)); i++ {
		if i > 0 {
			b = append(b, ',')
		}
		if i < len(labels) {
			b = append(b, labels[i]...)
		} else {
			b = strconv.AppendInt(append(b, "label"...), int64(i), 10)
		}
		value := ""
		if i < len(values) {
			value = values[i]
		}
		b = strconv.AppendQuote(append(b, '='), value)
	}
	return append(b, '}')
}

// Registry holds named instruments. Lookup methods are get-or-create and
// idempotent, so independently wired components share instruments by
// name.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	vecs     map[string]*CounterVec
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		vecs:     make(map[string]*CounterVec),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CounterVec returns the named counter family, creating it (with the
// given label names) if needed.
func (r *Registry) CounterVec(name string, labels ...string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.vecs[name]
	if !ok {
		v = NewCounterVec(labels...)
		r.vecs[name] = v
	}
	return v
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds if needed (existing histograms keep their bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// MetricsSnapshot is the JSON-able state of a whole registry — the
// payload of /debugz.
type MetricsSnapshot struct {
	Counters        map[string]uint64            `json:"counters,omitempty"`
	LabeledCounters map[string]map[string]uint64 `json:"labeled_counters,omitempty"`
	Gauges          map[string]int64             `json:"gauges,omitempty"`
	Histograms      map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every instrument's current value.
func (r *Registry) Snapshot() MetricsSnapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	vecs := make(map[string]*CounterVec, len(r.vecs))
	for k, v := range r.vecs {
		vecs[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	snap := MetricsSnapshot{
		Counters:        make(map[string]uint64, len(counters)),
		LabeledCounters: make(map[string]map[string]uint64, len(vecs)),
		Gauges:          make(map[string]int64, len(gauges)),
		Histograms:      make(map[string]HistogramSnapshot, len(hists)),
	}
	for k, c := range counters {
		snap.Counters[k] = c.Value()
	}
	for k, v := range vecs {
		snap.LabeledCounters[k] = v.Values()
	}
	for k, g := range gauges {
		snap.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		snap.Histograms[k] = h.Snapshot()
	}
	return snap
}
