package pipeline

import (
	"time"

	"fixture/internal/telemetry"
)

type holder struct {
	root *telemetry.Span
}

// leaked starts a span, annotates it, and forgets to end it — the true
// positive the rule exists for.
func leaked(t *telemetry.Tracer) {
	sp := t.StartSpan("fetch")
	sp.Annotate("outcome", "ok")
}

// discarded drops the span on the floor without even binding it.
func discarded(t *telemetry.Tracer) {
	t.StartSpan("fetch")
}

// blanked throws the span away through the blank identifier.
func blanked(t *telemetry.Tracer) {
	_ = t.StartSpan("fetch")
}

// leakedChild forgets a leaf while correctly ending the parent.
func leakedChild(t *telemetry.Tracer) {
	sp := t.StartSpan("fetch")
	defer sp.End()
	child := sp.Leaf("verify")
	child.Annotate("outcome", "ok")
}

// deferred is the canonical clean shape.
func deferred(t *telemetry.Tracer) {
	sp := t.StartSpan("fetch")
	defer sp.End()
	sp.Annotate("outcome", "ok")
}

// plainEnd ends the span without a defer; still clean.
func plainEnd(t *telemetry.Tracer, sc telemetry.SpanContext) {
	sp := t.StartSpanFrom("serve", sc)
	sp.Annotate("remote", "true")
	sp.End()
}

// returned hands the span to the caller, which owns ending it.
func returned(t *telemetry.Tracer) *telemetry.Span {
	sp := t.StartSpan("fetch")
	sp.Annotate("outcome", "ok")
	return sp
}

// stored parks the span in a struct whose owner ends it later.
func stored(t *telemetry.Tracer) *holder {
	return &holder{root: t.StartSpan("fetch")}
}

// storedVar parks a bound span in a struct literal.
func storedVar(t *telemetry.Tracer) *holder {
	sp := t.StartSpan("fetch")
	return &holder{root: sp}
}

// handedOff passes the span to a helper that ends it.
func handedOff(t *telemetry.Tracer) {
	sp := t.StartSpan("fetch")
	finish(sp)
}

func finish(sp *telemetry.Span) {
	sp.End()
}

// closureEnd ends the span from a deferred closure; clean.
func closureEnd(t *telemetry.Tracer) {
	sp := t.StartSpan("fetch")
	defer func() { sp.End() }()
	sp.Annotate("outcome", "ok")
}

// leakedLeaf forgets a leaf started from a wire context.
func leakedLeaf(t *telemetry.Tracer, sc telemetry.SpanContext) {
	lf := t.LeafFrom("serve.element", sc)
	lf.Annotate("element", "index.html")
}

// discardedLeaf drops a leaf without binding it.
func discardedLeaf(sp *telemetry.Span) {
	sp.Leaf("verify")
}

// timedLeaf ends its leaf for the duration End returns; clean.
func timedLeaf(sp *telemetry.Span, total *time.Duration) {
	lf := sp.Leaf("verify")
	lf.Annotate("outcome", "ok")
	*total += lf.End()
}

// deferredLeaf ends its leaf from a defer; clean.
func deferredLeaf(t *telemetry.Tracer, sc telemetry.SpanContext) {
	lf := t.LeafFrom("serve.element", sc)
	defer lf.End()
	lf.Annotate("element", "index.html")
}

// assignedLeaf declares the leaf before starting it, as a conditional
// leaf does: the rebinding is not tracked, so it is clean.
func assignedLeaf(sp *telemetry.Span, traced bool) {
	var lf telemetry.Leaf
	if traced {
		lf = sp.Leaf("binding.cache")
	}
	lf.End()
}

// handedOffLeaf passes its leaf to a helper that ends it.
func handedOffLeaf(sp *telemetry.Span) {
	lf := sp.Leaf("verify")
	finishLeaf(&lf)
}

func finishLeaf(lf *telemetry.Leaf) {
	lf.End()
}
