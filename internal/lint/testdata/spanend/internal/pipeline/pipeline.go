package pipeline

import "fixture/internal/telemetry"

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

// leakedChild forgets a child span while correctly ending the parent.
func leakedChild(t *telemetry.Tracer) {
	sp := t.StartSpan("fetch")
	defer sp.End()
	child := sp.StartChild("verify")
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

// leakedRPC forgets a span from the RPC constructor, which the rule
// tracks like the others.
func leakedRPC(t *telemetry.Tracer, sc telemetry.SpanContext) {
	sp := t.StartRPCSpan("rpc.call", sc)
	sp.Annotate("op", "ping")
}

// endedRPC ends its RPC span; clean.
func endedRPC(t *telemetry.Tracer, sc telemetry.SpanContext) {
	sp := t.StartRPCSpan("rpc.serve", sc)
	sp.Annotate("op", "ping")
	sp.End()
}
