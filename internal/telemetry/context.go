package telemetry

import "context"

// Span carriage through context.Context: the pipeline's root span
// publishes itself into the ctx it threads through the fetch, and every
// RPC call site picks up its identity so the resulting rpc.call span —
// and, across the wire, the server's rpc.serve span — joins the same
// trace instead of starting its own. The ctx carries the *Span, which is
// already on the heap, so a hop costs the context node alone.

type spanKey struct{}

// ContextWith returns ctx carrying sp. A nil sp returns ctx unchanged.
func ContextWith(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanContextFrom extracts the identity of the span carried by ctx, if
// any. A nil ctx, or one carrying no span, yields the zero (invalid)
// SpanContext.
func SpanContextFrom(ctx context.Context) SpanContext {
	if ctx == nil {
		return SpanContext{}
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp.Context()
}
