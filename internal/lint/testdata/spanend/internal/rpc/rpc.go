// Package rpc holds the shapes of the transport's spans: an rpc.call
// leaf whose context parents the far side's span over the wire, and a
// serve that is a leaf or a span depending on the handler.
package rpc

import (
	"context"

	"fixture/internal/telemetry"
)

type spanKey struct{}

// send puts sc on the wire ahead of a request.
func send(sc telemetry.SpanContext) error { return nil }

// call hands its leaf's context to the wire before ending it; the leaf
// stays its own, so this is clean.
func call(t *telemetry.Tracer, caller telemetry.SpanContext) error {
	sp := t.LeafFrom("rpc.call", caller)
	sp.Annotate("op", "obj.bind")
	err := send(sp.Context())
	sp.Annotate("outcome", "ok")
	sp.End()
	return err
}

// leakedCall sends its leaf's context and returns without ending the
// leaf: the far side's span is left with a parent no trace holds.
func leakedCall(t *telemetry.Tracer, caller telemetry.SpanContext) error {
	sp := t.LeafFrom("rpc.call", caller)
	sp.Annotate("op", "obj.bind")
	return send(sp.Context())
}

// dispatch serves a plain handler under a leaf and a context handler
// under a span its context carries; each branch ends its own, so this
// is clean.
func dispatch(t *telemetry.Tracer, sc telemetry.SpanContext, plain func() error, withCtx func(context.Context) error) error {
	if plain != nil {
		sp := t.LeafFrom("rpc.serve", sc)
		sp.Annotate("op", "name.resolve")
		err := plain()
		sp.End()
		return err
	}
	sp := t.StartSpanFrom("rpc.serve", sc)
	sp.Annotate("op", "obj.bind")
	err := withCtx(context.WithValue(context.Background(), spanKey{}, sp))
	sp.End()
	return err
}

// leakedServe ends the span of one branch and forgets the leaf of the
// other.
func leakedServe(t *telemetry.Tracer, sc telemetry.SpanContext, plain func() error) error {
	if plain != nil {
		sp := t.LeafFrom("rpc.serve", sc)
		sp.Annotate("op", "name.resolve")
		return plain()
	}
	sp := t.StartSpanFrom("rpc.serve", sc)
	defer sp.End()
	return nil
}
