// Package telemetry is the fixture's stand-in for the real tracer: the
// same constructor names and *Span result shape the spanend rule keys
// on.
package telemetry

type Tracer struct{}

type Span struct{}

type SpanContext struct{}

func (t *Tracer) StartSpan(name string) *Span                     { return &Span{} }
func (t *Tracer) StartSpanFrom(name string, sc SpanContext) *Span { return &Span{} }
func (t *Tracer) StartRPCSpan(name string, sc SpanContext) *Span  { return &Span{} }
func (s *Span) StartChild(name string) *Span                      { return &Span{} }
func (s *Span) End()                                              {}
func (s *Span) Annotate(key, value string)                        {}
