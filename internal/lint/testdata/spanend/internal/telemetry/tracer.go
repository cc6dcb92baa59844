// Package telemetry is the fixture's stand-in for the real tracer: the
// same constructor names and *Span and Leaf result shapes the spanend
// rule keys on.
package telemetry

import "time"

type Tracer struct{}

type Span struct{}

type Leaf struct{}

type SpanContext struct{}

func (t *Tracer) StartSpan(name string) *Span                     { return &Span{} }
func (t *Tracer) StartSpanFrom(name string, sc SpanContext) *Span { return &Span{} }
func (t *Tracer) LeafFrom(name string, sc SpanContext) Leaf       { return Leaf{} }
func (s *Span) Leaf(name string) Leaf                             { return Leaf{} }
func (s *Span) End()                                              {}
func (s *Span) Annotate(key, value string)                        {}
func (l *Leaf) End() time.Duration                                { return 0 }
func (l *Leaf) Annotate(key, value string)                        {}
func (l *Leaf) Context() SpanContext                              { return SpanContext{} }
