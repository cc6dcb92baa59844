package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SpanEnd enforces the tracer's lifetime contract: a span started with
// StartSpan or StartSpanFrom, or a leaf started with Leaf or LeafFrom,
// is only exported when End() is called, so one that is started, kept
// local to the function, and never ended silently vanishes from every
// trace — the hardest observability bug to notice, because everything
// else still works. A leaf's End also returns the duration a pipeline
// step credits to core.Timing, so a lost End loses that too.
//
// A started span or leaf must therefore either reach an End() call in
// the same function (a defer or a plain call), or escape to an owner
// that ends it: returned to the caller, stored in a struct or variable
// visible outside the function, or handed to another function. Escaping
// spans are skipped, not tracked across functions.
var SpanEnd = &Analyzer{
	Name: "spanend",
	Doc:  "every locally-held span reaches End() or escapes to an owner",
	Run:  runSpanEnd,
}

func runSpanEnd(p *Package) []Diagnostic {
	if !p.inInternal() {
		return nil
	}
	if seg := p.ImportPath[strings.LastIndex(p.ImportPath, "/")+1:]; strings.Contains(seg, "test") {
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, spanEndFunc(p, fd)...)
		}
	}
	return out
}

// spanVar is one span-typed local bound from a start call, with what the
// use scan learned about its fate.
type spanVar struct {
	obj     types.Object
	name    string
	at      ast.Node
	ended   bool
	escaped bool
}

// spanEndFunc checks one function body: discarded span starts are flagged
// immediately; span-typed locals bound from a start call are flagged when
// they neither reach an End() nor escape.
func spanEndFunc(p *Package, fd *ast.FuncDecl) []Diagnostic {
	var out []Diagnostic
	var vars []*spanVar
	byObj := make(map[types.Object]*spanVar)

	// Pass 1: collect span bindings and flag discarded starts.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && isSpanStart(p, call) {
				out = append(out, p.diag(call.Pos(), "spanend",
					"span started and discarded: bind it and call End(), or the span never exports"))
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok || !isSpanStart(p, call) {
				return true
			}
			id, ok := n.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			if id.Name == "_" {
				out = append(out, p.diag(call.Pos(), "spanend",
					"span started and discarded into _: bind it and call End(), or the span never exports"))
				return true
			}
			obj := p.Info.Defs[id]
			if obj == nil {
				// Plain `=` rebinding a variable declared elsewhere: the
				// span is reachable beyond this binding; treat as escaped.
				return true
			}
			sv := &spanVar{obj: obj, name: id.Name, at: call}
			vars = append(vars, sv)
			byObj[obj] = sv
		}
		return true
	})
	if len(vars) == 0 {
		return out
	}

	// Pass 2: classify every use of each span variable. The receiver
	// position of a method call is neutral (End marks it ended); any
	// other use — an argument, a return value, a composite literal, an
	// assignment elsewhere — hands the span off, and the analysis stops
	// claiming ownership.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, selOk := call.Fun.(*ast.SelectorExpr); selOk {
				if id := identOf(sel.X); id != nil {
					if sv := byObj[p.Info.Uses[id]]; sv != nil {
						if sel.Sel.Name == "End" {
							sv.ended = true
						}
						// The receiver ident is classified; only the
						// arguments continue to the escape scan.
						for _, arg := range call.Args {
							markSpanUses(p, byObj, arg)
						}
						return false
					}
				}
			}
			return true
		}
		// Any ident use outside a method-call receiver position escapes.
		if id, ok := n.(*ast.Ident); ok {
			if sv := byObj[p.Info.Uses[id]]; sv != nil {
				sv.escaped = true
			}
		}
		return true
	})

	for _, sv := range vars {
		if !sv.ended && !sv.escaped {
			out = append(out, p.diag(sv.at.Pos(), "spanend",
				"span %s is started but never End()ed and never handed off: it will not export, leaving a hole in the trace", sv.name))
		}
	}
	return out
}

// markSpanUses records any span-variable idents below n as escaped (the
// arguments of a method call whose receiver was already classified).
func markSpanUses(p *Package, byObj map[types.Object]*spanVar, n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if sv := byObj[p.Info.Uses[id]]; sv != nil {
				sv.escaped = true
			}
		}
		return true
	})
}

// isSpanStart reports whether call is a tracer span constructor: a
// StartSpan/StartSpanFrom method call whose result is the telemetry
// package's *Span, or a Leaf/LeafFrom method call whose result is its
// Leaf value.
func isSpanStart(p *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	tv, ok := p.Info.Types[call]
	if !ok {
		return false
	}
	want, t := "", tv.Type
	switch sel.Sel.Name {
	case "StartSpan", "StartSpanFrom":
		ptr, ok := t.(*types.Pointer)
		if !ok {
			return false
		}
		want, t = "Span", ptr.Elem()
	case "Leaf", "LeafFrom":
		want = "Leaf"
	default:
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == want && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/telemetry")
}
