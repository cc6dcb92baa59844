package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// TrustFlow is the taint analysis behind the paper's §3.2.2 invariant:
// bytes from an untrusted replica or the (deliberately untrusted)
// location service are worthless until they pass the consistency /
// authenticity / freshness checks, so no wire-derived value may reach a
// trusted sink without passing through a sanitizer first.
//
//	sources    — transport.Client.Call replies and the raw frame
//	             readers under it, object.Client element/key/cert
//	             payloads, location Lookup answers, server
//	             UnmarshalBundle. (internal/enc is a pure
//	             buffer codec; the conn-facing boundaries that feed
//	             it — Call and the frame readers — are the sources.)
//	sanitizers — cert.VerifyElement / CheckAuthenticity and the
//	             signature checks (cert.VerifySignature and
//	             VerifyEncoding — which vouches for the encoding it
//	             checked too — TrustStore.Verify/FirstTrusted, globeid.OID.Verify,
//	             keys.PublicKey.Verify). CheckConsistency and
//	             CheckFreshness take no replica bytes; the byte-washing
//	             member of the §3.2.2 trio is CheckAuthenticity.
//	sinks      — vcache.Cache.Put, server buildWire (the precomputed
//	             wire table), core.FetchResult.Element (the trusted
//	             fetch output), and http.ResponseWriter writes.
//
// The engine is flow-approximate intra-procedural dataflow (events
// ordered by source position, object granularity: tainting or washing
// a field marks the whole base object) glued across package boundaries
// by per-function summaries: which results carry source taint, which
// parameters flow to a sink, and which parameters the function
// sanitizes. Summaries are memoized over the whole module load, so a
// helper in one package that stores its argument unverified flags
// every cross-package caller that hands it wire bytes — with the full
// source→sink step chain, spanning both functions, in the diagnostic.
//
// Deliberate under-approximations, chosen so the repo's legitimate
// plumbing (addresses, sizes, trace spans) does not drown the signal:
// taint does not flow from a call's arguments to its results when the
// callee is in-module (the callee's own body is analyzed instead), and
// flows through long-lived heap structures (ring buffers, caches) are
// not tracked — the invariant is enforced at the ingestion sinks that
// fill them. Suppress a finding only with //lint:ignore trustflow and
// a justification for why the path is provably safe.
var TrustFlow = &Analyzer{
	Name:      "trustflow",
	Doc:       "wire-derived bytes must pass cert/signature verification before any trusted sink",
	RunModule: runTrustflow,
}

// --- source / sanitizer / sink tables ---------------------------------
//
// Rules match by package-path suffix (so fixture modules can stand in
// for the real packages), receiver type name ("" = package-level
// function, "*" = any or no receiver), and name.

type taintRule struct {
	pkgSuffix string
	recv      string
	name      string
	desc      string
	// fuzzer, for a source, is the Makefile FUZZ_TARGETS entry
	// ("<package dir>:<Fuzz function>") that drives the decoder the
	// source's bytes come through: untrusted bytes are both tracked and
	// fuzzed (TestTrustflowSourcesHaveFuzzers).
	fuzzer string
}

var taintSources = []taintRule{
	{"internal/transport", "Client", "Call", "reply bytes from transport.Client.Call", "internal/transport:FuzzFrameDecode"},
	{"internal/transport", "", "readV2Frame", "raw frame off the conn", "internal/transport:FuzzFrameDecode"},
	{"internal/object", "Client", "GetElement", "element payload from object.Client.GetElement", "internal/object:FuzzObjectDecode"},
	{"internal/object", "Client", "GetElements", "batch payloads from object.Client.GetElements", "internal/object:FuzzObjectDecode"},
	{"internal/object", "Client", "GetPublicKey", "key bytes from object.Client.GetPublicKey", "internal/keys:FuzzUnmarshalPublicKey"},
	{"internal/object", "Client", "GetIntegrityCert", "integrity cert from object.Client.GetIntegrityCert", "internal/cert:FuzzUnmarshalIntegrityCertificate"},
	{"internal/object", "Client", "Bind", "key, certificates and element batch from object.Client.Bind", "internal/object:FuzzObjectDecode"},
	{"internal/location", "*", "Lookup", "location lookup answer", "internal/location:FuzzLookupDecode"},
	{"internal/server", "", "UnmarshalBundle", "unmarshalled publish bundle", "internal/server:FuzzUnmarshalBundle"},
	{"internal/server", "", "UnmarshalDeltaReply", "decoded obj.getdelta reply", "internal/server:FuzzDeltaDecode"},
}

// sanitizeRule: calling the function vouches for the listed argument
// positions (-1 = the receiver): after the call their base objects are
// trusted. Flow approximation: the call position orders against later
// uses, and the error-return idiom (verify, bail on error, then use)
// is exactly what the position order models.
type sanitizeRule struct {
	pkgSuffix string
	recv      string
	name      string
	args      []int
}

var taintSanitizers = []sanitizeRule{
	{"internal/cert", "IntegrityCertificate", "VerifyElement", []int{1}},
	{"internal/cert", "IntegrityCertificate", "VerifySignature", []int{-1}},
	{"internal/cert", "IntegrityCertificate", "VerifyEncoding", []int{-1, 0}},
	{"internal/cert", "ElementEntry", "CheckAuthenticity", []int{0}},
	{"internal/cert", "TrustStore", "Verify", []int{0}},
	{"internal/cert", "TrustStore", "FirstTrusted", []int{0}},
	{"internal/globeid", "OID", "Verify", []int{0}},
	{"internal/keys", "PublicKey", "Verify", []int{0, 1}},
}

var taintSinks = []taintRule{
	{"internal/vcache", "Cache", "Put", "the verified-content cache (vcache.Put)", ""},
	{"internal/server", "", "buildWire", "the server's precomputed wire table (buildWire)", ""},
}

func matchTaintRule(rules []taintRule, fn *types.Func) *taintRule {
	for i := range rules {
		if taintRuleMatches(fn, rules[i].pkgSuffix, rules[i].recv, rules[i].name) {
			return &rules[i]
		}
	}
	return nil
}

func matchSanitizeRule(fn *types.Func) *sanitizeRule {
	for i := range taintSanitizers {
		r := &taintSanitizers[i]
		if taintRuleMatches(fn, r.pkgSuffix, r.recv, r.name) {
			return r
		}
	}
	return nil
}

func taintRuleMatches(fn *types.Func, pkgSuffix, recv, name string) bool {
	if fn == nil || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	if !strings.HasSuffix(fn.Pkg().Path(), pkgSuffix) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	r := sig.Recv()
	switch recv {
	case "":
		return r == nil
	case "*":
		return true
	default:
		return r != nil && recvTypeName(r.Type()) == recv
	}
}

func recvTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// isResponseWriterType reports whether t is (net/)http.ResponseWriter.
// Fixture modules fake it with any package whose import path ends in
// /http declaring a ResponseWriter type.
func isResponseWriterType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "ResponseWriter" || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == "net/http" || strings.HasSuffix(path, "/http")
}

// isFetchResultType reports whether t (after deref) is core.FetchResult.
func isFetchResultType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "FetchResult" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/core")
}

// --- engine -----------------------------------------------------------

func runTrustflow(pkgs []*Package) []Diagnostic {
	e := newTFEngine(pkgs)
	var out []Diagnostic
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				out = append(out, e.check(fn)...)
			}
		}
	}
	return out
}

type tfDecl struct {
	p  *Package
	fd *ast.FuncDecl
}

type tfEngine struct {
	decls  map[*types.Func]tfDecl
	states map[*types.Func]*tfState
	sums   map[*types.Func]*tfSummary
	inwork map[*types.Func]bool
}

func newTFEngine(pkgs []*Package) *tfEngine {
	e := &tfEngine{
		decls:  make(map[*types.Func]tfDecl),
		states: make(map[*types.Func]*tfState),
		sums:   make(map[*types.Func]*tfSummary),
		inwork: make(map[*types.Func]bool),
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					e.decls[fn] = tfDecl{p: p, fd: fd}
				}
			}
		}
	}
	return e
}

// tfSummary is what one function means to its callers.
type tfSummary struct {
	// results maps a result index to the step chain of a wire source
	// that reaches that return value.
	results map[int][]string
	// sinkParams maps a parameter index (-1 = receiver) to the step
	// chain from that parameter to a sink inside the function.
	sinkParams map[int][]string
	// sanParams holds the parameter indices (-1 = receiver) the
	// function sanitizes: passing a tainted value here washes it for
	// the caller.
	sanParams map[int]bool
}

var emptyTFSummary = &tfSummary{
	results:    map[int][]string{},
	sinkParams: map[int][]string{},
	sanParams:  map[int]bool{},
}

// summarize computes (and memoizes) fn's summary. Recursive call
// chains bottom out at an empty summary — a fixpoint-free
// approximation that keeps the engine linear over the module.
func (e *tfEngine) summarize(fn *types.Func) *tfSummary {
	if s, ok := e.sums[fn]; ok {
		return s
	}
	d, ok := e.decls[fn]
	if !ok || e.inwork[fn] {
		return emptyTFSummary
	}
	e.inwork[fn] = true
	defer delete(e.inwork, fn)

	st := e.state(fn)
	s := &tfSummary{
		results:    make(map[int][]string),
		sinkParams: make(map[int][]string),
		sanParams:  make(map[int]bool),
	}
	// Source pass: which results carry wire taint out of the body.
	sp := &tfPass{e: e, st: st}
	sp.scanReturns(d.fd, s)
	// Param passes: which parameters reach a sink, which get
	// sanitized. One pass per parameter — seeding them together would
	// let the first tainted operand of an expression shadow flows from
	// the others (e.g. a composite literal mixing two parameters).
	for obj := range st.params {
		pp := &tfPass{e: e, st: st, seedParams: true, seedObj: obj, sum: s}
		pp.checkSinks(d.fd.Body)
	}
	for obj, idx := range st.params {
		for _, ev := range st.events[obj] {
			if ev.kind == evCall && e.callSanitizes(st.p, ev.call, ev.argIdx) {
				s.sanParams[idx] = true
				break
			}
		}
	}
	e.sums[fn] = s
	return s
}

// check runs the reporting pass over one function: wire sources live,
// parameters untainted, every sink hit becomes a diagnostic.
func (e *tfEngine) check(fn *types.Func) []Diagnostic {
	d, ok := e.decls[fn]
	if !ok {
		return nil
	}
	st := e.state(fn)
	var out []Diagnostic
	fp := &tfPass{e: e, st: st, diags: &out}
	fp.checkSinks(d.fd.Body)
	return out
}

// --- per-function event state -----------------------------------------

const (
	evAssign = iota // strong update: src replaces the object's value
	evWeak          // weak update (field/index store, op-assign, copy)
	evCall          // the object was handed to a call at argIdx (-1 recv)
)

type tfEvent struct {
	pos  token.Pos
	kind int
	src  ast.Expr // evAssign/evWeak: the RHS
	ridx int      // result index when src is a multi-value expression
	call *ast.CallExpr
	// argIdx is the position of this object in call's argument list
	// (-1 = receiver) for evCall events.
	argIdx int
}

type tfState struct {
	p      *Package
	events map[types.Object][]tfEvent
	// params maps parameter objects to their index; the receiver is -1.
	params map[types.Object]int
	// named result objects by index (nil when unnamed).
	results []types.Object
}

// state collects fn's event log: every assignment, range binding and
// call hand-off in the body, closures included (a closure's effects on
// captured variables land on the shared objects).
func (e *tfEngine) state(fn *types.Func) *tfState {
	if st, ok := e.states[fn]; ok {
		return st
	}
	d := e.decls[fn]
	st := &tfState{
		p:      d.p,
		events: make(map[types.Object][]tfEvent),
		params: make(map[types.Object]int),
	}
	e.states[fn] = st

	if d.fd.Recv != nil && len(d.fd.Recv.List) == 1 && len(d.fd.Recv.List[0].Names) == 1 {
		if obj := d.p.Info.Defs[d.fd.Recv.List[0].Names[0]]; obj != nil {
			st.params[obj] = -1
		}
	}
	idx := 0
	if d.fd.Type.Params != nil {
		for _, field := range d.fd.Type.Params.List {
			if len(field.Names) == 0 {
				idx++
				continue
			}
			for _, name := range field.Names {
				if obj := d.p.Info.Defs[name]; obj != nil && name.Name != "_" {
					st.params[obj] = idx
				}
				idx++
			}
		}
	}
	if d.fd.Type.Results != nil {
		for _, field := range d.fd.Type.Results.List {
			if len(field.Names) == 0 {
				st.results = append(st.results, nil)
				continue
			}
			for _, name := range field.Names {
				st.results = append(st.results, d.p.Info.Defs[name])
			}
		}
	}

	ast.Inspect(d.fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			st.recordAssign(n)
		case *ast.ValueSpec:
			st.recordValueSpec(n)
		case *ast.RangeStmt:
			st.recordRange(n)
		case *ast.CallExpr:
			st.recordCall(n)
		}
		return true
	})
	for obj := range st.events {
		evs := st.events[obj]
		for i := 1; i < len(evs); i++ {
			if evs[i].pos < evs[i-1].pos {
				sortTFEvents(evs)
				break
			}
		}
	}
	return st
}

func sortTFEvents(evs []tfEvent) {
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].pos < evs[j-1].pos; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}

func (st *tfState) add(obj types.Object, ev tfEvent) {
	if obj == nil {
		return
	}
	if _, ok := obj.(*types.Var); !ok {
		return
	}
	st.events[obj] = append(st.events[obj], ev)
}

// lhsTarget resolves an assignment target to (object, strong?): a bare
// identifier is a strong update; a field, index or pointer store marks
// the base object weakly (it may taint it, never wash it).
func (st *tfState) lhsTarget(e ast.Expr) (types.Object, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return nil, false
		}
		obj := st.p.Info.Defs[e]
		if obj == nil {
			obj = st.p.Info.Uses[e]
		}
		return obj, true
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr, *ast.ParenExpr:
		return baseObj(st.p.Info, e), false
	}
	return nil, false
}

func (st *tfState) recordAssign(n *ast.AssignStmt) {
	kind := evAssign
	if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
		kind = evWeak // op-assign (+= etc): old value still contributes
	}
	if len(n.Lhs) > 1 && len(n.Rhs) == 1 {
		for i, lhs := range n.Lhs {
			obj, strong := st.lhsTarget(lhs)
			k := kind
			if !strong {
				k = evWeak
			}
			st.add(obj, tfEvent{pos: n.Pos(), kind: k, src: n.Rhs[0], ridx: i})
		}
		return
	}
	for i, lhs := range n.Lhs {
		if i >= len(n.Rhs) {
			break
		}
		obj, strong := st.lhsTarget(lhs)
		k := kind
		if !strong {
			k = evWeak
		}
		st.add(obj, tfEvent{pos: n.Pos(), kind: k, src: n.Rhs[i], ridx: -1})
	}
}

func (st *tfState) recordValueSpec(n *ast.ValueSpec) {
	if len(n.Values) == 0 {
		return
	}
	if len(n.Values) == 1 && len(n.Names) > 1 {
		for i, name := range n.Names {
			st.add(st.p.Info.Defs[name], tfEvent{pos: n.Pos(), kind: evAssign, src: n.Values[0], ridx: i})
		}
		return
	}
	for i, name := range n.Names {
		if i >= len(n.Values) {
			break
		}
		st.add(st.p.Info.Defs[name], tfEvent{pos: n.Pos(), kind: evAssign, src: n.Values[i], ridx: -1})
	}
}

func (st *tfState) recordRange(n *ast.RangeStmt) {
	for _, kv := range []ast.Expr{n.Key, n.Value} {
		if kv == nil {
			continue
		}
		obj, _ := st.lhsTarget(kv)
		st.add(obj, tfEvent{pos: n.Pos(), kind: evAssign, src: n.X, ridx: -1})
	}
}

// recordCall logs hand-off events so sanitizer effects can be resolved
// lazily (callee summaries are not available while events are being
// collected), plus the copy() builtin as a weak assign.
func (st *tfState) recordCall(n *ast.CallExpr) {
	if id, ok := unparenExpr(n.Fun).(*ast.Ident); ok {
		if b, isb := st.p.Info.Uses[id].(*types.Builtin); isb && b.Name() == "copy" && len(n.Args) == 2 {
			st.add(baseObj(st.p.Info, n.Args[0]), tfEvent{pos: n.Pos(), kind: evWeak, src: n.Args[1], ridx: -1})
			return
		}
	}
	fn := calleeFunc(st.p.Info, n)
	if fn == nil {
		return
	}
	if sel, ok := unparenExpr(n.Fun).(*ast.SelectorExpr); ok {
		if s, ok := st.p.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			st.add(baseObj(st.p.Info, sel.X), tfEvent{pos: n.Pos(), kind: evCall, call: n, argIdx: -1})
		}
	}
	for i, arg := range n.Args {
		st.add(baseObj(st.p.Info, arg), tfEvent{pos: n.Pos(), kind: evCall, call: n, argIdx: i})
	}
}

// baseObj unwraps selectors, indexes, stars and parens to the root
// identifier's object: the unit of taint tracking.
func baseObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			// A package qualifier is not a trackable object.
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					return nil
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.CallExpr:
			// Conversions wrap a value: track through. Real calls stop.
			if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
				e = x.Args[0]
				continue
			}
			return nil
		default:
			return nil
		}
	}
}

func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparenExpr(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fun]; ok {
			if f, ok := s.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

func unparenExpr(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// callSanitizes reports whether handing position argIdx (-1 receiver)
// of this call washes the value: a root sanitizer rule, or an
// in-module callee whose summary sanitizes that parameter.
func (e *tfEngine) callSanitizes(p *Package, call *ast.CallExpr, argIdx int) bool {
	fn := calleeFunc(p.Info, call)
	if fn == nil {
		return false
	}
	if r := matchSanitizeRule(fn); r != nil {
		for _, a := range r.args {
			if a == argIdx {
				return true
			}
		}
		return false
	}
	if _, ok := e.decls[fn]; ok {
		return e.summarize(fn).sanParams[argIdx]
	}
	return false
}

// --- taint queries ----------------------------------------------------

// tfRootSource marks a taint rooted at a wire source (vs a parameter
// index in param-seeded summary mode).
const tfRootSource = -2

type tfTaint struct {
	root  int
	steps []string
}

func (t *tfTaint) step(s string) *tfTaint {
	steps := make([]string, 0, len(t.steps)+1)
	steps = append(steps, t.steps...)
	steps = append(steps, s)
	return &tfTaint{root: t.root, steps: steps}
}

// tfPass is one analysis run over a function body: the reporting pass
// (diags set, sources live, params clean) or the summary param pass
// (seedParams set, sources off, sum collects sink/sanitize params).
type tfPass struct {
	e          *tfEngine
	st         *tfState
	seedParams bool
	// seedObj is the single parameter object seeded in this param
	// pass; flows are attributed to exactly one parameter per pass.
	seedObj types.Object
	diags   *[]Diagnostic
	sum     *tfSummary
	depth   int
}

const tfMaxDepth = 256

func (fp *tfPass) stepAt(pos token.Pos, desc string) string {
	p := fp.st.p.Fset.Position(pos)
	return fmt.Sprintf("%s (%s:%d)", desc, filepath.Base(p.Filename), p.Line)
}

// objTaintAt reports the taint of obj as observed just before pos, by
// replaying its event log backwards: a sanitizing hand-off washes it, a
// strong assign takes the RHS's taint, a weak update may add taint but
// never removes it. With no deciding event, parameters are tainted in
// seed mode and everything else is clean.
func (fp *tfPass) objTaintAt(obj types.Object, at token.Pos) *tfTaint {
	if fp.depth > tfMaxDepth {
		return nil
	}
	fp.depth++
	defer func() { fp.depth-- }()

	evs := fp.st.events[obj]
	for i := len(evs) - 1; i >= 0; i-- {
		ev := evs[i]
		if ev.pos >= at {
			continue
		}
		switch ev.kind {
		case evAssign:
			if t := fp.exprTaintIdx(ev.src, ev.ridx, ev.pos); t != nil {
				return t.step(fp.stepAt(ev.pos, obj.Name()))
			}
			return nil
		case evWeak:
			if t := fp.exprTaintIdx(ev.src, ev.ridx, ev.pos); t != nil {
				return t.step(fp.stepAt(ev.pos, obj.Name()))
			}
		case evCall:
			if fp.e.callSanitizes(fp.st.p, ev.call, ev.argIdx) {
				return nil
			}
		}
	}
	if fp.seedParams && obj == fp.seedObj {
		if idx, ok := fp.st.params[obj]; ok {
			return &tfTaint{root: idx, steps: []string{fp.stepAt(obj.Pos(), "parameter "+obj.Name())}}
		}
	}
	return nil
}

func (fp *tfPass) exprTaintIdx(e ast.Expr, ridx int, at token.Pos) *tfTaint {
	if ridx < 0 {
		return fp.exprTaint(e, at)
	}
	switch e := unparenExpr(e).(type) {
	case *ast.CallExpr:
		return fp.callTaint(e, ridx, at)
	case *ast.TypeAssertExpr:
		if ridx == 0 {
			return fp.exprTaint(e.X, at)
		}
		return nil
	case *ast.IndexExpr:
		if ridx == 0 {
			return fp.exprTaint(e.X, at)
		}
		return nil
	case *ast.UnaryExpr: // v, ok := <-ch
		if ridx == 0 {
			return fp.exprTaint(e.X, at)
		}
		return nil
	}
	return fp.exprTaint(e, at)
}

// exprTaint computes the taint of an expression evaluated at position
// at. Error values are never tainted: an error derived from wire bytes
// is a refusal, not content, and treating it as tainted would cascade
// into every failure-reporting path.
func (fp *tfPass) exprTaint(e ast.Expr, at token.Pos) *tfTaint {
	if e == nil || fp.depth > tfMaxDepth {
		return nil
	}
	fp.depth++
	defer func() { fp.depth-- }()

	info := fp.st.p.Info
	if tv, ok := info.Types[e]; ok && tv.Type != nil && isErrorType(tv.Type) {
		return nil
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if v, ok := obj.(*types.Var); ok {
			return fp.objTaintAt(v, at)
		}
		return nil
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return fp.exprTaint(e.X, at)
		}
		return nil
	case *ast.CallExpr:
		return fp.callTaint(e, 0, at)
	case *ast.ParenExpr:
		return fp.exprTaint(e.X, at)
	case *ast.StarExpr:
		return fp.exprTaint(e.X, at)
	case *ast.UnaryExpr:
		return fp.exprTaint(e.X, at)
	case *ast.IndexExpr:
		return fp.exprTaint(e.X, at)
	case *ast.SliceExpr:
		return fp.exprTaint(e.X, at)
	case *ast.TypeAssertExpr:
		return fp.exprTaint(e.X, at)
	case *ast.BinaryExpr:
		if t := fp.exprTaint(e.X, at); t != nil {
			return t
		}
		return fp.exprTaint(e.Y, at)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if t := fp.exprTaint(v, at); t != nil {
				return t
			}
		}
		return nil
	}
	return nil
}

// callTaint computes the taint of result ridx of a call: conversions
// pass their operand through, wire sources are born tainted (reporting
// pass only), sanitizer results are trusted, in-module callees
// contribute their result summary, and everything else — stdlib,
// interface methods, func values — is transparent: tainted iff the
// receiver or an argument is.
func (fp *tfPass) callTaint(call *ast.CallExpr, ridx int, at token.Pos) *tfTaint {
	info := fp.st.p.Info
	if tv, ok := info.Types[call]; ok && tv.Type != nil {
		rt := tv.Type
		if tup, ok := rt.(*types.Tuple); ok && ridx < tup.Len() {
			rt = tup.At(ridx).Type()
		}
		if isErrorType(rt) {
			return nil
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return fp.exprTaint(call.Args[0], at)
		}
		return nil
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return fp.argsTaint(call, at, "call")
	}
	if r := matchTaintRule(taintSources, fn); r != nil {
		if fp.seedParams {
			return nil // summary param pass tracks parameter flows only
		}
		return &tfTaint{root: tfRootSource, steps: []string{fp.stepAt(call.Pos(), "untrusted "+r.desc)}}
	}
	if matchSanitizeRule(fn) != nil {
		return nil
	}
	if _, ok := fp.e.decls[fn]; ok {
		if fp.seedParams {
			return nil
		}
		sum := fp.e.summarize(fn)
		if ch, ok := sum.results[ridx]; ok {
			t := &tfTaint{root: tfRootSource, steps: ch}
			return t.step(fp.stepAt(call.Pos(), "result of "+tfFuncDisplay(fn)))
		}
		// In-module callees do not launder arguments into results: the
		// callee body was analyzed on its own, and argument-to-result
		// plumbing (addresses, names) is not a trust violation.
		return nil
	}
	return fp.argsTaint(call, at, tfFuncDisplay(fn))
}

func (fp *tfPass) argsTaint(call *ast.CallExpr, at token.Pos, name string) *tfTaint {
	if sel, ok := unparenExpr(call.Fun).(*ast.SelectorExpr); ok {
		if id, isID := sel.X.(*ast.Ident); !isID || func() bool {
			_, isPkg := fp.st.p.Info.Uses[id].(*types.PkgName)
			return !isPkg
		}() {
			if t := fp.exprTaint(sel.X, at); t != nil {
				return t.step(fp.stepAt(call.Pos(), "through "+name))
			}
		}
	}
	for _, a := range call.Args {
		if t := fp.exprTaint(a, at); t != nil {
			return t.step(fp.stepAt(call.Pos(), "through "+name))
		}
	}
	return nil
}

func tfFuncDisplay(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if rn := recvTypeName(sig.Recv().Type()); rn != "" {
			name = rn + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// --- sink and return scans --------------------------------------------

// scanReturns fills sum.results from the top-level return statements
// (closure returns belong to the closure, not this function).
func (fp *tfPass) scanReturns(fd *ast.FuncDecl, sum *tfSummary) {
	walkSkipFuncLits(fd.Body, func(n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		if len(ret.Results) == 0 {
			for i, obj := range fp.st.results {
				if obj == nil {
					continue
				}
				if _, seen := sum.results[i]; seen {
					continue
				}
				if t := fp.objTaintAt(obj, ret.End()); t != nil {
					sum.results[i] = t.step(fp.stepAt(ret.Pos(), "returned")).steps
				}
			}
			return
		}
		if len(ret.Results) == 1 && len(fp.st.results) > 1 {
			for i := range fp.st.results {
				if _, seen := sum.results[i]; seen {
					continue
				}
				if t := fp.exprTaintIdx(ret.Results[0], i, ret.Pos()); t != nil {
					sum.results[i] = t.step(fp.stepAt(ret.Pos(), "returned")).steps
				}
			}
			return
		}
		for i, r := range ret.Results {
			if _, seen := sum.results[i]; seen {
				continue
			}
			if t := fp.exprTaint(r, ret.Pos()); t != nil {
				sum.results[i] = t.step(fp.stepAt(ret.Pos(), "returned")).steps
			}
		}
	})
}

// walkSkipFuncLits visits every node in body except the insides of
// function literals.
func walkSkipFuncLits(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// checkSinks walks the whole body (closures included: a sink inside a
// closure is still a sink) and reports every tainted value reaching a
// trusted sink.
func (fp *tfPass) checkSinks(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fp.sinkCall(n)
		case *ast.CompositeLit:
			fp.sinkComposite(n)
		case *ast.AssignStmt:
			fp.sinkFieldAssign(n)
		}
		return true
	})
}

func (fp *tfPass) sinkCall(call *ast.CallExpr) {
	info := fp.st.p.Info
	fn := calleeFunc(info, call)

	// In the reporting pass one diagnostic per sink call is enough; the
	// summary param pass keeps scanning so every parameter that flows
	// into the sink gets its own sinkParams entry.
	if r := matchTaintRule(taintSinks, fn); r != nil {
		for _, arg := range call.Args {
			if t := fp.exprTaint(arg, call.Pos()); t != nil {
				fp.hit(call.Pos(), r.desc, t)
				if fp.sum == nil {
					return
				}
			}
		}
		return
	}

	// ResponseWriter sinks: a method call on the writer itself, or the
	// writer passed alongside tainted bytes (fmt.Fprintf, io.Copy).
	if sel, ok := unparenExpr(call.Fun).(*ast.SelectorExpr); ok {
		if tv, ok := info.Types[sel.X]; ok && isResponseWriterType(tv.Type) {
			for _, arg := range call.Args {
				if t := fp.exprTaint(arg, call.Pos()); t != nil {
					fp.hit(call.Pos(), "the HTTP response ("+sel.Sel.Name+" on http.ResponseWriter)", t)
					if fp.sum == nil {
						return
					}
				}
			}
			return
		}
	}
	hasRW := false
	for _, arg := range call.Args {
		if tv, ok := info.Types[arg]; ok && isResponseWriterType(tv.Type) {
			hasRW = true
			break
		}
	}
	if hasRW {
		for _, arg := range call.Args {
			if tv, ok := info.Types[arg]; ok && isResponseWriterType(tv.Type) {
				continue
			}
			if t := fp.exprTaint(arg, call.Pos()); t != nil {
				fp.hit(call.Pos(), "the HTTP response (via "+callName(call)+")", t)
				if fp.sum == nil {
					return
				}
			}
		}
		return
	}

	// Summary sinks: an in-module callee that stores this argument
	// position unverified.
	if fn == nil {
		return
	}
	if _, ok := fp.e.decls[fn]; !ok {
		return
	}
	sum := fp.e.summarize(fn)
	if len(sum.sinkParams) == 0 {
		return
	}
	if ch, ok := sum.sinkParams[-1]; ok {
		if sel, selOK := unparenExpr(call.Fun).(*ast.SelectorExpr); selOK {
			if t := fp.exprTaint(sel.X, call.Pos()); t != nil {
				fp.hitChain(call.Pos(), t.root, t.step(fp.stepAt(call.Pos(), "into "+tfFuncDisplay(fn))).steps, ch)
				return
			}
		}
	}
	for i, arg := range call.Args {
		ch, ok := sum.sinkParams[i]
		if !ok {
			continue
		}
		if t := fp.exprTaint(arg, call.Pos()); t != nil {
			fp.hitChain(call.Pos(), t.root, t.step(fp.stepAt(call.Pos(), "into "+tfFuncDisplay(fn))).steps, ch)
			if fp.sum == nil {
				return
			}
		}
	}
}

func callName(call *ast.CallExpr) string {
	switch fun := unparenExpr(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}

func (fp *tfPass) sinkComposite(lit *ast.CompositeLit) {
	tv, ok := fp.st.p.Info.Types[lit]
	if !ok || !isFetchResultType(tv.Type) {
		return
	}
	for i, el := range lit.Elts {
		v := el
		field := ""
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			v = kv.Value
			if id, ok := kv.Key.(*ast.Ident); ok {
				field = id.Name
			}
		} else if i == 0 {
			field = "Element" // positional: Element is the first field
		}
		if field != "Element" {
			continue
		}
		if t := fp.exprTaint(v, lit.Pos()); t != nil {
			fp.hit(lit.Pos(), "core.FetchResult.Element (the trusted fetch output)", t)
			return
		}
	}
}

func (fp *tfPass) sinkFieldAssign(n *ast.AssignStmt) {
	for i, lhs := range n.Lhs {
		sel, ok := unparenExpr(lhs).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Element" {
			continue
		}
		tv, ok := fp.st.p.Info.Types[sel.X]
		if !ok || !isFetchResultType(tv.Type) {
			continue
		}
		var t *tfTaint
		if len(n.Lhs) > 1 && len(n.Rhs) == 1 {
			t = fp.exprTaintIdx(n.Rhs[0], i, n.Pos())
		} else if i < len(n.Rhs) {
			t = fp.exprTaint(n.Rhs[i], n.Pos())
		}
		if t != nil {
			fp.hit(n.Pos(), "core.FetchResult.Element (the trusted fetch output)", t)
		}
	}
}

// hit records a tainted value reaching a sink: a diagnostic in the
// reporting pass, a sinkParams entry (keyed by the rooting parameter)
// in the summary param pass.
func (fp *tfPass) hit(pos token.Pos, sinkDesc string, t *tfTaint) {
	fp.hitChain(pos, t.root, t.step(fp.stepAt(pos, "reaches "+sinkDesc)).steps, nil)
}

func (fp *tfPass) hitChain(pos token.Pos, root int, steps, calleeSteps []string) {
	all := make([]string, 0, len(steps)+len(calleeSteps))
	all = append(all, steps...)
	all = append(all, calleeSteps...)
	if fp.sum != nil {
		if root > tfRootSource {
			if _, ok := fp.sum.sinkParams[root]; !ok {
				fp.sum.sinkParams[root] = all
			}
		}
		return
	}
	if fp.diags != nil {
		p := fp.st.p.Fset.Position(pos)
		*fp.diags = append(*fp.diags, Diagnostic{
			Pos:  p,
			Rule: "trustflow",
			Message: "untrusted replica bytes reach a trusted sink unverified: " +
				joinChain(all) +
				"; verify first (cert.VerifyElement, or CheckConsistency+CheckAuthenticity+CheckFreshness, or a signature check)",
		})
	}
}

// joinChain renders the step chain, eliding the middle of very long
// flows so diagnostics stay readable.
func joinChain(steps []string) string {
	const max = 12
	if len(steps) > max {
		head := steps[:max/2]
		tail := steps[len(steps)-max/2:]
		steps = append(append(append([]string{}, head...), "..."), tail...)
	}
	return strings.Join(steps, " -> ")
}
