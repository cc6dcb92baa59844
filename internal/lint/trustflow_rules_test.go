package lint

import (
	"go/types"
	"os"
	"regexp"
	"testing"
)

// TestTrustflowRulesNameDeclaredFunctions loads this module and fails
// when a source, sanitizer or sink rule matches no function declared in
// it. A rule is matched by name, so a renamed or deleted function drops
// out of taint tracking without a sound, and trustflow goes on reporting
// 0 findings over bytes it no longer follows.
func TestTrustflowRulesNameDeclaredFunctions(t *testing.T) {
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatalf("loading the module: %v", err)
	}
	var funcs []*types.Func
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				funcs = append(funcs, obj)
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					funcs = append(funcs, named.Method(i))
				}
				if iface, ok := named.Underlying().(*types.Interface); ok {
					for i := 0; i < iface.NumExplicitMethods(); i++ {
						funcs = append(funcs, iface.ExplicitMethod(i))
					}
				}
			}
		}
	}
	declared := func(pkgSuffix, recv, name string) bool {
		for _, fn := range funcs {
			if taintRuleMatches(fn, pkgSuffix, recv, name) {
				return true
			}
		}
		return false
	}
	for _, r := range taintSources {
		if !declared(r.pkgSuffix, r.recv, r.name) {
			t.Errorf("source rule %s %s.%s (%s) matches no declared function", r.pkgSuffix, r.recv, r.name, r.desc)
		}
	}
	for _, r := range taintSanitizers {
		if !declared(r.pkgSuffix, r.recv, r.name) {
			t.Errorf("sanitizer rule %s %s.%s matches no declared function", r.pkgSuffix, r.recv, r.name)
		}
	}
	for _, r := range taintSinks {
		if !declared(r.pkgSuffix, r.recv, r.name) {
			t.Errorf("sink rule %s %s.%s (%s) matches no declared function", r.pkgSuffix, r.recv, r.name, r.desc)
		}
	}
}

// TestTrustflowSourcesHaveFuzzers fails when a source rule names no fuzz
// target, or one the Makefile's FUZZ_TARGETS does not list (which
// TestFuzzTargetsListed holds to the Fuzz functions in the tree): every
// decoder untrusted bytes come through is fuzzed, not only tracked.
func TestTrustflowSourcesHaveFuzzers(t *testing.T) {
	makefile, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\t(\S+:Fuzz\w+)`).FindAllStringSubmatch(string(makefile), -1) {
		listed[m[1]] = true
	}
	for _, r := range taintSources {
		switch {
		case r.fuzzer == "":
			t.Errorf("source rule %s %s.%s (%s) names no fuzz target", r.pkgSuffix, r.recv, r.name, r.desc)
		case !listed[r.fuzzer]:
			t.Errorf("source rule %s %s.%s names fuzz target %s, which the Makefile's FUZZ_TARGETS does not list", r.pkgSuffix, r.recv, r.name, r.fuzzer)
		}
	}
}
