package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"globedoc/internal/lint"
)

// loadFixture loads the named testdata tree and runs the given rule set
// over it, failing the test on any load error.
func loadFixture(t *testing.T, tree, rules string) lint.Result {
	t.Helper()
	analyzers, err := lint.ByName(rules)
	if err != nil {
		t.Fatalf("resolving rules %q: %v", rules, err)
	}
	loader, err := lint.NewLoader(filepath.Join("testdata", tree))
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatalf("loading fixture module: %v", err)
	}
	return lint.Run(pkgs, analyzers)
}

// TestTrustflowCrossPackageSummaries pins the two behaviors the golden
// diff alone cannot localize: taint entering a function through a
// cross-package helper's RESULT (replica.FetchRaw returns wire bytes),
// and taint leaving through a cross-package helper's PARAMETER
// (replica.Stash forwards its argument into the cache). Both summaries
// are computed for internal/replica while internal/core is being
// checked, so a regression in summary propagation breaks these chains
// even if same-package findings survive.
func TestTrustflowCrossPackageSummaries(t *testing.T) {
	res := loadFixture(t, "trustflow", "trustflow")

	byLine := map[int]lint.Diagnostic{}
	for _, d := range res.Findings {
		if d.Rule == "trustflow" && filepath.Base(d.Pos.Filename) == "core.go" {
			byLine[d.Pos.Line] = d
		}
	}

	resultFlow, ok := byLine[109]
	if !ok {
		t.Fatalf("no finding for the taint-through-helper-result flow at core.go:109; got lines %v", keys(byLine))
	}
	for _, step := range []string{"replica.go:", "result of replica.FetchRaw", "vcache.Put"} {
		if !strings.Contains(resultFlow.Message, step) {
			t.Errorf("helper-result chain %q is missing step %q", resultFlow.Message, step)
		}
	}

	paramFlow, ok := byLine[120]
	if !ok {
		t.Fatalf("no finding for the taint-into-helper-parameter flow at core.go:120; got lines %v", keys(byLine))
	}
	for _, step := range []string{"into replica.Stash", "store.go:", "vcache.Put"} {
		if !strings.Contains(paramFlow.Message, step) {
			t.Errorf("helper-parameter chain %q is missing step %q", paramFlow.Message, step)
		}
	}
}

// TestTrustflowMultiFilePackage checks that summaries come from every
// file of a multi-file package: internal/replica splits its source
// (replica.go) and its sink-forwarding helper (store.go) across files,
// and the reported chain for the Stash flow must cross the file
// boundary into store.go where vcache.Put is actually called.
func TestTrustflowMultiFilePackage(t *testing.T) {
	res := loadFixture(t, "trustflow", "trustflow")
	var crossFile bool
	for _, d := range res.Findings {
		if strings.Contains(d.Message, "(store.go:12)") && strings.Contains(d.Message, "(store.go:13)") {
			crossFile = true
		}
	}
	if !crossFile {
		t.Error("no chain steps attributed to store.go; multi-file package summaries are not being collected")
	}
}

// TestTrustflowCleanConstructsSilent pins the exact finding and
// suppression counts for the fixture tree so a precision regression
// (flagging the verified paths) fails here with a count, not only in
// the golden diff.
func TestTrustflowCleanConstructsSilent(t *testing.T) {
	res := loadFixture(t, "trustflow", "trustflow")
	if got := len(res.Findings); got != 11 {
		t.Errorf("findings = %d, want 11 (the seeded violations and nothing else)", got)
	}
	if got := len(res.Suppressed); got != 1 {
		t.Errorf("suppressed = %d, want 1 (the justified debug-endpoint directive)", got)
	}
	for _, d := range res.Findings {
		if !strings.HasPrefix(d.Message, "untrusted replica bytes reach a trusted sink unverified: ") {
			t.Errorf("finding %q lacks the diagnostic preamble", d.Message)
		}
		if !strings.Contains(d.Message, " -> ") {
			t.Errorf("finding %q carries no source->sink step chain", d.Message)
		}
	}
}

// TestDeadIgnoreDecidability runs deadignore WITHOUT clocknow over the
// deadignore tree: every clocknow/ctxfirst directive becomes
// undecidable (the rule is real but was not run, so "zero matches"
// proves nothing) and must not be flagged; the unknown-rule directive
// can never match anything and is flagged regardless of the run set.
func TestDeadIgnoreDecidability(t *testing.T) {
	res := loadFixture(t, "deadignore", "deadignore")
	var dead []lint.Diagnostic
	for _, d := range res.Findings {
		if d.Rule == "deadignore" {
			dead = append(dead, d)
		}
	}
	if len(dead) != 1 {
		t.Fatalf("deadignore findings = %d, want exactly 1 (the unknown rule); got %+v", len(dead), dead)
	}
	if !strings.Contains(dead[0].Message, "oldrule") {
		t.Errorf("deadignore flagged %q, want the unknown-rule directive (oldrule)", dead[0].Message)
	}
}

func keys(m map[int]lint.Diagnostic) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}
