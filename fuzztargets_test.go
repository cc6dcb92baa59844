package globedoc_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"globedoc/internal/bench"
)

// TestFuzzTargetsListed fails when the tree has a Fuzz function that
// `make fuzz-smoke` does not run, or the Makefile lists one that is gone:
// FUZZ_TARGETS is the one list, and a fuzzer outside it never executes.
func TestFuzzTargetsListed(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	listed := regexp.MustCompile(`(?m)^\t(\S+:Fuzz\w+)`).FindAllStringSubmatch(string(makefile), -1)
	var want []string
	for _, m := range listed {
		want = append(want, m[1])
	}

	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	var got []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		// perfbench is its own module: the fuzz-smoke loop cannot reach it.
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			got = append(got, filepath.ToSlash(filepath.Dir(path))+":"+m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("Makefile FUZZ_TARGETS does not match the Fuzz functions in the tree\nin the tree:\n  %s\nlisted:\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// TestEveryExperimentIsGated fails when a row of the experiment table
// (internal/bench) is run by neither `make check` nor `make check-full`:
// a row no target runs is a measurement nobody repeats.
func TestEveryExperimentIsGated(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.ReplaceAll(string(makefile), "\\\n", " ")
	named := make(map[string]bool)
	for _, rule := range regexp.MustCompile(`(?m)^(?:check|check-full):(.*)$`).FindAllStringSubmatch(joined, -1) {
		for _, m := range regexp.MustCompile(`\bbench-(\S+)`).FindAllStringSubmatch(rule[1], -1) {
			named[m[1]] = true
		}
	}
	for _, e := range bench.Experiments {
		if !named[e.Name] {
			t.Errorf("experiment %q is a prerequisite of neither check nor check-full", e.Name)
		}
	}
}
