package globedoc_test

import (
	"go/build"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// simulatorPackages are the in-process testbed: the simulated network
// and the simulated worlds built on it.
var simulatorPackages = []string{"globedoc/internal/netsim", "globedoc/internal/deploy"}

// TestBinariesLinkNoSimulator fails when a cmd/ binary other than
// benchmark, which runs the simulated experiments, depends on the
// simulator — directly or through any package it imports. Only non-test
// files count, built for the host platform, as `go build` sees them.
func TestBinariesLinkNoSimulator(t *testing.T) {
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, c := range cmds {
		if !c.IsDir() || c.Name() == "benchmark" {
			continue
		}
		deps := moduleDeps(t, "globedoc/cmd/"+c.Name())
		for _, sim := range simulatorPackages {
			if via, ok := deps[sim]; ok {
				t.Errorf("cmd/%s links %s (imported by %s)", c.Name(), sim, via)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no binaries under cmd/")
	}
	// The check sees the simulator where it is linked.
	if _, ok := moduleDeps(t, "globedoc/cmd/benchmark")["globedoc/internal/netsim"]; !ok {
		t.Error("cmd/benchmark does not link netsim: the dependency walk misses imports")
	}
}

// baselinePackages are comparators only the tests and the perfbench
// module measure against: the SFSRO-style Merkle tree, whose diff the
// object server no longer runs — a delta walks two certificates'
// name-ordered entries instead.
var baselinePackages = []string{"globedoc/internal/merkle"}

// TestBinariesLinkNoBaseline fails when any cmd/ binary depends on a
// baseline, directly or through any package it imports.
func TestBinariesLinkNoBaseline(t *testing.T) {
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cmds {
		if !c.IsDir() {
			continue
		}
		deps := moduleDeps(t, "globedoc/cmd/"+c.Name())
		for _, pkg := range baselinePackages {
			if via, ok := deps[pkg]; ok {
				t.Errorf("cmd/%s links %s (imported by %s)", c.Name(), pkg, via)
			}
		}
	}
}

// moduleDeps returns the module packages root depends on, each mapped
// to a package that imports it.
func moduleDeps(t *testing.T, root string) map[string]string {
	t.Helper()
	deps := map[string]string{}
	queue := []string{root}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		dir := filepath.FromSlash(strings.TrimPrefix(path, "globedoc/"))
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if _, seen := deps[imp]; seen || imp == root || !strings.HasPrefix(imp, "globedoc/") {
				continue
			}
			deps[imp] = path
			queue = append(queue, imp)
		}
	}
	return deps
}
