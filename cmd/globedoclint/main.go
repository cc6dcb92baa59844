// Command globedoclint runs the project-invariant static analyzer suite
// (internal/lint) over every package in the module and exits nonzero on
// any finding. It is wired into the tier-1 gate via `make lint`.
//
// The suite covers clock injection (clocknow), ctx-first APIs
// (ctxfirst), crypto import hygiene (cryptoscope), error wrapping
// (errwrapf), lock/goroutine discipline (lockguard), span lifetimes
// (spanend), unchecked errors (uncheckederr), the trust boundary of
// the paper's §3.2.2 — wire-derived bytes must pass verification
// before any trusted sink (trustflow) — and stale-suppression rot
// (deadignore).
//
// Usage:
//
//	globedoclint [-json] [-rules rule1,rule2] [packages]
//
// The package arguments are accepted for command-line symmetry with the
// go tool (`go run ./cmd/globedoclint ./...`) but the suite always
// analyzes the whole module: the invariants it checks are module-wide
// properties, and partial runs would let violations hide in unlisted
// packages.
//
// Exit codes: 0 clean, 1 findings, 2 load or usage failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"globedoc/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	jsonOut := flag.Bool("json", false, "emit a machine-readable globedoclint/1 report on stdout")
	rules := flag.String("rules", "", "comma-separated rule subset to run (default: all)")
	modRoot := flag.String("modroot", "", "module root to analyze (default: walk up from cwd to go.mod)")
	flag.Parse()

	root := *modRoot
	if root == "" {
		var err error
		root, err = findModuleRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "globedoclint:", err)
			return 2
		}
	}
	analyzers, err := lint.ByName(*rules)
	if err != nil {
		fmt.Fprintln(os.Stderr, "globedoclint:", err)
		return 2
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "globedoclint:", err)
		return 2
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		fmt.Fprintln(os.Stderr, "globedoclint:", err)
		return 2
	}
	res := lint.Run(pkgs, analyzers)

	if *jsonOut {
		if err := writeJSON(os.Stdout, root, res); err != nil {
			fmt.Fprintln(os.Stderr, "globedoclint:", err)
			return 2
		}
	} else {
		for _, d := range res.Findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", relPath(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
		}
		if len(res.Findings) > 0 || len(res.Suppressed) > 0 {
			fmt.Printf("globedoclint: %d finding(s), %d suppressed\n", len(res.Findings), len(res.Suppressed))
		}
	}
	if len(res.Findings) > 0 {
		return 1
	}
	return 0
}

// Report is the stable -json payload.
type Report struct {
	Schema     string              `json:"schema"`
	Findings   []ReportDiag        `json:"findings"`
	Suppressed []ReportSuppression `json:"suppressed"`
	Summary    ReportSummary       `json:"summary"`
}

// ReportDiag is one finding in the -json payload.
type ReportDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// ReportSuppression is one silenced finding plus its stated reason, so
// suppression rot stays visible in diffs of the JSON output.
type ReportSuppression struct {
	ReportDiag
	Reason string `json:"reason"`
}

// ReportSummary aggregates counts per rule.
type ReportSummary struct {
	Findings   int                   `json:"findings"`
	Suppressed int                   `json:"suppressed"`
	ByRule     map[string]RuleCounts `json:"by_rule"`
}

// RuleCounts is the per-rule finding/suppression tally.
type RuleCounts struct {
	Findings   int `json:"findings"`
	Suppressed int `json:"suppressed"`
}

// ReportSchema identifies the -json payload layout.
const ReportSchema = "globedoclint/1"

func writeJSON(w io.Writer, root string, res lint.Result) error {
	rep := Report{
		Schema:     ReportSchema,
		Findings:   []ReportDiag{},
		Suppressed: []ReportSuppression{},
		Summary: ReportSummary{
			Findings:   len(res.Findings),
			Suppressed: len(res.Suppressed),
			ByRule:     map[string]RuleCounts{},
		},
	}
	for _, d := range res.Findings {
		rep.Findings = append(rep.Findings, ReportDiag{
			File: relPath(root, d.Pos.Filename), Line: d.Pos.Line, Col: d.Pos.Column,
			Rule: d.Rule, Message: d.Message,
		})
		c := rep.Summary.ByRule[d.Rule]
		c.Findings++
		rep.Summary.ByRule[d.Rule] = c
	}
	for _, s := range res.Suppressed {
		rep.Suppressed = append(rep.Suppressed, ReportSuppression{
			ReportDiag: ReportDiag{
				File: relPath(root, s.Pos.Filename), Line: s.Pos.Line, Col: s.Pos.Column,
				Rule: s.Rule, Message: s.Message,
			},
			Reason: s.Reason,
		})
		c := rep.Summary.ByRule[s.Rule]
		c.Suppressed++
		rep.Summary.ByRule[s.Rule] = c
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func relPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !filepath.IsAbs(rel) && rel != ".." && !hasDotDotPrefix(rel) {
		return filepath.ToSlash(rel)
	}
	return path
}

func hasDotDotPrefix(rel string) bool {
	return len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator)
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
