package bench

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDesignGateTableMatchesExperiments keeps DESIGN.md §3's "Acceptance
// gates" table from drifting off the experiment table: one row per gated
// experiment, in table order, each naming the bar (from the gate's own
// constant), the run configuration and the make target.
func TestDesignGateTableMatchesExperiments(t *testing.T) {
	bars := map[string]string{
		"concurrent":    fmt.Sprintf(">= %.1fx", concurrentMinSpeedup),
		"cache":         fmt.Sprintf(">= %.1fx", cacheMinWarmSpeedup),
		"multiplex":     fmt.Sprintf("<= %.1fx", multiplexMaxLatencyRatio),
		"traceoverhead": fmt.Sprintf("<= %.2fx", traceMaxP50Ratio),
		"placement":     fmt.Sprintf("<= %.2fx", placementMaxP99Ratio),
		"delta":         fmt.Sprintf(">= %.1fx", deltaMinByteRatio),
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := regexp.MustCompile("(?m)^\\| `(\\w+)` \\|.*`make bench-(\\w+)` \\|$").FindAllStringSubmatch(string(design), -1)
	var gated []Experiment
	for _, e := range Experiments {
		if e.Gate != nil {
			gated = append(gated, e)
		}
	}
	if len(rows) != len(gated) {
		t.Fatalf("DESIGN.md gate table has %d rows, the experiment table %d gated rows", len(rows), len(gated))
	}
	for i, e := range gated {
		line, name, target := rows[i][0], rows[i][1], rows[i][2]
		cfg := fmt.Sprintf("%.1fx latencies, %d iterations", e.Config.TimeScale, e.Config.Iterations)
		if e.Config.Concurrency > 0 {
			cfg += fmt.Sprintf(", concurrency %d", e.Config.Concurrency)
		}
		if name != e.Name || target != e.Name {
			t.Errorf("row %d is %s (make bench-%s), want %s", i, name, target, e.Name)
		}
		for _, want := range []string{bars[e.Name], "| " + cfg + " |"} {
			if want == "" || !strings.Contains(line, want) {
				t.Errorf("%s row lacks %q: %s", e.Name, want, line)
			}
		}
	}
}
