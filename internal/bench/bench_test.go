package bench_test

import (
	"strings"
	"testing"
	"time"

	"globedoc/internal/bench"
	"globedoc/internal/keys"
	"globedoc/internal/netsim"
	"globedoc/internal/workload"
)

// quickCfg keeps harness tests fast: tiny sizes, no sleeping, Ed25519.
func quickCfg() bench.Config {
	return bench.Config{
		TimeScale:    0,
		Iterations:   2,
		Sizes:        []int{1 * workload.KB, 10 * workload.KB},
		ImageSizes:   []int{1 * workload.KB},
		Clients:      []string{netsim.Paris},
		KeyAlgorithm: keys.Ed25519,
	}
}

func TestCollect(t *testing.T) {
	s := bench.Collect([]time.Duration{time.Second, 3 * time.Second})
	if s.N != 2 || s.Mean != 2*time.Second || s.Std != time.Second {
		t.Errorf("Sample = %+v", s)
	}
	if z := bench.Collect(nil); z.N != 0 || z.Mean != 0 {
		t.Errorf("empty Sample = %+v", z)
	}
}

func TestRunTable1(t *testing.T) {
	out := bench.RunTable1(0)
	for _, want := range []string{"Table 1", "ginger.cs.vu.nl", "amsterdam-primary", "paris", "ithaca"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q", want)
		}
	}
}

func TestRunFig4Quick(t *testing.T) {
	res, err := bench.RunFig4(quickCfg())
	if err != nil {
		t.Fatalf("RunFig4: %v", err)
	}
	if len(res.Sizes) != 2 || len(res.Clients) != 1 {
		t.Fatalf("result shape: %+v", res)
	}
	for _, size := range res.Sizes {
		p := res.Points[size][netsim.Paris]
		if p.OverheadPercent <= 0 || p.OverheadPercent >= 100 {
			t.Errorf("size %d: overhead = %v", size, p.OverheadPercent)
		}
		if p.Total.Mean <= 0 || p.Security.Mean <= 0 {
			t.Errorf("size %d: samples = %+v", size, p)
		}
	}
	out := res.Format()
	if !strings.Contains(out, "Figure 4") || !strings.Contains(out, "1KB") {
		t.Errorf("Format output:\n%s", out)
	}
}

func TestRunFig5Quick(t *testing.T) {
	res, err := bench.RunFig5(netsim.Paris, quickCfg())
	if err != nil {
		t.Fatalf("RunFig5: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	if row.TotalBytes != 15*workload.KB {
		t.Errorf("TotalBytes = %d", row.TotalBytes)
	}
	if row.GlobeDoc.Mean <= 0 || row.HTTP.Mean <= 0 || row.HTTPS.Mean <= 0 {
		t.Errorf("row = %+v", row)
	}
	out := res.Format(6)
	if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "Paris") {
		t.Errorf("Format output:\n%s", out)
	}
}
