package bench_test

import (
	"bytes"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"globedoc/internal/bench"
	"globedoc/internal/core"
	"globedoc/internal/netsim"
)

// sampleReport builds a report with representative Figure-4 and Figure-5
// payloads, exercising the awkward JSON corners: map[int] keys, nested
// maps, and time.Duration fields.
func sampleReport(t *testing.T) *bench.Report {
	t.Helper()
	started := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	r := bench.NewReport(bench.Config{TimeScale: 0.01, Iterations: 3}, started)
	r.Fig4 = &bench.Fig4Result{
		Sizes:   []int{1024, 65536},
		Clients: []string{netsim.Paris},
		Points: map[int]map[string]bench.Fig4Point{
			1024: {
				netsim.Paris: {
					Size:            1024,
					Client:          netsim.Paris,
					OverheadPercent: 42.5,
					Security:        bench.Sample{N: 3, Mean: 30 * time.Millisecond, Std: time.Millisecond},
					Total:           bench.Sample{N: 3, Mean: 70 * time.Millisecond, Std: 2 * time.Millisecond},
					Breakdown: core.Timing{
						NameResolve:  time.Millisecond,
						Bind:         2 * time.Millisecond,
						KeyFetch:     3 * time.Millisecond,
						ElementFetch: 4 * time.Millisecond,
					},
				},
			},
		},
	}
	r.Fig5 = []*bench.Fig5Result{{
		Client: netsim.Ithaca,
		Rows: []bench.Fig5Row{{
			TotalBytes: 40960,
			GlobeDoc:   bench.Sample{N: 3, Mean: 120 * time.Millisecond},
			HTTP:       bench.Sample{N: 3, Mean: 90 * time.Millisecond},
			HTTPS:      bench.Sample{N: 3, Mean: 110 * time.Millisecond},
		}},
	}}
	r.Cache = &bench.CacheResult{
		VCacheEnabled: true,
		ElementBytes:  65536,
		Cold:          bench.Phase{Ops: 3, Mean: 40 * time.Millisecond, P50: 39 * time.Millisecond, P95: 44 * time.Millisecond, P99: 45 * time.Millisecond, Max: 45 * time.Millisecond},
		Warm:          bench.Phase{Ops: 3, Mean: 50 * time.Microsecond, P50: 48 * time.Microsecond, P95: 60 * time.Microsecond, P99: 61 * time.Microsecond, Max: 61 * time.Microsecond},
		Revalidate: &bench.Phase{
			Ops: 3, Mean: 20 * time.Millisecond, P50: 19 * time.Millisecond,
			P95: 22 * time.Millisecond, P99: 23 * time.Millisecond, Max: 23 * time.Millisecond,
		},
		WarmSpeedup:       800,
		Hits:              6,
		Misses:            3,
		Revalidations:     3,
		SigCacheHits:      4,
		ContentSHA:        "da39a3ee5e6b4b0d3255bfef95601890afd80709",
		AblationIdentical: true,
	}
	return r
}

func TestReportRoundTripsThroughJSON(t *testing.T) {
	r := sampleReport(t)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := bench.ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("report did not round-trip:\n got %+v\nwant %+v", got, r)
	}
}

func TestReportMetaDefaults(t *testing.T) {
	r := sampleReport(t)
	if r.Schema != bench.ReportSchema {
		t.Errorf("schema = %q", r.Schema)
	}
	if r.Meta.Seed != bench.WorkloadSeed {
		t.Errorf("seed = %d, want %d", r.Meta.Seed, bench.WorkloadSeed)
	}
	if r.Meta.Iterations != 3 {
		t.Errorf("iterations = %d", r.Meta.Iterations)
	}
	// withDefaults fills the algorithm; it must round-trip through
	// ParseAlgorithm (ReadReport checks), so it cannot be empty.
	if r.Meta.KeyAlgorithm == "" {
		t.Error("key algorithm not recorded")
	}
}

func TestReadReportRejectsWrongSchema(t *testing.T) {
	if _, err := bench.ReadReport(strings.NewReader(`{"schema":"globedoc-bench/999"}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
	if _, err := bench.ReadReport(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
	bad := `{"schema":"` + bench.ReportSchema + `","meta":{"key_algorithm":"rot13"}}`
	if _, err := bench.ReadReport(strings.NewReader(bad)); err == nil {
		t.Fatal("unknown key algorithm accepted")
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// populate sets every field reachable from v to a fixed non-zero value
// (one element per slice and map), so omitempty hides nothing.
func populate(v reflect.Value) {
	switch v.Kind() {
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
		populate(v.Elem())
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			v.Set(reflect.ValueOf(time.Date(2005, 4, 4, 12, 0, 0, 0, time.UTC)))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			populate(v.Field(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		populate(v.Index(0))
	case reflect.Map:
		key, elem := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		populate(key)
		populate(elem)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(key, elem)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint8, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float64:
		v.SetFloat(1.5)
	case reflect.String:
		v.SetString("s")
	default:
		panic("populate: unhandled kind " + v.Kind().String())
	}
}

// TestReportJSONLayoutIsFrozen pins the globedoc-bench/1 layout: a
// report with every field populated must marshal to the bytes the
// golden file holds (written by this same test at the commit before the
// CachePhase/MuxPhase merge), so no refactor can rename, drop or
// reorder a key.
func TestReportJSONLayoutIsFrozen(t *testing.T) {
	var r bench.Report
	populate(reflect.ValueOf(&r).Elem())
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/report_layout.golden.json"
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report JSON layout changed; got:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
