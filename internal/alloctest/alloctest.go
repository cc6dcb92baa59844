// Package alloctest measures the heap bytes a function allocates, for the
// tests that pin each layer's payload-copy budget (DESIGN.md, "Life of a
// payload byte"): testing.AllocsPerRun counts objects, a copy budget is
// in bytes. AllocsPerRun wraps the object count for the budgets kept in
// objects; HeapRetained measures what stays live afterwards. All three
// skip under the race detector; `make budgets` runs their callers without
// it.
package alloctest

import (
	"runtime"
	"testing"
)

// raceEnabled is set by race.go, which only a -race build compiles.
var raceEnabled bool

// BytesPerRun returns the average number of heap bytes allocated per call
// of f, by every goroutine of the process — so the far side of a loopback
// exchange is included. Like testing.AllocsPerRun it pins GOMAXPROCS to 1
// and calls f once before measuring. The race detector's instrumentation
// allocates on its own account, so under -race the test is skipped.
func BytesPerRun(t testing.TB, runs int, f func()) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// AllocsPerRun is testing.AllocsPerRun — the average number of heap
// objects allocated per call of f, by every goroutine of the process —
// skipped under the race detector like BytesPerRun.
func AllocsPerRun(t testing.TB, runs int, f func()) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	return testing.AllocsPerRun(runs, f)
}

// HeapRetained returns how many more heap bytes are live after f than
// before it: what f built and the caller still holds. Each reading
// follows two collections, so what f merely used has been swept. The race
// detector keeps shadow state per allocation, so under -race it skips.
func HeapRetained(t testing.TB, f func()) int64 {
	t.Helper()
	if raceEnabled {
		t.Skip("retained-heap budgets are measured without the race detector")
	}
	before := liveHeap()
	f()
	return liveHeap() - before
}

func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}
