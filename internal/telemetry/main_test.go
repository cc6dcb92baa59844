package telemetry_test

import (
	"testing"

	"globedoc/internal/leakcheck"
)

// TestMain fails the package when a test leaves a goroutine running: a
// debug HTTP server or an exporter, outliving its test.
func TestMain(m *testing.M) { leakcheck.Main(m) }
