package naming_test

import (
	"testing"

	"globedoc/internal/leakcheck"
)

// TestMain fails the package when a test leaves a goroutine running: a
// resolver's connection or a service's, outliving its test.
func TestMain(m *testing.M) { leakcheck.Main(m) }
