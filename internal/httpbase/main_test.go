package httpbase_test

import (
	"testing"

	"globedoc/internal/leakcheck"
)

// TestMain fails the package when a test leaves a goroutine running: a
// baseline server or a browser connection outliving its test.
func TestMain(m *testing.M) { leakcheck.Main(m) }
