package proxy_test

import (
	"testing"

	"globedoc/internal/leakcheck"
)

// TestMain fails the package when a test leaves a goroutine running: a
// proxy server or a keep-alive connection nobody shut down.
func TestMain(m *testing.M) { leakcheck.Main(m) }
