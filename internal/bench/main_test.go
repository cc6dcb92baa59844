package bench_test

import (
	"testing"

	"globedoc/internal/leakcheck"
)

// TestMain fails the package when a test leaves a goroutine running: an
// experiment's puller, secure client or server outliving the world it
// was made in.
func TestMain(m *testing.M) { leakcheck.Main(m) }
