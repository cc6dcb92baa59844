package object_test

import (
	"testing"

	"globedoc/internal/leakcheck"
)

// TestMain fails the package when a test leaves a goroutine running: a
// binding's connection, its read loop or a server's, outliving the
// world it was made in.
func TestMain(m *testing.M) { leakcheck.Main(m) }
