package transport_test

import (
	"testing"

	"globedoc/internal/leakcheck"
)

// TestMain fails the package when a test leaves a goroutine running —
// above all a connection's read loop, which a failed, refused or
// timed-out hello must end with its connection.
func TestMain(m *testing.M) { leakcheck.Main(m) }
