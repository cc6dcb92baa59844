package core_test

import (
	"testing"

	"globedoc/internal/leakcheck"
)

// TestMain fails the package when a test leaves a goroutine running: a
// client's replica connection, a singleflight waiter or a world's
// servers, outliving its test.
func TestMain(m *testing.M) { leakcheck.Main(m) }
