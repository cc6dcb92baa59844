package netsim_test

import (
	"testing"

	"globedoc/internal/leakcheck"
)

// TestMain fails the package when a test leaves a goroutine running: a
// simulated link's delivery or a listener's accept, outliving its test.
func TestMain(m *testing.M) { leakcheck.Main(m) }
