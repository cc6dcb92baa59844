package attack_test

import (
	"testing"

	"globedoc/internal/leakcheck"
)

// TestMain fails the package when a test leaves a goroutine running: an
// adversarial replica's connections or its victim client's, outliving
// its test.
func TestMain(m *testing.M) { leakcheck.Main(m) }
