package vcache

import (
	"testing"

	"globedoc/internal/leakcheck"
)

// TestMain fails the package when a test leaves a goroutine running: a
// singleflighted signature check or a concurrent cache user, outliving
// its test.
func TestMain(m *testing.M) { leakcheck.Main(m) }
