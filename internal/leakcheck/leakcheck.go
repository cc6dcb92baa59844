// Package leakcheck fails a test binary whose tests leave goroutines
// running. A package opts in with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// After the tests pass, every goroutine that did not exist before them
// must exit within a grace period; any that outlives it is reported with
// its stack and the binary exits non-zero. A stray read loop, a server
// connection nobody closed or a dial nobody reaped is a leak a long-lived
// proxy would accumulate, so it fails the package rather than a soak run.
package leakcheck

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"globedoc/internal/clock"
)

// grace is how long goroutines started by the tests get to exit after
// the last test returns: connection teardown runs on its own goroutines
// and finishes a little after the Close that started it.
const grace = 5 * time.Second

// Main runs m's tests and then the leak check, and exits with the
// result. A failed run exits without the check: its goroutines may be
// stuck for the very reason a test failed.
func Main(m *testing.M) {
	before := goroutines()
	code := m.Run()
	if code == 0 {
		if stuck := leaked(before); len(stuck) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) outlived the tests:\n\n%s\n", len(stuck), strings.Join(stuck, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// leaked waits up to grace for every goroutine not in before (other than
// the caller) to exit and returns the stacks of those still running.
func leaked(before map[string]bool) []string {
	deadline := clock.Real.Now().Add(grace)
	for wait := time.Millisecond; ; wait = min(2*wait, 100*time.Millisecond) {
		self, all := stacks()
		var leaked []string
		for id, stack := range all {
			if id != self && !before[id] && !lifelong(stack) {
				leaked = append(leaked, stack)
			}
		}
		if len(leaked) == 0 || clock.Real.Now().After(deadline) {
			return leaked
		}
		clock.Real.Sleep(wait)
	}
}

// lifelong reports a goroutine that lives as long as the process once
// started: os/signal's receive loop, which the fuzzing engine starts.
func lifelong(stack string) bool {
	return strings.Contains(stack, "os/signal.signal_recv")
}

// goroutines returns the IDs of the goroutines running now.
func goroutines() map[string]bool {
	_, all := stacks()
	ids := make(map[string]bool, len(all))
	for id := range all {
		ids[id] = true
	}
	return ids
}

// stacks returns every running goroutine's stack by ID, and the caller's
// ID.
func stacks() (self string, all map[string]string) {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	all = make(map[string]string)
	for i, g := range bytes.Split(buf, []byte("\n\n")) {
		// Each stack opens "goroutine <id> [<state>]:", the caller's first.
		head, _, _ := bytes.Cut(g, []byte(" ["))
		id := string(bytes.TrimPrefix(head, []byte("goroutine ")))
		if i == 0 {
			self = id
		}
		all[id] = string(g)
	}
	return self, all
}
