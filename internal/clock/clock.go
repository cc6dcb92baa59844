// Package clock provides an injectable time source shared by the network
// simulator's fault schedules, the transport retry backoff, and the
// client-side caches' TTL checks.
//
// Production code uses Real, which delegates to package time. Tests use
// Fake, which only moves when Advance is called, so backoff sequences,
// cache expirations and scripted fault schedules run instantly and
// deterministically — no time.Sleep walls, no flakiness under -race.
package clock

import (
	"sync"
	"time"
)

// Clock is the minimal time surface the rest of the system needs.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep blocks for d.
	Sleep(d time.Duration)
	// After returns a channel that receives the clock's time once d has
	// elapsed. Nothing can cancel it: a wait that may end first takes a
	// NewTimer and stops it.
	After(d time.Duration) <-chan time.Time
	// NewTimer returns a timer whose channel receives the clock's time
	// once d has elapsed, unless it is stopped first.
	NewTimer(d time.Duration) Timer
}

// Timer is one pending wake-up that can be cancelled. Stopping it lets
// go of everything it holds at once, where an After channel stays
// pending, and alive, until its time comes.
type Timer interface {
	// Chan returns the channel the clock's time is sent on when the
	// timer fires.
	Chan() <-chan time.Time
	// Stop cancels the timer and reports whether that kept it from
	// firing: false once it has fired or been stopped.
	Stop() bool
}

// Real is the wall clock.
var Real Clock = realClock{}

type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
func (realClock) NewTimer(d time.Duration) Timer         { return (*realTimer)(time.NewTimer(d)) }

// realTimer is a time.Timer as a Timer: a pointer to it converts to the
// interface without a further object.
type realTimer time.Timer

func (t *realTimer) Chan() <-chan time.Time { return t.C }
func (t *realTimer) Stop() bool             { return (*time.Timer)(t).Stop() }

// Fake is a manually advanced clock. Sleepers, After channels and timers
// wake only when Advance (or Set) moves the clock past their deadline.
type Fake struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*waiter
}

// waiter is one Fake timer: pending while it is in its clock's waiters.
type waiter struct {
	f        *Fake
	deadline time.Time
	ch       chan time.Time
}

func (w *waiter) Chan() <-chan time.Time { return w.ch }

// Stop removes w from its clock's waiters and reports whether it was
// still among them.
func (w *waiter) Stop() bool {
	w.f.mu.Lock()
	defer w.f.mu.Unlock()
	for i, other := range w.f.waiters {
		if other == w {
			w.f.waiters = append(w.f.waiters[:i], w.f.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// NewFake returns a fake clock starting at start.
func NewFake(start time.Time) *Fake {
	return &Fake{now: start}
}

// Now returns the fake clock's current time.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Sleep blocks until the clock has been advanced by at least d.
// A non-positive d returns immediately.
func (f *Fake) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-f.After(d)
}

// After returns a channel that fires when the clock passes now+d.
func (f *Fake) After(d time.Duration) <-chan time.Time {
	return f.NewTimer(d).Chan()
}

// NewTimer returns a timer that fires when the clock passes now+d; a
// non-positive d has fired already. Until it fires or is stopped it
// counts among the Waiters.
func (f *Fake) NewTimer(d time.Duration) Timer {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := &waiter{f: f, deadline: f.now.Add(d), ch: make(chan time.Time, 1)}
	if d <= 0 {
		w.ch <- f.now
		return w
	}
	f.waiters = append(f.waiters, w)
	return w
}

// Advance moves the clock forward by d, waking every sleeper whose
// deadline is reached.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.fireLocked()
	f.mu.Unlock()
}

// Set jumps the clock to t (which must not move backwards) and wakes
// sleepers accordingly.
func (f *Fake) Set(t time.Time) {
	f.mu.Lock()
	if t.After(f.now) {
		f.now = t
	}
	f.fireLocked()
	f.mu.Unlock()
}

// Waiters reports how many sleepers and timers are pending — used by
// tests that must advance only once a sleeper has parked, and by tests
// that check a finished wait left no timer behind.
func (f *Fake) Waiters() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.waiters)
}

func (f *Fake) fireLocked() {
	remaining := f.waiters[:0]
	for _, w := range f.waiters {
		if !f.now.Before(w.deadline) {
			w.ch <- f.now
		} else {
			remaining = append(remaining, w)
		}
	}
	f.waiters = remaining
}

var _ Clock = (*Fake)(nil)
