package clock_test

import (
	"sync"
	"testing"
	"time"

	"globedoc/internal/clock"
)

func TestRealClockAdvances(t *testing.T) {
	a := clock.Real.Now()
	clock.Real.Sleep(time.Millisecond)
	if !clock.Real.Now().After(a) {
		t.Fatal("real clock did not advance")
	}
}

func TestFakeNowIsFixed(t *testing.T) {
	start := time.Date(2005, 4, 4, 0, 0, 0, 0, time.UTC)
	f := clock.NewFake(start)
	if !f.Now().Equal(start) {
		t.Fatalf("Now = %v, want %v", f.Now(), start)
	}
	f.Advance(time.Hour)
	if !f.Now().Equal(start.Add(time.Hour)) {
		t.Fatalf("Now after advance = %v", f.Now())
	}
}

func TestFakeSleepWakesOnAdvance(t *testing.T) {
	f := clock.NewFake(time.Unix(0, 0))
	done := make(chan struct{})
	go func() {
		f.Sleep(10 * time.Second)
		close(done)
	}()
	for f.Waiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("sleep returned before advance")
	default:
	}
	f.Advance(9 * time.Second)
	select {
	case <-done:
		t.Fatal("sleep returned before its deadline")
	case <-time.After(10 * time.Millisecond):
	}
	f.Advance(time.Second)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("sleep did not wake at deadline")
	}
}

func TestFakeAfterZeroFiresImmediately(t *testing.T) {
	f := clock.NewFake(time.Unix(0, 0))
	select {
	case <-f.After(0):
	default:
		t.Fatal("After(0) did not fire immediately")
	}
}

func TestFakeSetNeverMovesBackwards(t *testing.T) {
	f := clock.NewFake(time.Unix(100, 0))
	f.Set(time.Unix(50, 0))
	if !f.Now().Equal(time.Unix(100, 0)) {
		t.Fatalf("clock moved backwards to %v", f.Now())
	}
}

func TestFakeConcurrentSleepers(t *testing.T) {
	f := clock.NewFake(time.Unix(0, 0))
	var wg sync.WaitGroup
	for i := 1; i <= 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			f.Sleep(time.Duration(n) * time.Second)
		}(i)
	}
	for f.Waiters() < 8 {
		time.Sleep(time.Millisecond)
	}
	f.Advance(8 * time.Second)
	wg.Wait()
}

// A stopped timer leaves the fake clock's waiters and never fires; one
// that fired is no longer pending, so stopping it reports false.
func TestFakeTimerStop(t *testing.T) {
	f := clock.NewFake(time.Unix(0, 0))
	stopped, fired := f.NewTimer(time.Second), f.NewTimer(time.Second)
	if got := f.Waiters(); got != 2 {
		t.Fatalf("%d waiters, want 2", got)
	}
	if !stopped.Stop() {
		t.Error("Stop on a pending timer reported false")
	}
	if got := f.Waiters(); got != 1 {
		t.Fatalf("%d waiters after Stop, want 1", got)
	}
	f.Advance(time.Second)
	select {
	case <-stopped.Chan():
		t.Error("a stopped timer fired")
	default:
	}
	select {
	case <-fired.Chan():
	default:
		t.Error("a pending timer did not fire at its deadline")
	}
	if fired.Stop() || stopped.Stop() {
		t.Error("Stop on a fired or stopped timer reported true")
	}
	if got := f.Waiters(); got != 0 {
		t.Errorf("%d waiters left, want 0", got)
	}
}

func TestRealTimerStop(t *testing.T) {
	tm := clock.Real.NewTimer(time.Hour)
	if !tm.Stop() {
		t.Error("Stop on a pending real timer reported false")
	}
	tm = clock.Real.NewTimer(0)
	<-tm.Chan()
	if tm.Stop() {
		t.Error("Stop on a fired real timer reported true")
	}
}
