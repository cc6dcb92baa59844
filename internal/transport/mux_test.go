package transport_test

// What a connection's stream budget adds to the pool cases of
// pool_test.go: ceil(calls/budget) connections, and a stream that times
// out abandons only itself — sibling streams and the connection survive
// (no head-of-line blocking, no poisoned pool).

import (
	"context"
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"globedoc/internal/clock"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

func TestMuxStreamBudgetBoundsConnections(t *testing.T) {
	// One call more than a connection's stream budget, all parked at
	// once: the pool must fill the first connection and open exactly one
	// more, never more.
	release := make(chan struct{})
	dial, arrived := parkingServer(t, release)
	cd := &countingDial{dial: dial}
	c := transport.NewClient(cd.fn())
	c.Pool = transport.PoolConfig{MaxConns: 8}
	defer c.Close()

	const calls = transport.DefaultStreamBudget + 1
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Call(context.Background(), "park", nil)
		}(i)
	}
	for i := 0; i < calls; i++ {
		<-arrived // every call is concurrently in flight
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := cd.count.Load(); got != 2 {
		t.Errorf("%d calls at budget %d dialed %d conns, want 2", calls, transport.DefaultStreamBudget, got)
	}
}

func TestMuxSlowStreamDoesNotBlockSiblings(t *testing.T) {
	// The HoL property: with every call multiplexed onto ONE connection,
	// fast calls complete while a slow sibling stream is still parked.
	release := make(chan struct{})
	dial, arrived := parkingServer(t, release)
	cd := &countingDial{dial: dial}
	c := transport.NewClient(cd.fn())
	c.Pool = transport.PoolConfig{MaxConns: 1}
	defer c.Close()

	slowDone := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), "park", nil)
		slowDone <- err
	}()
	<-arrived // the slow stream is in flight

	for i := 0; i < 5; i++ {
		if _, err := c.Call(context.Background(), "ping", nil); err != nil {
			t.Fatalf("fast call %d behind a parked stream: %v", i, err)
		}
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call: %v", err)
	}
	if got := cd.count.Load(); got != 1 {
		t.Fatalf("dialed %d conns, want 1 (fast calls must share the slow stream's conn)", got)
	}
}

func TestMuxStreamTimeoutAbandonsOnlyItself(t *testing.T) {
	// A stream whose CallTimeout fires gives up alone: the connection
	// stays pooled and siblings keep completing on it. The timeout runs
	// on the injectable clock, so no real time is slept.
	release := make(chan struct{})
	defer close(release)
	dial, arrived := parkingServer(t, release)
	cd := &countingDial{dial: dial}
	// The fake clock starts at the real present so armed conn write
	// deadlines (kernel real-time) land in the future, not in 1970.
	clk := clock.NewFake(time.Now())
	tel := telemetry.New(nil)
	c := transport.NewClient(cd.fn()).Configure(transport.Config{
		CallTimeout: 30 * time.Second,
		Telemetry:   tel,
	})
	c.Clock = clk
	c.Pool = transport.PoolConfig{MaxConns: 1}
	defer c.Close()

	// A warm-up call proves the connection: a call abandoned before the
	// server's answer takes its unproven connection with it. It leaves
	// the doomed call on a reused connection, so a timeout there is
	// re-sent once at once.
	if _, err := c.Call(context.Background(), "ping", nil); err != nil {
		t.Fatal(err)
	}
	timedOut := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), "park", nil)
		timedOut <- err
	}()
	<-arrived // the doomed stream is parked server-side
	// Advance the fake clock until both attempts have timed out; an
	// advance before the re-sent attempt arms its timer moves nothing.
	var err error
	for waiting := true; waiting; {
		select {
		case err = <-timedOut:
			waiting = false
		case <-time.After(time.Millisecond):
			clk.Advance(31 * time.Second)
		}
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded from the stream timeout", err)
	}
	<-arrived // the re-sent attempt reached the server too
	if got := tel.RPCRetries.Value(); got != 1 {
		t.Errorf("rpc_retries_total = %d, want 1 (the timed-out call on a reused connection is re-sent once)", got)
	}
	// The conn must still be healthy for new streams.
	for i := 0; i < 3; i++ {
		if _, err := c.Call(context.Background(), "ping", nil); err != nil {
			t.Fatalf("call %d after a sibling stream timed out: %v", i, err)
		}
	}
	if got := cd.count.Load(); got != 1 {
		t.Errorf("dialed %d conns, want 1 (a stream timeout must not poison the conn)", got)
	}
}
