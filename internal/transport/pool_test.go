package transport_test

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// countingDial wraps a DialFunc and counts how many connections it made.
type countingDial struct {
	dial  transport.DialFunc
	count atomic.Int64
}

func (d *countingDial) fn() transport.DialFunc {
	return func() (net.Conn, error) {
		d.count.Add(1)
		return d.dial()
	}
}

// parkingServer starts a server whose "park" handler signals arrival on
// the returned channel and then blocks until release is closed — the
// deterministic replacement for sleep-and-poll synchronisation.
func parkingServer(t *testing.T, release <-chan struct{}) (transport.DialFunc, <-chan struct{}) {
	t.Helper()
	arrived := make(chan struct{}, 64)
	dial := startServer(t, func(s *transport.Server) {
		s.Handle("park", func(body []byte) ([]byte, error) {
			arrived <- struct{}{}
			<-release
			return nil, nil
		})
		s.Handle("ping", func(body []byte) ([]byte, error) { return []byte("pong"), nil })
	})
	return dial, arrived
}

func TestPoolReusesIdleConnection(t *testing.T) {
	dial := startServer(t, func(s *transport.Server) {
		s.Handle("ping", func(body []byte) ([]byte, error) { return nil, nil })
	})
	cd := &countingDial{dial: dial}
	c := transport.NewClient(cd.fn())
	defer c.Close()

	for i := 0; i < 10; i++ {
		if _, err := c.Call(context.Background(), "ping", nil); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := cd.count.Load(); got != 1 {
		t.Errorf("sequential calls dialed %d connections, want 1 (pooled reuse)", got)
	}
	if idle := c.IdleConns(); idle != 1 {
		t.Errorf("IdleConns = %d, want 1", idle)
	}
	if inUse := c.ConnsInUse(); inUse != 0 {
		t.Errorf("ConnsInUse = %d after all calls returned, want 0", inUse)
	}
}

func TestPoolBoundsConcurrentConnections(t *testing.T) {
	// Handlers park until released so all in-flight calls overlap; with
	// every connection's streams taken the pool must still open no more
	// than MaxConns connections, and the calls beyond wait their turn.
	// (How the pool fills one connection before dialling the next is
	// TestMuxStreamBudgetBoundsConnections.)
	release := make(chan struct{})
	dial, arrived := parkingServer(t, release)
	cd := &countingDial{dial: dial}
	c := transport.NewClient(cd.fn())
	c.Pool = transport.PoolConfig{MaxConns: 3}
	defer c.Close()

	const full = 3 * transport.DefaultStreamBudget
	const calls = full + 4
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Call(context.Background(), "park", nil)
		}(i)
	}
	// Let the first wave occupy every stream, then drain.
	for i := 0; i < full; i++ {
		<-arrived
	}
	if inUse := c.ConnsInUse(); inUse != 3 {
		t.Errorf("ConnsInUse = %d with every connection occupied, want 3", inUse)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := cd.count.Load(); got != 3 {
		t.Errorf("%d concurrent calls dialed %d connections, want MaxConns=3", calls, got)
	}
}

func TestPoolSlotWaitCancelledByContext(t *testing.T) {
	// One connection with every stream parked: a further call waits for
	// a stream and must honour ctx while waiting.
	release := make(chan struct{})
	dial, arrived := parkingServer(t, release)
	c := transport.NewClient(dial)
	c.Pool = transport.PoolConfig{MaxConns: 1}
	defer c.Close()

	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(release)
	for i := 0; i < transport.DefaultStreamBudget; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = c.Call(context.Background(), "park", nil)
		}()
	}
	for i := 0; i < transport.DefaultStreamBudget; i++ {
		<-arrived // the parked calls own every stream
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := c.Call(ctx, "park", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded while waiting for a stream", err)
	}
}

func TestCloseWhileInFlightDoesNotLeakConns(t *testing.T) {
	release := make(chan struct{})
	dial, arrived := parkingServer(t, release)
	tel := telemetry.New(nil)
	c := transport.NewClient(dial).Configure(transport.Config{Telemetry: tel})
	t.Cleanup(c.Close)

	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), "park", nil)
		done <- err
	}()
	<-arrived // the call is in flight on its conn
	c.Close()
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("in-flight call after Close: %v", err)
	}
	// The in-flight conn must have been closed on return, not pooled.
	if idle := c.IdleConns(); idle != 0 {
		t.Errorf("IdleConns = %d after Close raced an in-flight call, want 0", idle)
	}
	if open := tel.PoolConns.Value(); open != 0 {
		t.Errorf("transport_pool_conns = %d after the drained call returned, want 0", open)
	}
}

func TestCallContextCancelInFlight(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	dial, arrived := parkingServer(t, release)
	c := transport.NewClient(dial)
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(ctx, "park", nil)
		done <- err
	}()
	<-arrived // the request reached the handler; cancel it in flight
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled call never returned")
	}
}

func TestPoolConnNotPoisonedAfterContextTimeout(t *testing.T) {
	// A call its caller abandoned still gets its reply, late, on the
	// shared connection. The reply names the abandoned stream, so the
	// read loop drops it: the next calls — issued after the slow handler
	// was released to send it — each get their own answer.
	slow := make(chan struct{})
	dial := startServer(t, func(s *transport.Server) {
		s.Handle("slow", func(body []byte) ([]byte, error) {
			<-slow
			return []byte("late"), nil
		})
		s.Handle("ping", func(body []byte) ([]byte, error) { return []byte("pong"), nil })
	})
	c := transport.NewClient(dial)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := c.Call(ctx, "slow", nil); err == nil {
		t.Fatal("slow call under a 30ms ctx succeeded")
	}
	close(slow)
	for i := 0; i < 2; i++ {
		resp, err := c.Call(context.Background(), "ping", nil)
		if err != nil {
			t.Fatalf("call %d after the timeout: %v", i, err)
		}
		if string(resp) != "pong" {
			t.Fatalf("call %d after the timeout answered %q, want its own \"pong\"", i, resp)
		}
	}
}

// TestOpenDialsWithoutWriting: Open leaves one dialled connection warm
// in the pool and writes nothing on it — no request and no hello; the
// first call rides that very connection and sends the hello on it. A dial
// records no health sample: its time is no round trip. Opening toward an
// address nothing answers fails, and the failure counts against the
// address's health like a failed call.
func TestOpenDialsWithoutWriting(t *testing.T) {
	var served atomic.Int64
	dial := startServer(t, func(s *transport.Server) {
		s.Handle("ping", func(body []byte) ([]byte, error) {
			served.Add(1)
			return nil, nil
		})
	})
	var sent, received atomic.Int64
	cd := &countingDial{dial: func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: conn, sent: &sent, received: &received}, nil
	}}
	tel := telemetry.New(nil)
	c := transport.NewClient(cd.fn()).Configure(transport.Config{Telemetry: tel, Addr: "replica"})
	defer c.Close()
	ctx := context.Background()

	if err := c.Open(ctx); err != nil {
		t.Fatalf("Open: %v", err)
	}
	if n := sent.Load(); n != 0 {
		t.Errorf("Open wrote %d bytes, want none", n)
	}
	if _, ok := tel.Health.Lookup("replica"); ok {
		t.Error("Open recorded a health sample for a bare dial")
	}
	if idle := c.IdleConns(); idle != 1 {
		t.Errorf("IdleConns = %d after Open, want the dialled connection", idle)
	}
	if _, err := c.Call(ctx, "ping", nil); err != nil {
		t.Fatal(err)
	}
	if n := served.Load(); n != 1 {
		t.Errorf("handler ran %d times, want 1", n)
	}
	if got := cd.count.Load(); got != 1 {
		t.Errorf("Open and a call dialed %d connections, want 1", got)
	}

	dead := transport.NewClient(func() (net.Conn, error) { return nil, errors.New("connection refused") }).
		Configure(transport.Config{Telemetry: tel, Addr: "dead"})
	if err := dead.Open(ctx); err == nil {
		t.Fatal("Open toward a dead address succeeded")
	}
	if h, ok := tel.Health.Lookup("dead"); !ok || h.ConsecutiveFailures != 1 {
		t.Errorf("health of the dead address = %+v, want one failure", h)
	}
}
