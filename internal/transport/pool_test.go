package transport_test

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"globedoc/internal/clock"
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

// framings is the one table the pool's bound, slot-wait, idle-reap,
// no-idle-pooling and close-while-in-flight cases run against: a client
// pinned to v1 frames, and a v2 client whose stream budget is one. Either
// way a connection carries one call at a time, so one pool must show the
// same behaviour through both.
var framings = []struct {
	name    string
	version byte
	budget  int
}{
	{"v1", transport.V1, 0},
	{"v2 budget 1", 0, 1},
}

// forEachFraming runs the case once per row of framings; newClient builds
// the row's client over dial with the case's pool bounds.
func forEachFraming(t *testing.T, run func(t *testing.T, newClient func(transport.DialFunc, transport.PoolConfig) *transport.Client)) {
	for _, f := range framings {
		t.Run(f.name, func(t *testing.T) {
			run(t, func(dial transport.DialFunc, pool transport.PoolConfig) *transport.Client {
				pool.StreamBudget = f.budget
				c := transport.NewClient(dial)
				c.Pool = pool
				c.Version = f.version
				t.Cleanup(c.Close)
				return c
			})
		})
	}
}

func TestPoolBoundsConcurrentConnections(t *testing.T) {
	// Handlers park until released so all in-flight calls overlap; the
	// pool must never open more than MaxConns connections. (What a larger
	// stream budget does to the count is TestMuxStreamBudgetBoundsConnections.)
	forEachFraming(t, func(t *testing.T, newClient func(transport.DialFunc, transport.PoolConfig) *transport.Client) {
		release := make(chan struct{})
		dial, arrived := parkingServer(t, release)
		cd := &countingDial{dial: dial}
		c := newClient(cd.fn(), transport.PoolConfig{MaxConns: 3})

		const calls = 12
		var wg sync.WaitGroup
		errs := make([]error, calls)
		for i := 0; i < calls; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = c.Call(context.Background(), "park", nil)
			}(i)
		}
		// Let the first wave occupy every connection, then drain.
		for i := 0; i < 3; i++ {
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
	})
}

func TestPoolIdleTimeoutReapsStaleConns(t *testing.T) {
	forEachFraming(t, func(t *testing.T, newClient func(transport.DialFunc, transport.PoolConfig) *transport.Client) {
		dial := startServer(t, func(s *transport.Server) {
			s.Handle("ping", func(body []byte) ([]byte, error) { return nil, nil })
		})
		cd := &countingDial{dial: dial}
		clk := clock.NewFake(time.Unix(1_000_000, 0))
		c := newClient(cd.fn(), transport.PoolConfig{IdleTimeout: 10 * time.Millisecond})
		c.Clock = clk

		if _, err := c.Call(context.Background(), "ping", nil); err != nil {
			t.Fatal(err)
		}
		clk.Advance(30 * time.Millisecond)
		if _, err := c.Call(context.Background(), "ping", nil); err != nil {
			t.Fatal(err)
		}
		if got := cd.count.Load(); got != 2 {
			t.Errorf("dialed %d connections, want 2 (stale idle conn reaped, fresh dial)", got)
		}
	})
}

func TestPoolNegativeMaxIdleDisablesPooling(t *testing.T) {
	forEachFraming(t, func(t *testing.T, newClient func(transport.DialFunc, transport.PoolConfig) *transport.Client) {
		dial := startServer(t, func(s *transport.Server) {
			s.Handle("ping", func(body []byte) ([]byte, error) { return nil, nil })
		})
		cd := &countingDial{dial: dial}
		c := newClient(cd.fn(), transport.PoolConfig{MaxIdle: -1})

		for i := 0; i < 3; i++ {
			if _, err := c.Call(context.Background(), "ping", nil); err != nil {
				t.Fatal(err)
			}
		}
		if got := cd.count.Load(); got != 3 {
			t.Errorf("dialed %d connections with MaxIdle=-1, want 3 (no pooling)", got)
		}
		if idle := c.IdleConns(); idle != 0 {
			t.Errorf("IdleConns = %d, want 0", idle)
		}
	})
}

func TestPoolMaxIdleBoundsWarmConnections(t *testing.T) {
	// Three overlapping calls open three connections; with MaxIdle=1 only
	// one of them may stay warm once they return.
	forEachFraming(t, func(t *testing.T, newClient func(transport.DialFunc, transport.PoolConfig) *transport.Client) {
		release := make(chan struct{})
		dial, arrived := parkingServer(t, release)
		c := newClient(dial, transport.PoolConfig{MaxConns: 3, MaxIdle: 1})

		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.Call(context.Background(), "park", nil); err != nil {
					t.Errorf("parked call: %v", err)
				}
			}()
		}
		for i := 0; i < 3; i++ {
			<-arrived
		}
		close(release)
		wg.Wait()
		if idle := c.IdleConns(); idle != 1 {
			t.Errorf("IdleConns = %d after three connections went idle, want MaxIdle=1", idle)
		}
	})
}

func TestPoolSlotWaitCancelledByContext(t *testing.T) {
	// One connection carrying one call: a second call waits for the slot
	// and must honour ctx while waiting.
	forEachFraming(t, func(t *testing.T, newClient func(transport.DialFunc, transport.PoolConfig) *transport.Client) {
		release := make(chan struct{})
		defer close(release)
		dial, arrived := parkingServer(t, release)
		c := newClient(dial, transport.PoolConfig{MaxConns: 1})

		go func() {
			_, _ = c.Call(context.Background(), "park", nil)
		}()
		<-arrived // the parked call owns the only slot

		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		_, err := c.Call(ctx, "park", nil)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded while waiting for a slot", err)
		}
	})
}

func TestCloseWhileInFlightDoesNotLeakConns(t *testing.T) {
	forEachFraming(t, func(t *testing.T, newClient func(transport.DialFunc, transport.PoolConfig) *transport.Client) {
		release := make(chan struct{})
		dial, arrived := parkingServer(t, release)
		tel := telemetry.New(nil)
		c := newClient(dial, transport.PoolConfig{})
		c.Telemetry = tel

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
	})
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
	// A v1 frame names no stream, so the reply to a call its caller
	// abandoned would be read by whoever used the connection next. The
	// abandoned call must therefore take its connection with it: the
	// gauge returns to its value before the call, and the next call —
	// issued after the slow handler was released to send its late reply —
	// gets its own answer on a fresh conn.
	slow := make(chan struct{})
	dial := startServer(t, func(s *transport.Server) {
		s.Handle("slow", func(body []byte) ([]byte, error) {
			<-slow
			return []byte("late"), nil
		})
		s.Handle("ping", func(body []byte) ([]byte, error) { return []byte("pong"), nil })
	})
	tel := telemetry.New(nil)
	c := transport.NewClient(dial).Configure(transport.Config{Telemetry: tel, Version: transport.V1})
	defer c.Close()

	before := tel.PoolConns.Value()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := c.Call(ctx, "slow", nil); err == nil {
		t.Fatal("slow call under a 30ms ctx succeeded")
	}
	if open := tel.PoolConns.Value(); open != before {
		t.Errorf("transport_pool_conns = %d after the abandoned v1 call, want %d (its connection closed)", open, before)
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

// TestOpenNegotiatesWithoutACall: Open leaves one negotiated connection
// warm in the pool and sends no request; the first call rides that very
// connection. Opening toward an address nothing answers fails, and the
// failure counts against the address's health like a failed call.
func TestOpenNegotiatesWithoutACall(t *testing.T) {
	var served atomic.Int64
	dial := startServer(t, func(s *transport.Server) {
		s.Handle("ping", func(body []byte) ([]byte, error) {
			served.Add(1)
			return nil, nil
		})
	})
	cd := &countingDial{dial: dial}
	tel := telemetry.New(nil)
	c := transport.NewClient(cd.fn()).Configure(transport.Config{Telemetry: tel, Addr: "replica"})
	defer c.Close()
	ctx := context.Background()

	if err := c.Open(ctx); err != nil {
		t.Fatalf("Open: %v", err)
	}
	if n := served.Load(); n != 0 {
		t.Errorf("Open made %d calls, want none", n)
	}
	if got := tel.Negotiations.With("v2").Value(); got != 1 {
		t.Errorf("negotiations{v2} = %d after Open, want 1", got)
	}
	if idle := c.IdleConns(); idle != 1 {
		t.Errorf("IdleConns = %d after Open, want the negotiated connection", idle)
	}
	if _, err := c.Call(ctx, "ping", nil); err != nil {
		t.Fatal(err)
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
