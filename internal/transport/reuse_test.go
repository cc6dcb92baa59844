package transport_test

// What the transport reuses between calls, and what that must never
// change: a stream's result channel goes back for reuse only once its
// caller received the reply, so a reply that lands after its caller gave
// up reaches no other call; a finished call leaves no timer behind; and
// a warm connection's call allocates only the frames it reads and the
// handler's goroutine.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"globedoc/internal/alloctest"
	"globedoc/internal/clock"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// deliveryConn is a client connection that reports when its read loop
// comes back for more after reading up to a byte mark: by then the frame
// that ends at the mark has been handed to its stream.
type deliveryConn struct {
	net.Conn
	reached chan struct{}

	mu   sync.Mutex
	read int // bytes the read loop has read
	mark int // when positive, report the first Read that starts at or past it
}

func (c *deliveryConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.mark > 0 && c.read >= c.mark {
		c.mark = 0
		c.reached <- struct{}{}
	}
	c.mu.Unlock()
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.read += n
	c.mu.Unlock()
	return n, err
}

// expect sets the mark n bytes past what the read loop has read.
func (c *deliveryConn) expect(n int) {
	c.mu.Lock()
	c.mark = c.read + n
	c.mu.Unlock()
}

// echoReplyLen is the size on the wire of an untraced echo reply
// carrying body (under 128 bytes): length prefix, frame header, status,
// empty error string, body length and body.
func echoReplyLen(body string) int { return 4 + 6 + 1 + 1 + 1 + len(body) }

// expiringClock is the real clock, except that NewTimer can be armed
// once to wait for an event and then return a timer that has already
// fired: a call's CallTimeout expires at the moment its reply lands.
type expiringClock struct {
	armed chan (<-chan struct{}) // the event the next NewTimer waits for
}

func (c *expiringClock) Now() time.Time                         { return time.Now() }
func (c *expiringClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (c *expiringClock) After(d time.Duration) <-chan time.Time { return c.NewTimer(d).Chan() }

func (c *expiringClock) NewTimer(d time.Duration) clock.Timer {
	select {
	case event := <-c.armed:
		<-event
		fired := make(firedTimer, 1)
		fired <- time.Now()
		return fired
	default:
		return clock.Real.NewTimer(d)
	}
}

// firedTimer is a timer that fired when it was made.
type firedTimer chan time.Time

func (t firedTimer) Chan() <-chan time.Time { return t }
func (t firedTimer) Stop() bool             { return false }

// TestLateReplyNeverReachesAnotherCall abandons calls by CallTimeout on
// one connection in the two ways a reply can come late: long after the
// caller gave up (the read loop finds no stream for it and drops it),
// and at the very moment the timeout fires, when the reply already sits
// in the abandoned stream's channel and the caller's select may take
// either. Every later call on the connection must get exactly its own
// reply — which fails if an abandoned stream's channel were reused, as
// the second way leaves a reply in it.
func TestLateReplyNeverReachesAnotherCall(t *testing.T) {
	release := make(chan struct{})
	parked := make(chan struct{}, 1)
	dial := startServer(t, func(s *transport.Server) {
		s.Handle("echo", func(b []byte) ([]byte, error) { return b, nil })
		s.Handle("park", func(b []byte) ([]byte, error) {
			parked <- struct{}{}
			<-release
			return b, nil
		})
	})
	var dials atomic.Int64
	var dc *deliveryConn
	c := transport.NewClient(func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		dials.Add(1)
		dc = &deliveryConn{Conn: conn, reached: make(chan struct{}, 1)}
		return dc, nil
	}).Configure(transport.Config{
		CallTimeout: time.Minute,
		Retry:       &transport.RetryPolicy{MaxAttempts: 1}, // an abandoned call stays abandoned
		Telemetry:   telemetry.New(nil),
	})
	clk := &expiringClock{armed: make(chan (<-chan struct{}), 1)}
	c.Clock = clk
	c.Pool = transport.PoolConfig{MaxConns: 1}
	defer c.Close()
	ctx := context.Background()

	// own checks that a call gets exactly the reply to its own body.
	own := func(body string) {
		t.Helper()
		resp, err := c.Call(ctx, "echo", []byte(body))
		if err != nil || string(resp) != body {
			t.Fatalf("call %q got %q, %v; want its own reply", body, resp, err)
		}
	}
	own("warm-up") // proves the connection: an abandoned call on it leaves it pooled

	// A reply long after the timeout.
	now := make(chan struct{})
	close(now)
	clk.armed <- now
	dc.expect(echoReplyLen("late"))
	if _, err := c.Call(ctx, "park", []byte("late")); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("parked call: %v, want its CallTimeout", err)
	}
	<-parked
	close(release)
	<-dc.reached // the read loop has read the late reply and come back for more
	for i := 0; i < 4; i++ {
		own(fmt.Sprintf("after-late-%d", i))
	}

	// A reply at the moment of the timeout.
	abandoned := 0
	for i := 0; i < 32; i++ {
		body := fmt.Sprintf("race-%02d", i)
		dc.expect(echoReplyLen(body))
		clk.armed <- dc.reached
		resp, err := c.Call(ctx, "echo", []byte(body))
		switch {
		case errors.Is(err, os.ErrDeadlineExceeded):
			abandoned++
		case err != nil || string(resp) != body:
			t.Fatalf("call %q got %q, %v; want its own reply or its timeout", body, resp, err)
		}
		own(fmt.Sprintf("check-%02d", i))
	}
	t.Logf("%d of 32 calls whose reply and timeout came together were abandoned", abandoned)
	if got := dials.Load(); got != 1 {
		t.Errorf("dialled %d connections, want 1: an abandoned stream leaves its connection pooled", got)
	}
}

// warmCall returns one echo call on a client whose connection to an
// in-process server over a pipe is already open, and the client.
func warmCall(tb testing.TB) func() {
	srv := transport.NewServer()
	srv.Telemetry = telemetry.New(nil)
	srv.Handle("echo", func(b []byte) ([]byte, error) { return b, nil })
	l := newChanListener()
	srv.Start(l)
	tb.Cleanup(srv.Close)
	c := transport.NewClient(func() (net.Conn, error) {
		client, server := net.Pipe()
		l.ch <- server
		return client, nil
	}).Configure(transport.Config{Telemetry: telemetry.New(nil)})
	tb.Cleanup(c.Close)
	ctx, body := context.Background(), []byte("a warm call")
	call := func() {
		if resp, err := c.Call(ctx, "echo", body); err != nil || len(resp) != len(body) {
			tb.Fatalf("echo: %q, %v", resp, err)
		}
	}
	call()
	return call
}

// warmCallAllocBudget is the heap objects of one call on a warm
// connection, both sides of it, with go1.24 on linux/amd64: the frame
// each side reads and the handler's goroutine — 3, where 2 % more rounds
// to none. The rpc.call and the plain handler's rpc.serve spans are
// leaves on their goroutines' stacks, no context is built for a plain
// handler, its operation is looked up by its bytes, the frames written
// come from a pool, the result channel is reused and a plain handler's
// reply is framed from the serving goroutine's stack, so none of them
// counts.
const warmCallAllocBudget = 3

func TestWarmCallAllocationBudget(t *testing.T) {
	call := warmCall(t)
	got := alloctest.AllocsPerRun(t, 200, call)
	t.Logf("a warm call: %.1f allocs", got)
	if got > warmCallAllocBudget {
		t.Errorf("a warm call allocates %.1f objects, budget %d", got, warmCallAllocBudget)
	}
}

// BenchmarkWarmCall is one call on a warm connection, both sides: go
// test -run '^$' -bench WarmCall ./internal/transport/ prints its ns/op
// and allocs/op.
func BenchmarkWarmCall(b *testing.B) {
	call := warmCall(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
}

// TestFinishedCallLeavesNoTimer: a call bounded by CallTimeout stops its
// timer when the reply arrives, so however many calls finish, none
// leaves a timer pending until its timeout would have come.
func TestFinishedCallLeavesNoTimer(t *testing.T) {
	dial := startServer(t, func(s *transport.Server) {
		s.Handle("echo", func(b []byte) ([]byte, error) { return b, nil })
	})
	fake := clock.NewFake(time.Now()) // the write deadline is set on a real socket
	c := transport.NewClient(dial).Configure(transport.Config{CallTimeout: 10 * time.Second, Telemetry: telemetry.New(nil)})
	c.Clock = fake
	defer c.Close()
	for i := 0; i < 8; i++ {
		if _, err := c.Call(context.Background(), "echo", []byte("timed")); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if n := fake.Waiters(); n != 0 {
			t.Fatalf("after call %d, %d timers are pending, want 0", i, n)
		}
	}
}
