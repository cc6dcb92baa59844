package transport_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"globedoc/internal/alloctest"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// startServer launches a transport server on a real loopback listener and
// returns a dialer for it plus a cleanup-registered server.
func startServer(t *testing.T, setup func(*transport.Server)) transport.DialFunc {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := transport.NewServer()
	setup(srv)
	srv.Start(l)
	t.Cleanup(srv.Close)
	addr := l.Addr().String()
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

func TestCallRoundTrip(t *testing.T) {
	dial := startServer(t, func(s *transport.Server) {
		s.Handle("echo", func(body []byte) ([]byte, error) {
			return append([]byte("echo:"), body...), nil
		})
	})
	c := transport.NewClient(dial)
	defer c.Close()
	resp, err := c.Call(context.Background(), "echo", []byte("hello"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if !bytes.Equal(resp, []byte("echo:hello")) {
		t.Errorf("resp = %q", resp)
	}
}

func TestCallCancelledCtxDoesNotRecordHealthFailure(t *testing.T) {
	// A cancelled or expired caller context says nothing about the
	// replica: a burst of cancelled requests must not raise a healthy
	// address's consecutive-failure count and demote it in failover
	// ordering.
	tel := telemetry.New(nil)
	dial := startServer(t, func(s *transport.Server) {
		s.Handle("echo", func(body []byte) ([]byte, error) { return body, nil })
	})
	const addr = "paris:objsvc"
	c := transport.NewClient(dial).Configure(transport.Config{Telemetry: tel, Addr: addr})
	defer c.Close()
	if _, err := c.Call(context.Background(), "echo", []byte("x")); err != nil {
		t.Fatalf("seeding call: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Call(ctx, "echo", nil); err == nil {
		t.Fatal("call with cancelled ctx succeeded")
	}
	h, ok := tel.Health.Lookup(addr)
	if !ok {
		t.Fatalf("no health state recorded for %q", addr)
	}
	if h.ConsecutiveFailures != 0 {
		t.Errorf("cancelled call recorded %d consecutive failures, want 0", h.ConsecutiveFailures)
	}
	if h.Samples != 1 {
		t.Errorf("samples = %d, want 1 (the successful seeding call only)", h.Samples)
	}
}

func TestRemoteError(t *testing.T) {
	dial := startServer(t, func(s *transport.Server) {
		s.Handle("fail", func(body []byte) ([]byte, error) {
			return nil, errors.New("deliberate failure")
		})
	})
	c := transport.NewClient(dial)
	defer c.Close()
	_, err := c.Call(context.Background(), "fail", nil)
	var remote *transport.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if remote.Op != "fail" || remote.Message != "deliberate failure" {
		t.Errorf("remote = %+v", remote)
	}
}

// TestUnknownOperation: an unregistered operation is refused with a plain
// remote error, and the client remembers nothing of it — the next call
// of the same operation is asked again.
func TestUnknownOperation(t *testing.T) {
	dial := startServer(t, func(s *transport.Server) {})
	c := transport.NewClient(dial)
	defer c.Close()
	for i := 0; i < 2; i++ {
		sent := c.BytesSent.Load()
		_, err := c.Call(context.Background(), "nonexistent", nil)
		var remote *transport.RemoteError
		if !errors.As(err, &remote) {
			t.Fatalf("call %d: err = %v, want RemoteError", i, err)
		}
		if want := `unknown operation "nonexistent"`; remote.Message != want {
			t.Errorf("call %d: message = %q, want %q", i, remote.Message, want)
		}
		if c.BytesSent.Load() == sent {
			t.Errorf("call %d of a refused operation sent nothing, want it asked again", i)
		}
	}
}

func TestConnectionReuse(t *testing.T) {
	var mu sync.Mutex
	conns := 0
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer()
	srv.Handle("ping", func(body []byte) ([]byte, error) { return []byte("pong"), nil })
	srv.Start(l)
	t.Cleanup(srv.Close)
	addr := l.Addr().String()
	c := transport.NewClient(func() (net.Conn, error) {
		mu.Lock()
		conns++
		mu.Unlock()
		return net.Dial("tcp", addr)
	})
	defer c.Close()
	for i := 0; i < 5; i++ {
		if _, err := c.Call(context.Background(), "ping", nil); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if conns != 1 {
		t.Errorf("dialed %d times, want 1", conns)
	}
	if c.Calls.Load() != 5 {
		t.Errorf("Calls = %d, want 5", c.Calls.Load())
	}
}

func TestRedialAfterServerRestart(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	srv := transport.NewServer()
	srv.Handle("ping", func(body []byte) ([]byte, error) { return []byte("pong"), nil })
	srv.Start(l)

	c := transport.NewClient(func() (net.Conn, error) { return net.Dial("tcp", addr) })
	defer c.Close()
	if _, err := c.Call(context.Background(), "ping", nil); err != nil {
		t.Fatalf("first call: %v", err)
	}

	// Restart the server on the same port; the pooled connection dies.
	srv.Close()
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	srv2 := transport.NewServer()
	srv2.Handle("ping", func(body []byte) ([]byte, error) { return []byte("pong2"), nil })
	srv2.Start(l2)
	t.Cleanup(srv2.Close)

	resp, err := c.Call(context.Background(), "ping", nil)
	if err != nil {
		t.Fatalf("call after restart: %v", err)
	}
	if !bytes.Equal(resp, []byte("pong2")) {
		t.Errorf("resp = %q", resp)
	}
}

func TestLargeBody(t *testing.T) {
	dial := startServer(t, func(s *transport.Server) {
		s.Handle("size", func(body []byte) ([]byte, error) {
			return []byte(fmt.Sprint(len(body))), nil
		})
	})
	c := transport.NewClient(dial)
	defer c.Close()
	body := make([]byte, 1<<20)
	resp, err := c.Call(context.Background(), "size", body)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(resp) != fmt.Sprint(len(body)) {
		t.Errorf("resp = %s", resp)
	}
}

func TestConcurrentCallers(t *testing.T) {
	dial := startServer(t, func(s *transport.Server) {
		s.Handle("echo", func(body []byte) ([]byte, error) { return body, nil })
	})
	c := transport.NewClient(dial)
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("msg-%d", i))
			resp, err := c.Call(context.Background(), "echo", msg)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(resp, msg) {
				errs <- fmt.Errorf("resp %q for %q", resp, msg)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// countingConn counts every byte that crosses one client connection.
type countingConn struct {
	net.Conn
	sent, received *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.received.Add(int64(n))
	return n, err
}

// TestByteCounters holds BytesSent and BytesReceived to what a counting
// connection saw: every frame byte, headers and the v2 trace extension
// included, on v1 and v2, traced and untraced. The first call is a
// warm-up, except in the first-flight row: there the negotiation
// preamble shares the first frame's write and the accept precedes its
// response, and neither is a frame, so each side counts 4 bytes fewer
// than the connection carried.
func TestByteCounters(t *testing.T) {
	for _, tc := range []struct {
		name        string
		version     byte
		traced      bool
		firstFlight bool
	}{
		{"v2 untraced", transport.V2, false, false},
		{"v2 traced", transport.V2, true, false},
		{"v1 untraced", transport.V1, false, false},
		{"v1 traced", transport.V1, true, false}, // v1 carries no context: same bytes
		{"v2 first flight", transport.V2, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tel := telemetry.New(nil)
			dial := startServer(t, func(s *transport.Server) {
				s.Telemetry = tel
				s.Handle("echo", func(body []byte) ([]byte, error) { return body, nil })
			})
			var sent, received atomic.Int64
			c := transport.NewClient(func() (net.Conn, error) {
				conn, err := dial()
				if err != nil {
					return nil, err
				}
				return countingConn{Conn: conn, sent: &sent, received: &received}, nil
			}).Configure(transport.Config{Telemetry: tel, Version: tc.version})
			defer c.Close()

			ctx := context.Background()
			if tc.traced {
				root := tel.Tracer.StartSpan("test.root")
				defer root.End()
				ctx = telemetry.ContextWith(ctx, root)
			}
			var preamble int64
			if tc.firstFlight {
				preamble = 4
			} else if _, err := c.Call(ctx, "echo", []byte("warm-up")); err != nil {
				t.Fatal(err)
			}
			sent0, received0 := sent.Load(), received.Load()
			counted0, countedRecv0 := c.BytesSent.Load(), c.BytesReceived.Load()
			for _, size := range []int{0, 1000, 100 << 10} {
				if _, err := c.Call(ctx, "echo", make([]byte, size)); err != nil {
					t.Fatal(err)
				}
			}
			wire, counted := sent.Load()-sent0-preamble, c.BytesSent.Load()-counted0
			if uint64(wire) != counted || wire < 101000 {
				t.Errorf("BytesSent grew by %d, the connection carried %d", counted, wire)
			}
			wire, counted = received.Load()-received0-preamble, c.BytesReceived.Load()-countedRecv0
			if uint64(wire) != counted || wire < 101000 {
				t.Errorf("BytesReceived grew by %d, the connection carried %d", counted, wire)
			}
		})
	}
}

// TestLargeCallAllocatesOnePayload pins the transport layer's copy
// budget: a 1 MiB response crosses client and server for one payload's
// worth of allocation — the client's frame buffer. The server sends the
// handler's bytes from where they lie.
func TestLargeCallAllocatesOnePayload(t *testing.T) {
	const size = 1 << 20
	payload := make([]byte, size)
	for _, version := range []byte{transport.V1, transport.V2} {
		dial := startServer(t, func(s *transport.Server) {
			s.Handle("get", func([]byte) ([]byte, error) { return payload, nil })
		})
		c := transport.NewClient(dial).Configure(transport.Config{Version: version})
		t.Cleanup(c.Close)
		perCall := alloctest.BytesPerRun(t, 20, func() {
			resp, err := c.Call(context.Background(), "get", nil)
			if err != nil || len(resp) != size {
				t.Fatalf("v%d: %d bytes, err %v", version, len(resp), err)
			}
		})
		if ratio := perCall / size; ratio > 1.05 {
			t.Errorf("v%d: %.0f bytes allocated per 1 MiB call (%.2f per payload byte), want <= 1.05", version, perCall, ratio)
		}
	}
}

// TestLargeRequestAllocatesOnePayload pins the request direction's copy
// budget: a 1 MiB request body crosses client and server for one
// payload's worth of allocation — the server's frame buffer. The client
// sends the caller's bytes from where they lie.
func TestLargeRequestAllocatesOnePayload(t *testing.T) {
	const size = 1 << 20
	body := make([]byte, size)
	for _, version := range []byte{transport.V1, transport.V2} {
		dial := startServer(t, func(s *transport.Server) {
			s.Handle("put", func(b []byte) ([]byte, error) {
				if len(b) != size {
					return nil, fmt.Errorf("got %d bytes", len(b))
				}
				return nil, nil
			})
		})
		c := transport.NewClient(dial).Configure(transport.Config{Version: version})
		t.Cleanup(c.Close)
		perCall := alloctest.BytesPerRun(t, 20, func() {
			if _, err := c.Call(context.Background(), "put", body); err != nil {
				t.Fatalf("v%d: %v", version, err)
			}
		})
		if ratio := perCall / size; ratio > 1.05 {
			t.Errorf("v%d: %.0f bytes allocated per 1 MiB request (%.2f per payload byte), want <= 1.05", version, perCall, ratio)
		}
	}
}

func TestDialFailure(t *testing.T) {
	c := transport.NewClient(func() (net.Conn, error) {
		return nil, errors.New("network unreachable")
	})
	if _, err := c.Call(context.Background(), "ping", nil); err == nil {
		t.Fatal("Call succeeded with failing dialer")
	}
}

func TestQuickEchoArbitraryBytes(t *testing.T) {
	dial := startServer(t, func(s *transport.Server) {
		s.Handle("echo", func(body []byte) ([]byte, error) { return body, nil })
	})
	c := transport.NewClient(dial)
	defer c.Close()
	f := func(body []byte) bool {
		resp, err := c.Call(context.Background(), "echo", body)
		return err == nil && bytes.Equal(resp, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOpsListing(t *testing.T) {
	srv := transport.NewServer()
	srv.Handle("a", func([]byte) ([]byte, error) { return nil, nil })
	srv.Handle("b", func([]byte) ([]byte, error) { return nil, nil })
	ops := srv.Ops()
	if len(ops) != 2 {
		t.Errorf("Ops = %v", ops)
	}
}

func TestServerRequestCounter(t *testing.T) {
	var srv *transport.Server
	dial := startServer(t, func(s *transport.Server) {
		srv = s
		s.Handle("ping", func(body []byte) ([]byte, error) { return nil, nil })
	})
	c := transport.NewClient(dial)
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Call(context.Background(), "ping", nil); err != nil {
			t.Fatal(err)
		}
	}
	if srv.Requests.Load() != 3 {
		t.Errorf("Requests = %d, want 3", srv.Requests.Load())
	}
}
