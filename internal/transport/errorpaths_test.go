package transport_test

// Table-driven coverage of the transport's failure paths — short reads,
// oversized length prefixes, connections dying mid-frame, stalled peers
// tripping deadlines — plus recovery: a configured RetryPolicy turning
// dropped and reset frames into completed calls. Fault behaviour is
// injected with netsim's deterministic fault conns rather than hand-rolled
// mocks.

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"globedoc/internal/netsim"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// chanListener adapts a channel of conns to net.Listener so a
// transport.Server can serve arbitrary pipe ends.
type chanListener struct {
	ch   chan net.Conn
	once sync.Once
	done chan struct{}
}

func newChanListener() *chanListener {
	return &chanListener{ch: make(chan net.Conn, 16), done: make(chan struct{})}
}

func (l *chanListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *chanListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *chanListener) Addr() net.Addr { return netsim.Addr{Name: "chan"} }

// startEcho runs an echo transport server and returns a dial function
// producing fresh pipe connections to it, optionally wrapped by wrap
// (called with the attempt number, starting at 0).
func startEcho(t *testing.T, wrap func(attempt int, c net.Conn) net.Conn) transport.DialFunc {
	t.Helper()
	srv := transport.NewServer()
	srv.Handle("echo", func(b []byte) ([]byte, error) { return b, nil })
	l := newChanListener()
	srv.Start(l)
	t.Cleanup(srv.Close)
	attempt := 0
	var mu sync.Mutex
	return func() (net.Conn, error) {
		client, server := net.Pipe()
		l.ch <- server
		mu.Lock()
		n := attempt
		attempt++
		mu.Unlock()
		if wrap != nil {
			return wrap(n, client), nil
		}
		return client, nil
	}
}

// readRequestFrame consumes the client's first flight from the raw
// server end of a pipe: it takes the hello, answers it with the hello,
// and reads the request frame behind it.
func readRequestFrame(t *testing.T, conn net.Conn) {
	t.Helper()
	var opener [4]byte
	if _, err := io.ReadFull(conn, opener[:]); err != nil {
		t.Errorf("server reading the hello: %v", err)
		return
	}
	if _, err := conn.Write(rawHello); err != nil {
		t.Errorf("server writing the answer: %v", err)
		return
	}
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Errorf("server reading request header: %v", err)
		return
	}
	payload := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(conn, payload); err != nil {
		t.Errorf("server reading request payload: %v", err)
	}
}

func TestCallErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		// misbehave drives the raw server end once the request arrives.
		misbehave func(t *testing.T, conn net.Conn)
		cfg       transport.Config
		check     func(t *testing.T, err error)
	}{
		{
			name: "oversized length prefix",
			misbehave: func(t *testing.T, conn net.Conn) {
				readRequestFrame(t, conn)
				var hdr [4]byte
				// The smallest length refused unread: a traced frame's header
				// and trace extension around a MaxFrame payload, plus one.
				binary.BigEndian.PutUint32(hdr[:], transport.MaxFrame+6+17+1)
				conn.Write(hdr[:])
			},
			check: func(t *testing.T, err error) {
				if !errors.Is(err, transport.ErrFrameTooLarge) {
					t.Fatalf("err = %v, want ErrFrameTooLarge", err)
				}
			},
		},
		{
			name: "oversized v2 length prefix",
			misbehave: func(t *testing.T, conn net.Conn) {
				readRequestFrame(t, conn)
				var hdr [4]byte
				binary.BigEndian.PutUint32(hdr[:], transport.MaxFrame+64) // past the frame header allowance too
				conn.Write(hdr[:])
			},
			check: func(t *testing.T, err error) {
				if !errors.Is(err, transport.ErrFrameTooLarge) {
					t.Fatalf("err = %v, want ErrFrameTooLarge", err)
				}
			},
		},
		{
			name: "connection closed mid-frame",
			misbehave: func(t *testing.T, conn net.Conn) {
				readRequestFrame(t, conn)
				var hdr [4]byte
				binary.BigEndian.PutUint32(hdr[:], 100)
				conn.Write(hdr[:])
				conn.Write(make([]byte, 10)) // 90 bytes short
				conn.Close()
			},
			check: func(t *testing.T, err error) {
				if !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
				}
			},
		},
		{
			name: "connection closed before response",
			misbehave: func(t *testing.T, conn net.Conn) {
				readRequestFrame(t, conn)
				conn.Close()
			},
			check: func(t *testing.T, err error) {
				if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) {
					t.Fatalf("err = %v, want EOF-ish", err)
				}
			},
		},
		{
			name: "stalled peer trips call deadline",
			misbehave: func(t *testing.T, conn net.Conn) {
				readRequestFrame(t, conn)
				// Never answer; the client's CallTimeout must fire.
			},
			cfg: transport.Config{CallTimeout: 50 * time.Millisecond},
			check: func(t *testing.T, err error) {
				if !errors.Is(err, os.ErrDeadlineExceeded) {
					t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clientEnd, serverEnd := net.Pipe()
			go tc.misbehave(t, serverEnd)
			c := transport.NewClient(func() (net.Conn, error) { return clientEnd, nil }).Configure(tc.cfg)
			defer c.Close()
			_, err := c.Call(context.Background(), "echo", []byte("payload"))
			if err == nil {
				t.Fatal("call succeeded against a misbehaving peer")
			}
			if !transport.Retryable(err) {
				t.Errorf("error %v should be classified retryable", err)
			}
			tc.check(t, err)
		})
	}
}

func TestRetryRecoversFromDroppedRequest(t *testing.T) {
	// The first connection silently drops every frame; the redialled
	// second connection is clean. With a deadline and retry policy the
	// call must succeed on attempt two.
	dial := startEcho(t, func(attempt int, c net.Conn) net.Conn {
		if attempt == 0 {
			return netsim.NewFaultConn(c, netsim.FaultPlan{DropProb: 1}, 1, nil)
		}
		return c
	})
	tel := telemetry.New(nil)
	c := transport.NewClient(dial).Configure(transport.Config{
		CallTimeout: 100 * time.Millisecond,
		Retry:       &transport.RetryPolicy{MaxAttempts: 3},
		Telemetry:   tel,
	})
	defer c.Close()
	resp, err := c.Call(context.Background(), "echo", []byte("hello"))
	if err != nil {
		t.Fatalf("call did not recover from dropped request: %v", err)
	}
	if string(resp) != "hello" {
		t.Fatalf("resp = %q", resp)
	}
	if got := tel.RPCRetries.Value(); got == 0 {
		t.Error("no retry was recorded in rpc_retries_total")
	}
}

func TestRetryRecoversFromMidStreamReset(t *testing.T) {
	dial := startEcho(t, func(attempt int, c net.Conn) net.Conn {
		if attempt == 0 {
			return netsim.NewFaultConn(c, netsim.FaultPlan{ResetAfterBytes: 4}, 1, nil)
		}
		return c
	})
	c := transport.NewClient(dial).Configure(transport.Config{
		CallTimeout: 100 * time.Millisecond,
		Retry:       &transport.RetryPolicy{MaxAttempts: 3},
	})
	defer c.Close()
	resp, err := c.Call(context.Background(), "echo", []byte("survive the reset"))
	if err != nil {
		t.Fatalf("call did not recover from reset: %v", err)
	}
	if string(resp) != "survive the reset" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestRetryGivesUpCleanlyWithNoHonestPeer(t *testing.T) {
	// Every connection drops every frame: the call must fail with a
	// bounded number of attempts, not hang.
	dial := startEcho(t, func(attempt int, c net.Conn) net.Conn {
		return netsim.NewFaultConn(c, netsim.FaultPlan{DropProb: 1}, int64(attempt), nil)
	})
	c := transport.NewClient(dial).Configure(transport.Config{
		CallTimeout: 30 * time.Millisecond,
		Retry:       &transport.RetryPolicy{MaxAttempts: 3},
	})
	defer c.Close()
	start := time.Now()
	_, err := c.Call(context.Background(), "echo", []byte("void"))
	if err == nil {
		t.Fatal("call succeeded with every frame dropped")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("bounded failure took %v", elapsed)
	}
}

func TestServerIdleTimeoutDropsStalledConn(t *testing.T) {
	srv := transport.NewServer()
	srv.IdleTimeout = 50 * time.Millisecond
	srv.Handle("echo", func(b []byte) ([]byte, error) { return b, nil })
	l := newChanListener()
	srv.Start(l)
	t.Cleanup(srv.Close)

	client, server := net.Pipe()
	l.ch <- server
	// Say nothing: the server must hang up on its own.
	client.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	_, err := client.Read(buf)
	if err == nil {
		t.Fatal("read returned data from an idle server")
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("server kept the stalled connection open past its idle timeout")
	}
}
