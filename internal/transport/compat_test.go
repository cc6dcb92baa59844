package transport_test

// The hello matrix. Nothing is negotiated: a connection opens with one
// fixed 4-byte hello and the server answers with the same bytes. A
// server drops a connection that opens with anything else — a classic
// frame, an opener naming another version — unanswered. Against a peer
// that hangs up on the hello or answers anything but the hello, a
// client's call fails as an ordinary, retryable failure, the request
// runs nowhere, and nothing is latched: the next call dials afresh. A
// hello sent again mid-connection is refused by dropping the connection,
// in both directions.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"globedoc/internal/enc"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// rawHello is the 4-byte hello that opens a connection and answers it,
// as raw bytes (the tests below speak the wire format by hand).
var rawHello = []byte{'G', 'D', 0xF2, 2}

// classicRequest is an echo request in the retired classic framing: a
// length prefix and op‖body, nothing naming a stream.
func classicRequest(body string) []byte {
	w := enc.NewWriter(16 + len(body))
	w.String("echo")
	w.BytesPrefixed([]byte(body))
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(w.Bytes()))), w.Bytes()...)
}

// TestServerRefusesPreV2Openers: a server answers only the hello. A
// connection that opens with a classic frame, or with an opener naming
// version 1 or 0 in front of one, is not the hello and is dropped before
// a frame is read: no handler runs, no request is counted and no byte
// comes back.
func TestServerRefusesPreV2Openers(t *testing.T) {
	classic := classicRequest("refuse me")
	for _, tc := range []struct {
		name   string
		opener []byte
	}{
		{"classic frame", classic},
		{"version 1 preamble", append([]byte{'G', 'D', 0xF2, 1}, classic...)},
		{"version 0 preamble", append([]byte{'G', 'D', 0xF2, 0}, classic...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tel := telemetry.New(nil)
			var runs atomic.Int64
			dial := startServer(t, func(s *transport.Server) {
				s.Telemetry = tel
				s.Handle("echo", func(b []byte) ([]byte, error) {
					runs.Add(1)
					return b, nil
				})
			})
			conn, err := dial()
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.opener); err != nil {
				t.Fatal(err)
			}
			if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			// A clean close reads as EOF (nil here), a close with unread
			// bytes as a reset; either way the connection is gone.
			reply, err := io.ReadAll(conn)
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("server kept the connection open after %q (answered %x)", tc.opener, reply)
			}
			if len(reply) != 0 {
				t.Errorf("server answered %x, want no byte", reply)
			}
			if got := runs.Load(); got != 0 {
				t.Errorf("handler ran %d times, want 0", got)
			}
			if got := tel.RPCServed.Total(); got != 0 {
				t.Errorf("rpc_served_total = %d, want 0", got)
			}
		})
	}
}

func TestCompatAutoClientOldServer(t *testing.T) {
	// A server that predates the hello reads it as an oversized classic
	// length header and hangs up. The client fails each call there and
	// latches nothing: every call dials afresh, and no classic request
	// ever reaches the server.
	t.Run("v2", func(t *testing.T) {
		tel := telemetry.New(nil)
		dial, dispatched := strictOldServer(t)
		cd := &countingDial{dial: dial}
		c := transport.NewClient(cd.fn()).Configure(transport.Config{Telemetry: tel})
		defer c.Close()
		const calls = 3
		for i := 0; i < calls; i++ {
			_, err := c.Call(context.Background(), "echo", []byte("old"))
			if err == nil {
				t.Fatalf("call %d succeeded against a server that does not answer the hello", i)
			}
			if !transport.Retryable(err) {
				t.Fatalf("call %d: err = %v, want an ordinary retryable connection failure", i, err)
			}
		}
		if got := cd.count.Load(); got != calls {
			t.Errorf("dials = %d, want %d (each call dials afresh)", got, calls)
		}
		if got := dispatched.Load(); got != 0 {
			t.Errorf("the old server dispatched %d requests, want 0", got)
		}
		if got := tel.PoolDials.Value(); got != calls {
			t.Errorf("transport_pool_dials_total = %d, want %d", got, calls)
		}
	})
}

func TestCompatAutoClientNewServer(t *testing.T) {
	// Both sides exchange the hello once, then every concurrent call
	// multiplexes onto the single connection.
	clientTel := telemetry.New(nil)
	serverTel := telemetry.New(nil)
	release := make(chan struct{})
	arrived := make(chan struct{}, 16)
	dial := startServer(t, func(s *transport.Server) {
		s.Telemetry = serverTel
		s.Handle("park", func(b []byte) ([]byte, error) {
			arrived <- struct{}{}
			<-release
			return []byte("ok"), nil
		})
	})
	cd := &countingDial{dial: dial}
	c := transport.NewClient(cd.fn()).Configure(transport.Config{Telemetry: clientTel})
	defer c.Close()

	const calls = 8
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
		<-arrived // all calls are in flight simultaneously
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := cd.count.Load(); got != 1 {
		t.Errorf("%d concurrent calls dialed %d conns, want 1 (multiplexed)", calls, got)
	}
	if got := clientTel.PoolDials.Value(); got != 1 {
		t.Errorf("transport_pool_dials_total = %d, want 1", got)
	}
	if got := serverTel.RPCServed.With("park", "ok").Value(); got != calls {
		t.Errorf("server rpc_served_total{park,ok} = %d, want %d", got, calls)
	}
	if got := clientTel.StreamsOpened.Value(); got != calls {
		t.Errorf("transport_streams_opened_total = %d, want %d", got, calls)
	}
}

func TestCompatEarlyFrame(t *testing.T) {
	// A new connection's first request rides behind the hello. A peer
	// that predates the hello hangs up on it and runs none of the
	// request, and the call fails on that one dial as any dropped
	// connection does.
	t.Run("pre-v2 hang-up", func(t *testing.T) {
		dial, dispatched := strictOldServer(t)
		cd := &countingDial{dial: dial}
		c := transport.NewClient(cd.fn())
		defer c.Close()
		_, err := c.Call(context.Background(), "echo", []byte("early"))
		if err == nil {
			t.Fatal("the first flight succeeded against a peer that does not answer the hello")
		}
		if !transport.Retryable(err) {
			t.Errorf("err = %v, want it retryable", err)
		}
		if got := cd.count.Load(); got != 1 {
			t.Errorf("dials = %d, want 1", got)
		}
		if got := dispatched.Load(); got != 0 {
			t.Errorf("requests dispatched = %d, want 0", got)
		}
	})
}

// TestWrongAnswerFailsRetryably: a peer that answers the hello with
// anything but the hello — an answer naming version 1, 0 or 3, or bytes
// of another protocol — fails the call with ErrProtocol, retryably,
// however well-formed a response it sends behind the answer. No handler
// runs, nothing is latched, and the next call dials afresh and succeeds
// against a server that answers the hello.
func TestWrongAnswerFailsRetryably(t *testing.T) {
	for _, tc := range []struct {
		name   string
		answer []byte
	}{
		{"version 1", []byte{'G', 'D', 0xF2, 1}},
		{"version 0", []byte{'G', 'D', 0xF2, 0}},
		{"version 3", []byte{'G', 'D', 0xF2, 3}},
		{"another protocol", []byte("HTTP")},
	} {
		answer := tc.answer
		t.Run(tc.name, func(t *testing.T) {
			var runs atomic.Int64
			good := startServer(t, func(s *transport.Server) {
				s.Handle("echo", func(b []byte) ([]byte, error) {
					runs.Add(1)
					return b, nil
				})
			})
			var dials atomic.Int64
			c := transport.NewClient(func() (net.Conn, error) {
				if dials.Add(1) > 1 {
					return good()
				}
				client, peer := net.Pipe()
				go wrongAnswerPeer(peer, answer)
				return client, nil
			})
			defer c.Close()

			_, err := c.Call(context.Background(), "echo", []byte("first"))
			if err == nil {
				t.Fatalf("call succeeded behind the answer %x", answer)
			}
			if !errors.Is(err, transport.ErrProtocol) || !transport.Retryable(err) {
				t.Fatalf("err = %v, want a retryable ErrProtocol", err)
			}
			if got := runs.Load(); got != 0 {
				t.Errorf("handler ran %d times after the wrong answer, want 0", got)
			}
			if got := dials.Load(); got != 1 {
				t.Errorf("dials = %d after the failed call, want 1", got)
			}
			if resp, err := c.Call(context.Background(), "echo", []byte("next")); err != nil || string(resp) != "next" {
				t.Fatalf("next call = %q, %v", resp, err)
			}
			if got := dials.Load(); got != 2 {
				t.Errorf("dials = %d, want 2 (the next call dials afresh)", got)
			}
			if got := runs.Load(); got != 1 {
				t.Errorf("handler ran %d times, want 1", got)
			}
		})
	}
}

// wrongAnswerPeer reads a client's first flight, answers it with answer
// and a well-formed response to the flight's request, and reads on until
// the client hangs up.
func wrongAnswerPeer(conn net.Conn, answer []byte) {
	defer conn.Close()
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(conn, hdr); err != nil {
		return
	}
	frame := make([]byte, binary.BigEndian.Uint32(hdr[4:]))
	if _, err := io.ReadFull(conn, frame); err != nil {
		return
	}
	if _, err := conn.Write(append(append([]byte{}, answer...), response(binary.BigEndian.Uint32(frame[2:6]), []byte("first"))...)); err != nil {
		return
	}
	io.Copy(io.Discard, conn)
}

// response frames body as the response to stream id.
func response(id uint32, body []byte) []byte {
	w := enc.NewWriter(16 + len(body))
	w.Byte(0)
	w.String("")
	w.BytesPrefixed(body)
	env := w.Bytes()
	out := binary.BigEndian.AppendUint32(nil, uint32(6+len(env)))
	out = append(out, 2, 0) // response, no flags
	out = binary.BigEndian.AppendUint32(out, id)
	return append(out, env...)
}

func TestFirstFlightDoesNotDeadlockAPreambleReader(t *testing.T) {
	// A peer that reads exactly the 4-byte hello and answers it before
	// reading on, over an unbuffered pipe, while the first request is
	// 64 KiB: the client's write of the first flight blocks until the
	// peer reads it, so the answer must be taken by a reader that runs
	// beside that write.
	clientEnd, serverEnd := net.Pipe()
	defer serverEnd.Close()
	body := bytes.Repeat([]byte("x"), 64<<10)
	go func() {
		pre := make([]byte, 4)
		if _, err := io.ReadFull(serverEnd, pre); err != nil {
			return
		}
		if _, err := serverEnd.Write(rawHello); err != nil {
			return
		}
		hdr := make([]byte, 4)
		if _, err := io.ReadFull(serverEnd, hdr); err != nil {
			return
		}
		frame := make([]byte, binary.BigEndian.Uint32(hdr))
		if _, err := io.ReadFull(serverEnd, frame); err != nil {
			return
		}
		serverEnd.Write(response(binary.BigEndian.Uint32(frame[2:6]), []byte("got it")))
	}()
	c := transport.NewClient(func() (net.Conn, error) { return clientEnd, nil }).
		Configure(transport.Config{CallTimeout: 10 * time.Second})
	defer c.Close()
	resp, err := c.Call(context.Background(), "echo", body)
	if err != nil || string(resp) != "got it" {
		t.Fatalf("call = %q, %v", resp, err)
	}
}

// resetFirstDial returns a dialer whose first connection's peer takes
// the first flight and resets before any answer, and whose later
// connections reach srv. It counts the dials.
func resetFirstDial(t *testing.T, srv *transport.Server) (transport.DialFunc, *atomic.Int64) {
	t.Helper()
	l := newChanListener()
	srv.Start(l)
	t.Cleanup(srv.Close)
	var dials atomic.Int64
	return func() (net.Conn, error) {
		client, server := net.Pipe()
		if dials.Add(1) == 1 {
			go func() {
				io.ReadAtLeast(server, make([]byte, 512), 4)
				server.Close()
			}()
		} else {
			l.ch <- server
		}
		return client, nil
	}, &dials
}

func TestFirstFlightResetBeforeAcceptIsAResend(t *testing.T) {
	// The first connection's peer takes the first flight and resets
	// before any answer. That is an ordinary failed attempt: the retry
	// policy resends the request once, on a freshly dialled connection,
	// counts that retry, and the handler runs once.
	var served atomic.Int64
	srv := transport.NewServer()
	srv.Handle("echo", func(b []byte) ([]byte, error) {
		served.Add(1)
		return b, nil
	})
	dial, dials := resetFirstDial(t, srv)
	tel := telemetry.New(nil)
	c := transport.NewClient(dial).Configure(transport.Config{
		Telemetry: tel,
		Retry:     &transport.RetryPolicy{MaxAttempts: 3},
	})
	defer c.Close()
	if resp, err := c.Call(context.Background(), "echo", []byte("again")); err != nil || string(resp) != "again" {
		t.Fatalf("call = %q, %v", resp, err)
	}
	if got := dials.Load(); got != 2 {
		t.Errorf("dials = %d, want 2", got)
	}
	if got := served.Load(); got != 1 {
		t.Errorf("handler ran %d times, want 1", got)
	}
	if got := tel.RPCRetries.Value(); got != 1 {
		t.Errorf("rpc_retries_total = %d, want 1", got)
	}
	if got := tel.PoolDials.Value(); got != 2 {
		t.Errorf("transport_pool_dials_total = %d, want 2 (the retry dialled afresh)", got)
	}
}

func TestResetBeforeAcceptLatchesNothing(t *testing.T) {
	// One reset before the answer must not change how the client makes
	// its later calls: concurrent calls after it share one connection, as they do on a client that never saw a reset
	// (TestCompatAutoClientNewServer).
	release := make(chan struct{})
	arrived := make(chan struct{}, 8)
	srv := transport.NewServer()
	srv.Handle("echo", func(b []byte) ([]byte, error) { return b, nil })
	srv.Handle("park", func([]byte) ([]byte, error) {
		arrived <- struct{}{}
		<-release
		return []byte("ok"), nil
	})
	dial, dials := resetFirstDial(t, srv)
	tel := telemetry.New(nil)
	c := transport.NewClient(dial).Configure(transport.Config{Telemetry: tel})
	defer c.Close()

	// Its outcome is TestFirstFlightResetBeforeAcceptIsAResend's concern.
	_, _ = c.Call(context.Background(), "echo", []byte("reset"))
	before := dials.Load()

	const calls = 4
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
		<-arrived // all calls are in flight simultaneously
	}
	inUse := c.ConnsInUse()
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if inUse != 1 {
		t.Errorf("%d concurrent calls rode %d connections, want 1", calls, inUse)
	}
	if got := dials.Load() - before; got != 1 {
		t.Errorf("%d concurrent calls dialled %d connections, want 1", calls, got)
	}
}

func TestCompatMidConnectionDowngradeRefusedByServer(t *testing.T) {
	// A client that sends the hello again after the answer breaks the
	// framing; the server must drop the connection rather than answer.
	dial := startServer(t, func(s *transport.Server) {
		s.Handle("echo", func(b []byte) ([]byte, error) { return b, nil })
	})
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(rawHello); err != nil {
		t.Fatal(err)
	}
	answer := make([]byte, 4)
	if _, err := io.ReadFull(conn, answer); err != nil {
		t.Fatalf("reading the answer: %v", err)
	}
	if !bytes.Equal(answer, rawHello) {
		t.Fatalf("server answered %x, want the hello %x", answer, rawHello)
	}
	if _, err := conn.Write(rawHello); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if n, err := conn.Read(buf); err == nil {
		t.Fatalf("server answered %d bytes to a second hello, want hangup", n)
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("server neither answered nor hung up on a second hello")
	}
}

func TestCompatMidConnectionDowngradeRefusedByClient(t *testing.T) {
	// The mirror image: a server that answers the hello and then sends
	// it again mid-stream violates framing; the client must kill the
	// connection and fail the in-flight call.
	clientEnd, serverEnd := net.Pipe()
	go func() {
		pre := make([]byte, 4)
		if _, err := io.ReadFull(serverEnd, pre); err != nil {
			return
		}
		if _, err := serverEnd.Write(rawHello); err != nil { // the answer
			return
		}
		// Consume the request frame: length prefix, then body.
		hdr := make([]byte, 4)
		if _, err := io.ReadFull(serverEnd, hdr); err != nil {
			return
		}
		n := int(hdr[0])<<24 | int(hdr[1])<<16 | int(hdr[2])<<8 | int(hdr[3])
		if _, err := io.ReadFull(serverEnd, make([]byte, n)); err != nil {
			return
		}
		// The hello again, where a response frame belongs.
		serverEnd.Write(rawHello)
	}()
	c := transport.NewClient(func() (net.Conn, error) { return clientEnd, nil })
	defer c.Close()
	_, err := c.Call(context.Background(), "echo", []byte("x"))
	if err == nil {
		t.Fatal("call succeeded across a second hello")
	}
	if !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("err = %v, want the connection killed (ErrClosed)", err)
	}
}

// findServe returns the rpc.serve spans retained by tel's ring.
func findServe(tel *telemetry.Telemetry) []telemetry.SpanRecord {
	var out []telemetry.SpanRecord
	for _, rec := range tel.Ring.Spans() {
		if rec.Name == "rpc.serve" {
			out = append(out, rec)
		}
	}
	return out
}

func TestCompatTracedClientV2Server(t *testing.T) {
	// A tracing client against a tracing server: the trace context
	// rides the frame-header extension and the server's rpc.serve span
	// exports with the client's trace ID, parented on the rpc.call span.
	clientTel := telemetry.New(nil)
	serverTel := telemetry.New(nil)
	dial := startServer(t, func(s *transport.Server) {
		s.Telemetry = serverTel
		s.Handle("echo", func(b []byte) ([]byte, error) { return b, nil })
	})
	c := transport.NewClient(dial).Configure(transport.Config{Telemetry: clientTel})
	defer c.Close()

	root := clientTel.Tracer.StartSpan("test.root")
	ctx := telemetry.ContextWith(context.Background(), root)
	if _, err := c.Call(ctx, "echo", []byte("traced")); err != nil {
		t.Fatal(err)
	}
	root.End()

	serves := findServe(serverTel)
	if len(serves) != 1 {
		t.Fatalf("server recorded %d rpc.serve spans, want 1", len(serves))
	}
	if serves[0].TraceID != root.TraceID() {
		t.Errorf("server span trace = %d, want client trace %d", serves[0].TraceID, root.TraceID())
	}
	if serves[0].ParentID == 0 || serves[0].ParentID == root.Context().SpanID {
		t.Errorf("server span parent = %d, want the rpc.call span (not 0, not the root %d)",
			serves[0].ParentID, root.Context().SpanID)
	}
	var remote bool
	for _, a := range serves[0].Attrs {
		if a.Key == "remote" && a.Value == "true" {
			remote = true
		}
	}
	if !remote {
		t.Error("adopted rpc.serve span is not marked remote=true")
	}
}

// strictOldServer is a wire-level stand-in for a peer that predates the
// hello and speaks only the classic framing: a length header above
// MaxFrame — which is how the hello reads — hangs up the connection.
// Its request envelope is decoded strictly, failing the call on any
// trailing bytes exactly like enc.Reader.Finish. It counts the requests
// its decoder accepted and echoed — the ones a handler would have run.
func strictOldServer(t *testing.T) (transport.DialFunc, *atomic.Int64) {
	t.Helper()
	var dispatched atomic.Int64
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					hdr := make([]byte, 4)
					if _, err := io.ReadFull(conn, hdr); err != nil {
						return
					}
					n := binary.BigEndian.Uint32(hdr)
					if n > transport.MaxFrame {
						return // the hello read as an oversized frame: hang up
					}
					payload := make([]byte, n)
					if _, err := io.ReadFull(conn, payload); err != nil {
						return
					}
					r := enc.NewReader(payload)
					_ = r.String() // op
					body := r.BytesPrefixed()
					w := enc.NewWriter(16 + len(body))
					if err := r.Finish(); err != nil {
						w.Byte(1)
						w.String(err.Error())
						w.BytesPrefixed(nil)
					} else {
						dispatched.Add(1)
						w.Byte(0)
						w.String("")
						w.BytesPrefixed(body)
					}
					resp := w.Bytes()
					out := make([]byte, 4+len(resp))
					binary.BigEndian.PutUint32(out, uint32(len(resp)))
					copy(out[4:], resp)
					if _, err := conn.Write(out); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	addr := l.Addr().String()
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }, &dispatched
}

func TestCompatUntracedClientNewServer(t *testing.T) {
	// No trace context on the wire (an untraced caller):
	// the server starts its own trace and must not mark it remote.
	serverTel := telemetry.New(nil)
	dial := startServer(t, func(s *transport.Server) {
		s.Telemetry = serverTel
		s.Handle("echo", func(b []byte) ([]byte, error) { return b, nil })
	})
	c := transport.NewClient(dial)
	defer c.Close()
	if _, err := c.Call(context.Background(), "echo", []byte("untraced")); err != nil {
		t.Fatal(err)
	}
	serves := findServe(serverTel)
	if len(serves) != 1 {
		t.Fatalf("server recorded %d rpc.serve spans, want 1", len(serves))
	}
	for _, sp := range serves {
		if sp.ParentID != 0 {
			t.Errorf("untraced request produced a parented serve span (parent %d)", sp.ParentID)
		}
		for _, a := range sp.Attrs {
			if a.Key == "remote" {
				t.Errorf("untraced request marked remote=%s", a.Value)
			}
		}
	}
}
