package transport_test

// The v1/v2 compatibility matrix. A client pinned to V1 and a negotiating
// client both interoperate with this tree's server. A negotiating client
// speaks v2 or fails: against a peer that hangs up on the preamble or
// accepts only v1 its call fails — the hang-up as an ordinary, retryable
// failure, the v1 accept as a permanent version mismatch — the request
// runs nowhere, and nothing is latched: the next dial negotiates again.
// Once a connection has negotiated, any attempt to renegotiate
// mid-connection is refused by dropping the connection, in both
// directions.

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

// rawPreamble is the 4-byte negotiation opener proposing v2, as raw
// bytes (the tests below speak the wire format by hand).
var rawPreamble = []byte{'G', 'D', 0xF2, 2}

func TestCompatV1ClientNewServer(t *testing.T) {
	// An old client never sends a preamble; a new server must serve it
	// classic v1 frames without ever negotiating.
	tel := telemetry.New(nil)
	dial := startServer(t, func(s *transport.Server) {
		s.Telemetry = tel
		s.Handle("echo", func(b []byte) ([]byte, error) { return b, nil })
	})
	c := transport.NewClient(dial)
	c.Version = transport.V1
	defer c.Close()
	for i := 0; i < 3; i++ {
		resp, err := c.Call(context.Background(), "echo", []byte("classic"))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if string(resp) != "classic" {
			t.Fatalf("resp = %q", resp)
		}
	}
	if got := tel.Negotiations.Total(); got != 0 {
		t.Errorf("server negotiated %d times against a v1 client, want 0", got)
	}
}

func TestCompatAutoClientOldServer(t *testing.T) {
	// A server older than negotiation reads the preamble as an oversized
	// v1 length header and hangs up. A negotiating client, whether it
	// leaves the version to negotiation or pins V2, fails each call
	// there and latches nothing: every call dials and negotiates again,
	// and no plain v1 request ever reaches the server.
	for _, tc := range []struct {
		name    string
		version byte
	}{
		{"auto", 0},
		{"v2", transport.V2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tel := telemetry.New(nil)
			dial, dispatched := strictOldServer(t, false)
			cd := &countingDial{dial: dial}
			c := transport.NewClient(cd.fn()).Configure(transport.Config{Telemetry: tel, Version: tc.version})
			defer c.Close()
			const calls = 3
			for i := 0; i < calls; i++ {
				_, err := c.Call(context.Background(), "echo", []byte("old"))
				if err == nil {
					t.Fatalf("call %d succeeded against a server that cannot speak v2", i)
				}
				if errors.Is(err, transport.ErrVersionMismatch) || !transport.Retryable(err) {
					t.Fatalf("call %d: err = %v, want an ordinary retryable connection failure", i, err)
				}
			}
			if got := cd.count.Load(); got != calls {
				t.Errorf("dials = %d, want %d (each call negotiates afresh)", got, calls)
			}
			if got := dispatched.Load(); got != 0 {
				t.Errorf("the old server dispatched %d requests, want 0 (no v1 connection)", got)
			}
			if got := tel.Negotiations.Total(); got != 0 {
				t.Errorf("negotiations = %d, want 0", got)
			}
		})
	}
}

func TestCompatAutoClientNewServer(t *testing.T) {
	// Both sides speak v2: one negotiation, then every concurrent call
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
	if got := clientTel.Negotiations.With("v2").Value(); got != 1 {
		t.Errorf("client negotiations{v2} = %d, want 1", got)
	}
	if got := serverTel.Negotiations.With("v2").Value(); got != 1 {
		t.Errorf("server negotiations{v2} = %d, want 1", got)
	}
	if got := clientTel.StreamsOpened.Value(); got != calls {
		t.Errorf("transport_streams_opened_total = %d, want %d", got, calls)
	}
}

func TestCompatServerCappedAtV1(t *testing.T) {
	// A server that answers the preamble with a v1 accept. The first
	// flight's request was v2-framed, which that server refuses unrun, so
	// the auto client's call fails permanently: a retry policy does not
	// repeat it. The mismatch is not remembered — the next call dials
	// and negotiates again.
	tel := telemetry.New(nil)
	dial, dispatched := strictOldServer(t, true)
	cd := &countingDial{dial: dial}
	c := transport.NewClient(cd.fn()).Configure(transport.Config{
		Telemetry: tel,
		Retry:     &transport.RetryPolicy{MaxAttempts: 3},
	})
	defer c.Close()
	for i := 1; i <= 2; i++ {
		_, err := c.Call(context.Background(), "echo", []byte("x"))
		if !errors.Is(err, transport.ErrVersionMismatch) || transport.Retryable(err) {
			t.Fatalf("call %d: err = %v, want a permanent ErrVersionMismatch", i, err)
		}
		if got := cd.count.Load(); got != int64(i) {
			t.Errorf("after call %d: dials = %d, want %d", i, got, i)
		}
		if got := tel.Negotiations.With("v1").Value(); got != uint64(i) {
			t.Errorf("after call %d: negotiations{v1} = %d, want %d", i, got, i)
		}
	}
	if got := dispatched.Load(); got != 0 {
		t.Errorf("the v1 server dispatched %d requests, want 0", got)
	}
	if got := tel.RPCRetries.Value(); got != 0 {
		t.Errorf("rpc_retries_total = %d, want 0 (the mismatch is permanent)", got)
	}
}

func TestCompatEarlyFrame(t *testing.T) {
	// A negotiating connection's first request rides behind the preamble.
	// A peer that cannot speak v2 runs none of it — one that predates
	// negotiation hangs up on the preamble, a v1-capped one refuses the
	// v2-framed request — and the call fails on that one dial: a hang-up
	// as any dropped connection does, a v1 accept with a version
	// mismatch.
	for _, tc := range []struct {
		name     string
		acceptV1 bool
		mismatch bool
	}{
		{"pre-v2 hang-up", false, false},
		{"v1-capped", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dial, dispatched := strictOldServer(t, tc.acceptV1)
			cd := &countingDial{dial: dial}
			c := transport.NewClient(cd.fn())
			defer c.Close()
			_, err := c.Call(context.Background(), "echo", []byte("early"))
			if err == nil {
				t.Fatal("the first flight succeeded against a peer that cannot speak v2")
			}
			if got := errors.Is(err, transport.ErrVersionMismatch); got != tc.mismatch {
				t.Errorf("err = %v, version mismatch = %v, want %v", err, got, tc.mismatch)
			}
			if got := transport.Retryable(err); got == tc.mismatch {
				t.Errorf("err = %v, retryable = %v, want %v", err, got, !tc.mismatch)
			}
			if got := cd.count.Load(); got != 1 {
				t.Errorf("dials = %d, want 1", got)
			}
			if got := dispatched.Load(); got != 0 {
				t.Errorf("requests dispatched = %d, want 0", got)
			}
		})
	}
}

func TestCompatRequiredV2AgainstV1CappedServerFailsPermanently(t *testing.T) {
	dial, dispatched := strictOldServer(t, true)
	cd := &countingDial{dial: dial}
	c := transport.NewClient(cd.fn()).Configure(transport.Config{Version: transport.V2})
	defer c.Close()
	_, err := c.Call(context.Background(), "echo", nil)
	if !errors.Is(err, transport.ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
	if transport.Retryable(err) {
		t.Error("version mismatch must be permanent, not retryable")
	}
	if got := cd.count.Load(); got != 1 {
		t.Errorf("dials = %d, want 1", got)
	}
	if got := dispatched.Load(); got != 0 {
		t.Errorf("requests dispatched = %d, want 0", got)
	}
}

// v2Response frames body as the v2 response to stream id.
func v2Response(id uint32, body []byte) []byte {
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
	// A peer that reads exactly the 4-byte preamble and answers it before
	// reading on, over an unbuffered pipe, while the first request is
	// 64 KiB: the client's write of the first flight blocks until the
	// peer reads it, so the accept must be taken by a reader that runs
	// beside that write.
	clientEnd, serverEnd := net.Pipe()
	defer serverEnd.Close()
	body := bytes.Repeat([]byte("x"), 64<<10)
	go func() {
		pre := make([]byte, 4)
		if _, err := io.ReadFull(serverEnd, pre); err != nil {
			return
		}
		if _, err := serverEnd.Write(rawPreamble); err != nil {
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
		serverEnd.Write(v2Response(binary.BigEndian.Uint32(frame[2:6]), []byte("got it")))
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
// the first flight and resets before any accept, and whose later
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
	// before any accept. That is an ordinary failed attempt: the retry
	// policy resends the request once, on a freshly negotiated
	// connection, counts that retry, and the handler runs once.
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
	if got := tel.Negotiations.With("v2").Value(); got != 1 {
		t.Errorf("negotiations{v2} = %d, want 1 (the retry negotiated afresh)", got)
	}
}

func TestResetBeforeAcceptLatchesNothing(t *testing.T) {
	// One reset before the accept must not change how the client makes
	// its later calls: concurrent calls after it share one negotiated v2
	// connection, as they do on a client that never saw a reset
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
	if got := tel.Negotiations.With("v2").Value(); got != 1 {
		t.Errorf("negotiations{v2} = %d, want 1", got)
	}
}

func TestCompatMidConnectionDowngradeRefusedByServer(t *testing.T) {
	// After negotiating v2, a client re-sending the preamble is asking
	// for a mid-connection downgrade; the server must drop the
	// connection rather than renegotiate.
	dial := startServer(t, func(s *transport.Server) {
		s.Handle("echo", func(b []byte) ([]byte, error) { return b, nil })
	})
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(rawPreamble); err != nil {
		t.Fatal(err)
	}
	accept := make([]byte, 4)
	if _, err := io.ReadFull(conn, accept); err != nil {
		t.Fatalf("reading accept: %v", err)
	}
	if accept[3] != 2 {
		t.Fatalf("server agreed v%d, want v2", accept[3])
	}
	if _, err := conn.Write(rawPreamble); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if n, err := conn.Read(buf); err == nil {
		t.Fatalf("server answered %d bytes to a mid-connection renegotiation, want hangup", n)
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("server neither answered nor hung up on a mid-connection renegotiation")
	}
}

func TestCompatMidConnectionDowngradeRefusedByClient(t *testing.T) {
	// The mirror image: a server that negotiates v2 and then emits a
	// preamble mid-stream (as if renegotiating) violates framing; the
	// client must kill the connection and fail the in-flight call.
	clientEnd, serverEnd := net.Pipe()
	go func() {
		pre := make([]byte, 4)
		if _, err := io.ReadFull(serverEnd, pre); err != nil {
			return
		}
		if _, err := serverEnd.Write(rawPreamble); err != nil { // accept v2
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
		// "Renegotiate": raw preamble bytes where a response frame belongs.
		serverEnd.Write(rawPreamble)
	}()
	c := transport.NewClient(func() (net.Conn, error) { return clientEnd, nil })
	defer c.Close()
	_, err := c.Call(context.Background(), "echo", []byte("x"))
	if err == nil {
		t.Fatal("call succeeded across a mid-connection renegotiation attempt")
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
	// A tracing client against a tracing v2 server: the trace context
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

func TestCompatTracedClientV1Envelope(t *testing.T) {
	// A traced call from a client pinned to V1: v1 has no place for the
	// trace context, so the request envelope is op‖body alone. The trace
	// ends at the process boundary — the server's rpc.serve span is a
	// root of its own trace, not marked remote.
	clientTel := telemetry.New(nil)
	serverTel := telemetry.New(nil)
	dial := startServer(t, func(s *transport.Server) {
		s.Telemetry = serverTel
		s.Handle("echo", func(b []byte) ([]byte, error) { return b, nil })
	})
	c := transport.NewClient(dial).Configure(transport.Config{Telemetry: clientTel, Version: transport.V1})
	defer c.Close()

	root := clientTel.Tracer.StartSpan("test.root")
	ctx := telemetry.ContextWith(context.Background(), root)
	if resp, err := c.Call(ctx, "echo", []byte("traced-v1")); err != nil || string(resp) != "traced-v1" {
		t.Fatalf("traced call over v1: %q, %v", resp, err)
	}
	root.End()
	serves := findServe(serverTel)
	if len(serves) != 1 {
		t.Fatalf("server recorded %d rpc.serve spans, want 1", len(serves))
	}
	if serves[0].TraceID == root.TraceID() || serves[0].ParentID != 0 {
		t.Errorf("v1 serve span joined the client's trace (trace %d, parent %d)", serves[0].TraceID, serves[0].ParentID)
	}
	for _, a := range serves[0].Attrs {
		if a.Key == "remote" {
			t.Errorf("v1 serve span marked remote=%s", a.Value)
		}
	}
}

// strictOldServer is a wire-level stand-in for a peer that speaks only
// v1. Without acceptV1 it predates negotiation: a length header above
// MaxFrame — which is how the v2 preamble reads — hangs up the
// connection. With acceptV1 it answers the preamble with a v1 accept and
// serves classic frames on that connection. Either way the request
// envelope is decoded with the old decoder's strictness, failing the
// call on any trailing bytes (such as a trace-context trailer) exactly
// like enc.Reader.Finish. It also counts the requests its decoder
// accepted and echoed — the ones a handler would have run.
func strictOldServer(t *testing.T, acceptV1 bool) (transport.DialFunc, *atomic.Int64) {
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
					if acceptV1 && bytes.Equal(hdr[:3], rawPreamble[:3]) {
						if _, err := conn.Write(append(hdr[:3:3], transport.V1)); err != nil {
							return
						}
						continue
					}
					n := binary.BigEndian.Uint32(hdr)
					if n > transport.MaxFrame {
						return // the preamble read as an oversized frame: hang up
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

func TestCompatTracedClientStrictOldServer(t *testing.T) {
	// The regression the compat matrix exists to prevent: a traced call
	// on a v1 connection must not carry trace context in the envelope,
	// because a strict v1 decoder errors on trailing bytes. A pinned-V1
	// client's trace ends at the process boundary and the call succeeds.
	dial, _ := strictOldServer(t, false)
	tel := telemetry.New(nil)
	c := transport.NewClient(dial).Configure(transport.Config{Telemetry: tel, Version: transport.V1})
	defer c.Close()
	root := tel.Tracer.StartSpan("test.root")
	ctx := telemetry.ContextWith(context.Background(), root)
	resp, err := c.Call(ctx, "echo", []byte("strict"))
	if err != nil {
		t.Fatalf("traced call against strict v1 server: %v", err)
	}
	if string(resp) != "strict" {
		t.Fatalf("resp = %q", resp)
	}
	root.End()
}

func TestCompatUntracedClientNewServer(t *testing.T) {
	// No trace context on the wire (an old or simply untraced caller):
	// the server starts its own trace and must not mark it remote.
	serverTel := telemetry.New(nil)
	dial := startServer(t, func(s *transport.Server) {
		s.Telemetry = serverTel
		s.Handle("echo", func(b []byte) ([]byte, error) { return b, nil })
	})
	for _, version := range []byte{0, transport.V1} {
		c := transport.NewClient(dial)
		c.Version = version
		if _, err := c.Call(context.Background(), "echo", []byte("untraced")); err != nil {
			t.Fatalf("version %d: %v", version, err)
		}
		c.Close()
	}
	serves := findServe(serverTel)
	if len(serves) != 2 {
		t.Fatalf("server recorded %d rpc.serve spans, want 2", len(serves))
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
