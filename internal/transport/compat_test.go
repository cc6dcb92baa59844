package transport_test

// The v1/v2 compatibility matrix: every pairing of old and new clients
// and servers must either interoperate (settling on the highest common
// version, exactly once per connection) or fail fast with a permanent
// version-mismatch error — and once a connection has negotiated, any
// attempt to renegotiate mid-connection is refused by dropping the
// connection, in both directions.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"sync"
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
	// A pre-negotiation server reads the preamble as an oversized v1
	// length header and hangs up. The auto client must latch the
	// downgrade after that one wasted dial and speak v1 from then on.
	tel := telemetry.New(nil)
	cd := &countingDial{dial: startStrictOldServer(t, false)}
	c := transport.NewClient(cd.fn()).Configure(transport.Config{Telemetry: tel})
	defer c.Close()
	for i := 0; i < 4; i++ {
		resp, err := c.Call(context.Background(), "echo", []byte("downgrade"))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if string(resp) != "downgrade" {
			t.Fatalf("resp = %q", resp)
		}
	}
	// Dial 1 carried the refused preamble; dial 2 opened the v1 conn the
	// remaining calls reuse. The latch means no further negotiation.
	if got := cd.count.Load(); got != 2 {
		t.Errorf("dialed %d conns against an old server, want 2 (one refused preamble + one pooled v1)", got)
	}
	if got := tel.Negotiations.With("fallback").Value(); got != 1 {
		t.Errorf("negotiations{fallback} = %d, want 1", got)
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

func TestCompatRequiredV2AgainstOldServerFailsPermanently(t *testing.T) {
	c := transport.NewClient(startStrictOldServer(t, false))
	c.Version = transport.V2
	defer c.Close()
	_, err := c.Call(context.Background(), "echo", nil)
	if !errors.Is(err, transport.ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
	if transport.Retryable(err) {
		t.Error("version mismatch must be permanent, not retryable")
	}
}

func TestCompatServerCappedAtV1(t *testing.T) {
	// A server that answers the preamble with a v1 accept: the auto
	// client accepts the downgrade and keeps the connection it negotiated
	// on — the server is already serving classic frames on it.
	tel := telemetry.New(nil)
	cd := &countingDial{dial: startStrictOldServer(t, true)}
	c := transport.NewClient(cd.fn()).Configure(transport.Config{Telemetry: tel})
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Call(context.Background(), "echo", []byte("x")); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := cd.count.Load(); got != 1 {
		t.Errorf("dialed %d conns, want 1 (the negotiated-down conn is kept and pooled as v1)", got)
	}
	if got := tel.Negotiations.With("v1").Value(); got != 1 {
		t.Errorf("client negotiations{v1} = %d, want 1", got)
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
	ctx := telemetry.ContextWith(context.Background(), root.Context())
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
	// A traced call over a connection negotiated down to v1: v1 has no
	// place for the trace context, so the request envelope is op‖body
	// alone and a decoder that refuses trailing bytes serves it. The
	// trace ends at the process boundary.
	tel := telemetry.New(nil)
	c := transport.NewClient(startStrictOldServer(t, true)).Configure(transport.Config{Telemetry: tel})
	defer c.Close()

	root := tel.Tracer.StartSpan("test.root")
	ctx := telemetry.ContextWith(context.Background(), root.Context())
	resp, err := c.Call(ctx, "echo", []byte("traced-v1"))
	if err != nil {
		t.Fatalf("traced call over negotiated v1: %v", err)
	}
	if string(resp) != "traced-v1" {
		t.Fatalf("resp = %q", resp)
	}
	root.End()
	if got := tel.Negotiations.With("v1").Value(); got != 1 {
		t.Errorf("negotiations{v1} = %d, want 1", got)
	}
}

func TestCompatTracedClientOldServer(t *testing.T) {
	// A traced client against the old-deployment stand-in (it hangs up
	// on the preamble, so the fallback latches v1): the call must
	// succeed; the trace simply ends at the process boundary.
	tel := telemetry.New(nil)
	c := transport.NewClient(startStrictOldServer(t, false)).Configure(transport.Config{Telemetry: tel})
	defer c.Close()

	root := tel.Tracer.StartSpan("test.root")
	ctx := telemetry.ContextWith(context.Background(), root.Context())
	resp, err := c.Call(ctx, "echo", []byte("hello-old"))
	if err != nil {
		t.Fatalf("traced call against old server: %v", err)
	}
	if string(resp) != "hello-old" {
		t.Fatalf("resp = %q", resp)
	}
	root.End()
}

// startStrictOldServer is a wire-level stand-in for an old deployment
// that speaks only v1. Without acceptV1 it predates negotiation: a
// length header above MaxFrame — which is how the v2 preamble reads —
// hangs up the connection. With acceptV1 it answers the preamble with a
// v1 accept and serves classic frames on that connection. Either way
// the request envelope is decoded with the old decoder's strictness,
// failing the call on any trailing bytes (such as a trace-context
// trailer) exactly like enc.Reader.Finish.
func startStrictOldServer(t *testing.T, acceptV1 bool) transport.DialFunc {
	t.Helper()
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
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

func TestCompatTracedClientStrictOldServer(t *testing.T) {
	// The regression the compat matrix exists to prevent: a traced call
	// toward a genuinely old server must not carry trace context in the
	// envelope, because the old decoder errors on trailing bytes. On both
	// routes into the v1 path — the hangup fallback (auto client) and a
	// pinned-V1 client — the trace ends at the process boundary and the
	// call succeeds.
	for _, version := range []byte{0, transport.V1} {
		dial := startStrictOldServer(t, false)
		tel := telemetry.New(nil)
		c := transport.NewClient(dial).Configure(transport.Config{Telemetry: tel, Version: version})
		root := tel.Tracer.StartSpan("test.root")
		ctx := telemetry.ContextWith(context.Background(), root.Context())
		resp, err := c.Call(ctx, "echo", []byte("strict"))
		if err != nil {
			t.Fatalf("version %d: traced call against strict old server: %v", version, err)
		}
		if string(resp) != "strict" {
			t.Fatalf("version %d: resp = %q", version, resp)
		}
		root.End()
		c.Close()
	}
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
