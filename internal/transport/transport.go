// Package transport implements the length-prefixed binary RPC protocol
// spoken between GlobeDoc proxies, object servers, the naming service and
// the location service.
//
// A call is one framed request (operation name + opaque body) answered by
// one framed response (status + error string + opaque body). Bodies are
// encoded by the callers with package enc, keeping this layer free of any
// knowledge of the messages it carries.
//
// One framing carries that exchange: a negotiated frame that names a
// stream, so many calls interleave on one connection (frame.go). The
// client keeps one bounded pool of connections (pool.go, conn.go) and
// the server one request loop per connection. A hard frame-size limit
// defends against malicious peers — remember that GlobeDoc clients
// routinely talk to untrusted servers.
//
// Every peer is built from this tree, so there are no older peers to
// fall back for. A client speaks v2 or fails: a hang-up before the
// accept is an ordinary failed attempt, and an accept below v2 a
// permanent ErrVersionMismatch. A server drops a connection that does
// not open by proposing v2. A Client remembers nothing about its peer,
// so no fault changes how it makes its next call.
package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"globedoc/internal/clock"
	"globedoc/internal/enc"
	"globedoc/internal/telemetry"
)

// MaxFrame is the largest frame either side will accept. It bounds the
// memory an untrusted peer can make us allocate.
const MaxFrame = 16 << 20 // 16 MiB

// Errors reported by the transport.
var (
	ErrFrameTooLarge = errors.New("transport: frame exceeds maximum size")
	ErrClosed        = errors.New("transport: connection closed")
	ErrDialTimeout   = errors.New("transport: dial timed out")
)

// RemoteError is an error string returned by the far side of a call. It
// is distinguished from local transport failures so callers can tell "the
// server refused" from "the network broke".
type RemoteError struct {
	Op      string
	Message string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: remote error from %q: %s", e.Op, e.Message)
}

// coalesceMax is the largest frame body that is copied behind its header
// and sent with one Write. A larger body goes out from where it lies,
// after the header, so a payload is never copied just to be framed.
const coalesceMax = 16 << 10

// frameBuf returns an empty buffer with room for hdr header bytes, plus
// a body of n bytes when it is small enough to ride in the same Write.
func frameBuf(hdr, n int) []byte {
	if n <= coalesceMax {
		hdr += n
	}
	return make([]byte, 0, hdr)
}

// bufsLen is the summed length of bufs.
func bufsLen(bufs [][]byte) int {
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	return n
}

// buffersWriter is a connection that takes a frame's header and body in
// one call. The network simulator's connections do, and charge the parts
// as the one burst they are.
type buffersWriter interface {
	WriteBuffers(bufs ...[]byte) (int, error)
}

// writeSplit sends prefix‖body, body being its buffers' concatenation,
// and returns the bytes written. A body within coalesceMax is appended to
// prefix (sized by frameBuf) and sent in one Write; a larger one is sent
// from where its buffers lie, in one call on a buffersWriter and otherwise
// one Write per non-empty part. Callers serialise a connection's frame
// writes and leave the buffers unmodified until the call returns.
func writeSplit(w io.Writer, prefix []byte, body [][]byte) (int, error) {
	if bufsLen(body) <= coalesceMax {
		for _, b := range body {
			prefix = append(prefix, b...)
		}
		return w.Write(prefix)
	}
	if bw, ok := w.(buffersWriter); ok {
		bufs := append(make([][]byte, 0, 1+len(body)), prefix)
		for _, b := range body {
			if len(b) > 0 {
				bufs = append(bufs, b)
			}
		}
		return bw.WriteBuffers(bufs...)
	}
	n, err := w.Write(prefix)
	for _, b := range body {
		if m := 0; err == nil && len(b) > 0 {
			m, err = w.Write(b)
			n += m
		}
	}
	return n, err
}

// requestHead encodes a request envelope up to, and not including, its
// body: the operation name and the body's length prefix. The envelope is
// head‖body, sent by the frame writers without joining the two parts
// (see responseHead), so a request body reaches the socket uncopied.
func requestHead(op string, bodyLen int) []byte {
	w := enc.NewWriter(2*binary.MaxVarintLen64 + len(op))
	w.String(op)
	w.Uvarint(uint64(bodyLen))
	return w.Bytes()
}

// decodeRequest decodes a request envelope, rejecting any trailing byte.
// The returned body aliases payload (see readV2Frame).
func decodeRequest(payload []byte) (op string, body []byte, err error) {
	r := enc.NewReader(payload)
	op = r.String()
	body = r.BytesPrefixed()
	if err := r.Finish(); err != nil {
		return "", nil, err
	}
	return op, body, nil
}

// responseHead encodes a response envelope up to, and not including, its
// body: status, error string and the body's length prefix. The envelope
// is head‖body; the frame writers send the two parts without joining
// them, so a handler's body reaches the socket uncopied. A failed call
// carries its message and an empty body.
func responseHead(bodyLen int, callErr error) []byte {
	var status byte
	var msg string
	if callErr != nil {
		status, msg, bodyLen = 1, callErr.Error(), 0
	}
	w := enc.NewWriter(2 + 2*binary.MaxVarintLen64 + len(msg))
	w.Byte(status)
	w.String(msg)
	w.Uvarint(uint64(bodyLen))
	return w.Bytes()
}

// decodeResponse decodes a response envelope. The returned body aliases
// payload (see readV2Frame for why that is safe).
func decodeResponse(op string, payload []byte) ([]byte, error) {
	r := enc.NewReader(payload)
	status := r.Byte()
	msg := r.String()
	body := r.BytesPrefixed()
	if err := r.Finish(); err != nil {
		return nil, err
	}
	if status != 0 {
		return nil, &RemoteError{Op: op, Message: msg}
	}
	return body, nil
}

// Handler processes one request body and returns a response body. Errors
// are transported to the caller as RemoteError. The request body aliases
// the frame it arrived in and is the handler's alone; the response body
// is written to the connection as returned, uncopied, so it must not be
// modified after the handler returns.
type Handler func(body []byte) ([]byte, error)

// HandlerCtx is the one shape a registered handler has. Its ctx carries
// the adopted trace context (telemetry.SpanContextFrom), so server-side
// spans started under it join the caller's trace. It returns the response
// body as buffers, which the frame writer sends where they lie — a reply
// assembled from precomputed payloads is never copied into one buffer —
// so none may be modified after the handler returns.
type HandlerCtx func(ctx context.Context, body []byte) ([][]byte, error)

// DefaultServerStreams bounds concurrently executing handlers per
// connection; excess frames wait in the read loop, applying
// backpressure.
const DefaultServerStreams = 64

// Server dispatches framed requests to registered handlers.
type Server struct {
	// IdleTimeout, when positive, bounds how long a connection may sit
	// between frames (and how long a response write may take) before the
	// server drops it — a defence against stalled or half-dead peers
	// pinning goroutines forever. A connection with a handler in flight
	// is not idle: the timer only runs while no handler is active. Set
	// before Serve.
	IdleTimeout time.Duration
	// Telemetry records per-operation serve counts and spans; nil falls
	// back to the process-wide telemetry.Default(). Set before Serve.
	Telemetry *telemetry.Telemetry
	// Clock is the time source for idle deadlines (nil = real clock).
	Clock clock.Clock

	mu       sync.RWMutex
	handlers map[string]HandlerCtx

	closeMu   sync.Mutex // orders registering below against Close
	listeners sync.Map   // net.Listener -> struct{}
	conns     sync.Map   // net.Conn -> struct{}
	closed    atomic.Bool
	wg        sync.WaitGroup
}

// NewServer returns a server with no handlers registered.
func NewServer() *Server {
	return &Server{handlers: make(map[string]HandlerCtx)}
}

// Handle registers h for the given operation name, replacing any previous
// handler.
func (s *Server) Handle(op string, h Handler) {
	s.HandleCtx(op, func(_ context.Context, body []byte) ([][]byte, error) {
		resp, err := h(body)
		return [][]byte{resp}, err
	})
}

// HandleCtx registers a context-aware handler for the given operation
// name, replacing any previous handler.
func (s *Server) HandleCtx(op string, h HandlerCtx) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[op] = h
}

// Ops returns the registered operation names (unordered).
func (s *Server) Ops() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ops := make([]string, 0, len(s.handlers))
	for op := range s.handlers {
		ops = append(ops, op)
	}
	return ops
}

// Serve accepts connections on l until l is closed or the server is shut
// down. Each connection is served on its own goroutine, its calls
// concurrently up to DefaultServerStreams.
func (s *Server) Serve(l net.Listener) error {
	if !s.track(func() { s.listeners.Store(l, struct{}{}) }) {
		l.Close()
		return nil
	}
	defer s.listeners.Delete(l)
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		if !s.track(func() {
			s.conns.Store(conn, struct{}{})
			s.wg.Add(1)
		}) {
			conn.Close()
			return nil
		}
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// track runs register, which records a listener or connection for Close
// to shut, unless Close has begun, and reports whether it ran. Close
// starts under the same lock, so whatever is registered it shuts, and
// it waits for no connection registered after its wait began.
func (s *Server) track(register func()) bool {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed.Load() {
		return false
	}
	register()
	return true
}

// Start runs Serve on its own goroutine and returns immediately.
func (s *Server) Start(l net.Listener) {
	go func() { _ = s.Serve(l) }()
}

// clock returns the server's time source.
func (s *Server) clock() clock.Clock {
	if s.Clock != nil {
		return s.Clock
	}
	return clock.Real
}

// firstReadLen bounds a connection's first read. A client's first flight
// is its preamble and first request in one write, and a cold client's
// first flights are small: with the preamble and the trace extension,
// name.resolve is 56 bytes, loc.lookup2 71 and a cold obj.bind naming one
// element 89 (examples/quickstart). One read of up to 512 bytes takes the
// whole flight, so the server answers it without reading the socket
// again — no second turnaround between the accept and the response.
const firstReadLen = 512

// readAhead is a connection read through the bytes its first read took
// beyond what serveConn consumed.
type readAhead struct {
	conn net.Conn
	rest []byte
	buf  [firstReadLen]byte
}

func (r *readAhead) Read(p []byte) (int, error) {
	if len(r.rest) == 0 {
		return r.conn.Read(p)
	}
	n := copy(p, r.rest)
	r.rest = r.rest[n:]
	return n, nil
}

// serveConn negotiates the connection and serves it. One bounded read
// takes the connection's first bytes, and the first four decide: a
// negotiation preamble proposing v2 or above is answered with the v2
// accept, and anything else — a bare frame, a proposal of an older
// version — drops the connection unanswered, before a frame is read.
// Whatever the read took beyond the preamble, a first request riding
// behind it, goes to the request loop ahead of the conn.
func (s *Server) serveConn(conn net.Conn) {
	defer s.conns.Delete(conn)
	defer conn.Close()
	if s.IdleTimeout > 0 {
		// A failed SetDeadline means the conn is already dead; an
		// unarmed idle timeout must not pin this goroutine forever.
		if err := conn.SetDeadline(s.clock().Now().Add(s.IdleTimeout)); err != nil {
			return
		}
	}
	in := &readAhead{conn: conn}
	n, err := io.ReadAtLeast(conn, in.buf[:], preambleLen)
	if err != nil {
		return
	}
	if proposed, ok := parsePreamble(in.buf[:preambleLen]); !ok || proposed < V2 {
		return
	}
	in.rest = in.buf[preambleLen:n]
	if _, err := conn.Write(clientPreamble(V2)); err != nil {
		return
	}
	telemetry.Or(s.Telemetry).Negotiations.With(versionLabel(V2)).Inc()
	s.serve(conn, in)
}

// serve is the request loop: it reads request frames from r and handles
// each on its own goroutine, answering on the stream the request arrived
// on. It runs up to DefaultServerStreams handlers at once, so one slow
// handler never blocks its siblings' responses. Any frame that is not a
// well-formed request — including a re-sent negotiation preamble
// attempting a mid-connection downgrade — drops the connection.
func (s *Server) serve(conn net.Conn, r io.Reader) {
	if s.IdleTimeout > 0 {
		// Clear the negotiation deadline; from here on reads and writes
		// are armed separately so a parked handler on one stream cannot
		// leave a stale deadline that kills sibling traffic.
		if err := conn.SetDeadline(time.Time{}); err != nil {
			return
		}
	}
	sem := make(chan struct{}, DefaultServerStreams)
	var (
		wmu    sync.Mutex
		active atomic.Int64
		wg     sync.WaitGroup
	)
	defer wg.Wait()
	for {
		if s.IdleTimeout > 0 {
			var deadline time.Time // zero: no idle reaping while streams are active
			if active.Load() == 0 {
				deadline = s.clock().Now().Add(s.IdleTimeout)
			}
			if err := conn.SetReadDeadline(deadline); err != nil {
				return
			}
		}
		f, _, err := readFramed(r, frameRequest)
		if err != nil {
			return
		}
		sem <- struct{}{} // backpressure: bound concurrent handlers
		active.Add(1)
		wg.Add(1)
		go func(f v2Frame) {
			defer wg.Done()
			head, body := s.dispatch(f.Payload, f.Trace)
			wmu.Lock()
			var werr error
			if s.IdleTimeout > 0 {
				werr = conn.SetWriteDeadline(s.clock().Now().Add(s.IdleTimeout))
			}
			if werr == nil {
				_, werr = writeFramed(conn, nil, v2Frame{Type: frameResponse, StreamID: f.StreamID}, head, body...)
			}
			wmu.Unlock()
			if active.Add(-1) == 0 && s.IdleTimeout > 0 && werr == nil {
				// The conn just quiesced: restart the idle clock under
				// the blocked read loop (SetReadDeadline takes effect on
				// an in-progress Read).
				werr = conn.SetReadDeadline(s.clock().Now().Add(s.IdleTimeout))
			}
			<-sem
			if werr != nil {
				conn.Close() // unblocks the read loop; conn is unusable
			}
		}(f)
	}
}

// dispatch decodes one request payload, runs its handler and returns
// the response envelope in two parts: the encoded head and the handler's
// body buffers, which are written to the connection as returned — a
// handler answers with bytes it will not modify afterwards (the object
// server's precomputed wire tables are replaced whole, never edited in
// place). sc is the span context the frame header carried; a valid one
// is adopted so the rpc.serve span — and every handler span under it —
// exports with the caller's trace ID.
func (s *Server) dispatch(payload []byte, sc telemetry.SpanContext) (head []byte, resp [][]byte) {
	op, body, err := decodeRequest(payload)
	if err == nil {
		s.mu.RLock()
		h, ok := s.handlers[op]
		s.mu.RUnlock()
		if !ok {
			err = fmt.Errorf("unknown operation %q", op)
		} else {
			tel := telemetry.Or(s.Telemetry)
			sp := tel.Tracer.StartSpanFrom("rpc.serve", sc)
			sp.Annotate("op", op)
			if sc.Valid() {
				// The parent span lives in the calling process: mark the
				// boundary for the trace renderer.
				sp.Annotate("remote", "true")
			}
			//lint:ignore ctxfirst the server is this process's request-tree root: there is no upstream ctx to inherit, and cancellation arrives as connection teardown, not ctx propagation
			ctx := telemetry.ContextWith(context.Background(), sp)
			resp, err = h(ctx, body)
			outcome := "ok"
			if err != nil {
				outcome = "error"
			}
			sp.Annotate("outcome", outcome)
			sp.End()
			tel.RPCServed.With(op, outcome).Inc()
		}
	}
	if err != nil {
		resp = nil
	}
	return responseHead(bufsLen(resp), err), resp
}

// Close stops accepting connections on all listeners passed to Serve,
// closes every active connection, and waits for connection goroutines to
// exit.
func (s *Server) Close() {
	s.closeMu.Lock()
	s.closed.Store(true)
	s.closeMu.Unlock()
	s.listeners.Range(func(key, _ any) bool {
		key.(net.Listener).Close()
		return true
	})
	s.conns.Range(func(key, _ any) bool {
		key.(net.Conn).Close()
		return true
	})
	s.wg.Wait()
}

// DialFunc opens a connection to a fixed peer. The network simulator and
// plain net.Dial both fit this shape.
type DialFunc func() (net.Conn, error)

// Client issues calls to one server over a bounded pool of connections.
// Each call reserves a stream on a pooled connection (sharing it with
// its siblings, or dialling), performs one framed exchange on it, and
// gives it back. Calls from different goroutines therefore proceed in
// parallel instead of serialising on a single exchange.
type Client struct {
	dial DialFunc

	// DialTimeout bounds each connection attempt (0 = unbounded).
	DialTimeout time.Duration
	// CallTimeout bounds each call attempt end to end — request write
	// through response read (0 = unbounded). A stalled or half-dead
	// replica then costs one timeout, not a hang.
	CallTimeout time.Duration
	// Retry, when set, governs redialling and re-issuing after transient
	// failures with exponential backoff. When nil, a call is retried
	// once, at once, and only when the failure hit a reused (possibly
	// stale) pooled connection.
	Retry *RetryPolicy
	// Telemetry records per-op call counts, retry counts, pool activity
	// and spans; nil falls back to the process-wide telemetry.Default().
	Telemetry *telemetry.Telemetry
	// Pool bounds the connection pool; the zero value means up to
	// DefaultMaxConns concurrent connections.
	Pool PoolConfig
	// Clock is the time source for call deadlines (nil = real clock).
	// Tests inject a fake so deadline behaviour replays deterministically.
	Clock clock.Clock
	// Addr, when set, is the contact address this client dials, used
	// purely as the telemetry key for per-address replica health: every
	// call attempt records a success (with its RTT) or failure sample
	// into Telemetry.Health under this label. Empty disables health
	// recording. Set before the first call.
	Addr string

	mu      sync.Mutex
	conns   []*poolConn   // live pooled connections
	dialing bool          // a dial is in flight (there is at most one)
	notify  chan struct{} // closed+replaced when stream capacity frees up

	// BytesSent and BytesReceived count the bytes of every frame written
	// and read, headers included (the negotiation preamble and accept are
	// not frames, even where the preamble shares its first frame's write),
	// used by the benchmark harness to report protocol overhead.
	BytesSent     atomic.Uint64
	BytesReceived atomic.Uint64
}

// NewClient returns a client that connects lazily using dial.
func NewClient(dial DialFunc) *Client {
	return &Client{dial: dial}
}

// Configure applies cfg's timeouts, retry policy, telemetry and pool
// bounds to the client and returns it. Configure before the first call;
// the pool's size is latched when the first call runs.
func (c *Client) Configure(cfg Config) *Client {
	c.DialTimeout = cfg.DialTimeout
	c.CallTimeout = cfg.CallTimeout
	c.Retry = cfg.Retry
	c.Telemetry = cfg.Telemetry
	c.Pool = cfg.Pool
	if cfg.Addr != "" {
		// An empty cfg.Addr preserves an address set at construction
		// (object.NewClient knows it; a shared Config does not).
		c.Addr = cfg.Addr
	}
	return c
}

// Config bundles the robustness and observability knobs threaded through
// every RPC call site: attempt timeouts, the retry policy, the telemetry
// sink and the connection-pool bounds. The zero Config leaves a client
// with unbounded waits, legacy single-retry semantics, the shared
// default telemetry and a DefaultMaxConns-sized pool.
type Config struct {
	DialTimeout time.Duration
	CallTimeout time.Duration
	Retry       *RetryPolicy
	Telemetry   *telemetry.Telemetry
	Pool        PoolConfig
	// Addr labels health samples with the peer's contact address (see
	// Client.Addr). Empty leaves any address set at construction.
	Addr string
}

// Call sends op with body and waits for the response. ctx cancellation
// aborts the wait for a stream slot, dialling and the wait for the
// response. With a RetryPolicy configured it retries transient failures
// with backoff; otherwise it retries once when the failure hit a reused
// pooled connection. Every call is recorded as one rpc.call span (annotated
// with the attempt count) and one rpc_calls_total{op,outcome} increment;
// extra attempts also count into rpc_retries_total. When ctx carries a
// span context the rpc.call span joins that trace, and the span's own
// context rides the wire so the server's rpc.serve span joins it too.
// Every attempt additionally records a per-address health sample when
// Addr is set — except attempts that failed only because ctx was
// already cancelled or past its deadline, which say nothing about the
// replica and are not held against it.
func (c *Client) Call(ctx context.Context, op string, body []byte) ([]byte, error) {
	tel := telemetry.Or(c.Telemetry)
	caller := telemetry.SpanContextFrom(ctx)
	sp := tel.Tracer.StartSpanFrom("rpc.call", caller)
	sp.Annotate("op", op)

	// When the caller is tracing, the rpc.call span is the wire-
	// propagated parent: the server's rpc.serve span nests under it,
	// completing the client→server tree. A call outside any trace stays
	// untraced on the wire (the peer starts its own root, unmarked).
	var wire telemetry.SpanContext
	if caller.Valid() {
		wire = sp.Context()
	}
	var resp []byte
	attempts, err := c.retrying(ctx, tel, true, func() (reused bool, err error) {
		resp, reused, err = c.attempt(ctx, wire, op, body)
		return reused, err
	})
	outcome := "ok"
	if err != nil {
		outcome = "error"
		sp.Annotate("error", err.Error())
	}
	sp.Annotate("attempts", strconv.Itoa(attempts))
	sp.Annotate("outcome", outcome)
	sp.End()
	tel.RPCCalls.With(op, outcome).Inc()
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// Open readies the pool for calls without making one: it reserves a
// stream, dialling a connection unless a live one is pooled, and gives
// the stream straight back, leaving the connection warm for the next
// call. It writes nothing: a connection's preamble rides its first call
// (see dialConn), so a dial proves only that the peer accepts
// connections. Dial failures are retried, and recorded as health
// failures, as a call's would be; a successful dial records no sample,
// since its time says nothing about the peer's round trip.
func (c *Client) Open(ctx context.Context) error {
	_, err := c.retrying(ctx, telemetry.Or(c.Telemetry), false, func() (reused bool, err error) {
		var pc *poolConn
		if pc, reused, err = c.acquireStream(ctx); err == nil {
			c.releaseStream(pc)
		}
		return reused, err
	})
	return err
}

// retrying runs attempt until it succeeds or the retry rules end it, and
// returns the number of attempts made. Without a RetryPolicy a failed
// attempt is repeated once, at once, and only when it hit a reused
// (possibly stale) pooled connection; with one, transient failures are
// retried with backoff up to the policy's attempts. Every failed attempt
// records a health failure when Addr is set — except one that failed
// only because ctx had already ended, which says nothing about the
// replica — and, when timed, every successful one its RTT.
func (c *Client) retrying(ctx context.Context, tel *telemetry.Telemetry, timed bool, attempt func() (reused bool, err error)) (int, error) {
	maxAttempts := 2
	if c.Retry != nil {
		maxAttempts = c.Retry.Attempts()
	}
	for attempts := 1; ; attempts++ {
		start := c.clock().Now()
		reused, err := attempt()
		switch {
		case err == nil:
			if timed {
				tel.Health.RecordSuccess(c.Addr, c.clock().Now().Sub(start))
			}
		case ctx.Err() == nil:
			tel.Health.RecordFailure(c.Addr)
		}
		if err == nil || !Retryable(err) || ctx.Err() != nil || attempts == maxAttempts || (c.Retry == nil && !reused) {
			return attempts, err
		}
		tel.RPCRetries.Inc()
		if c.Retry != nil {
			c.Retry.clock().Sleep(c.Retry.Backoff(attempts))
		}
	}
}

// attempt performs one complete call attempt: reserve a stream on a
// pooled connection (dialling if necessary), exchange one frame pair on
// it, and give the stream back. sc is the trace context to propagate.
// reused reports whether the attempt rode an already-open (possibly
// stale) connection.
func (c *Client) attempt(ctx context.Context, sc telemetry.SpanContext, op string, body []byte) (resp []byte, reused bool, err error) {
	pc, reused, err := c.acquireStream(ctx)
	if err != nil {
		return nil, false, err
	}
	resp, err = pc.roundTrip(ctx, sc, op, body)
	c.releaseStream(pc)
	return resp, reused, err
}

// clock returns the client's time source.
func (c *Client) clock() clock.Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return clock.Real
}

// deadline returns the tightest of ctx's deadline and now plus each
// positive limit — the zero time when nothing bounds the wait.
func (c *Client) deadline(ctx context.Context, limits ...time.Duration) time.Time {
	deadline, _ := ctx.Deadline()
	for _, limit := range limits {
		if limit <= 0 {
			continue
		}
		if d := c.clock().Now().Add(limit); deadline.IsZero() || d.Before(deadline) {
			deadline = d
		}
	}
	return deadline
}

// ctxError folds ctx's cancellation cause into err so callers can
// errors.Is against context.Canceled / context.DeadlineExceeded when the
// I/O failure was cancellation-induced.
func ctxError(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("%w (%v)", cerr, err)
	}
	return err
}
