// Package transport implements the length-prefixed binary RPC protocol
// spoken between GlobeDoc proxies, object servers, the naming service and
// the location service.
//
// A call is one framed request (operation name + opaque body) answered by
// one framed response (status + error string + opaque body). Bodies are
// encoded by the callers with package enc, keeping this layer free of any
// knowledge of the messages it carries.
//
// One framing carries that exchange: a frame that names a stream, so
// many calls interleave on one connection (frame.go). The client keeps
// one bounded pool of connections (pool.go, conn.go) and the server one
// request loop per connection. A hard frame-size limit defends against
// malicious peers — remember that GlobeDoc clients routinely talk to
// untrusted servers.
//
// Every peer is built from this tree, so nothing is negotiated: a
// connection opens with one fixed 4-byte hello and the server answers
// with the same bytes. A server drops a connection that does not open
// with the hello. A client whose peer hangs up before the answer, or
// answers anything else, fails the attempt like any dropped connection
// (ErrProtocol for a wrong answer), retryably. A Client remembers
// nothing about its peer, so no fault changes how it makes its next
// call.
//
// A call allocates little beyond the frames it reads. A frame is
// written from a pooled buffer that goes back when its Write returns, a
// stream's result channel is reused once its caller has received the
// reply, a frame's length prefix is read into per-connection scratch,
// and a served connection's state is one object. A received frame is
// never pooled: everything decoded from it aliases it (readFrame).
package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
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

// frameBuf returns buf emptied, with room for hdr header bytes plus a
// body of n bytes when it is small enough to ride in the same Write.
func frameBuf(buf []byte, hdr, n int) []byte {
	if n <= coalesceMax {
		hdr += n
	}
	return slices.Grow(buf[:0], hdr)
}

// writeBufs holds the buffers frames are written from (writeFramed).
// A buffer is taken for one frame and put back as soon as that frame's
// Write returns, so it never outlives the Write; frames are read into
// buffers of their own, which are never pooled (see readFrame).
var writeBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledWrite bounds the buffers writeBufs keeps: a coalesced frame
// with room to spare. A larger one, made for a long error message, is
// left to the collector.
const maxPooledWrite = 2 * coalesceMax

// putWriteBuf returns buf, the buffer taken as bp, to writeBufs.
func putWriteBuf(bp *[]byte, buf []byte) {
	if cap(buf) > maxPooledWrite {
		return
	}
	*bp = buf[:0]
	writeBufs.Put(bp)
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

// headRoom is the stack space a frame writer encodes an envelope head
// in: every operation name and every body length fit, and only a long
// error message makes appendResponseHead grow it onto the heap.
const headRoom = 64

// appendRequestHead appends a request envelope up to, and not including,
// its body: the operation name and the body's length prefix, in package
// enc's encoding. The envelope is head‖body, sent by the frame writers
// without joining the two parts (see appendResponseHead), so a request
// body reaches the socket uncopied.
func appendRequestHead(dst []byte, op string, bodyLen int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(op)))
	dst = append(dst, op...)
	return binary.AppendUvarint(dst, uint64(bodyLen))
}

// decodeRequest decodes a request envelope, rejecting any trailing byte.
// The returned body aliases payload (see readFrame).
func decodeRequest(payload []byte) (op string, body []byte, err error) {
	r := enc.NewReader(payload)
	op = r.String()
	body = r.BytesPrefixed()
	if err := r.Finish(); err != nil {
		return "", nil, err
	}
	return op, body, nil
}

// appendResponseHead appends a response envelope up to, and not
// including, its body: status, error string and the body's length
// prefix, in package enc's encoding. The envelope is head‖body; the
// frame writers send the two parts without joining them, so a handler's
// body reaches the socket uncopied. A failed call carries its message
// and an empty body.
func appendResponseHead(dst []byte, bodyLen int, callErr error) []byte {
	var status byte
	var msg string
	if callErr != nil {
		status, msg, bodyLen = 1, callErr.Error(), 0
	}
	dst = append(dst, status)
	dst = binary.AppendUvarint(dst, uint64(len(msg)))
	dst = append(dst, msg...)
	return binary.AppendUvarint(dst, uint64(bodyLen))
}

// decodeResponse decodes a response envelope. The returned body aliases
// payload (see readFrame for why that is safe).
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

// HandlerCtx is a handler that takes the request's context. Its ctx carries
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
	handlers map[string]route

	closeMu   sync.Mutex // orders registering below against Close
	listeners sync.Map   // net.Listener -> struct{}
	conns     sync.Map   // net.Conn -> struct{}
	closed    atomic.Bool
	wg        sync.WaitGroup
}

// route is one registered handler, in the shape it was registered in:
// exactly one of plain and ctx is set.
type route struct {
	plain Handler
	ctx   HandlerCtx
}

// NewServer returns a server with no handlers registered.
func NewServer() *Server {
	return &Server{handlers: make(map[string]route)}
}

// Handle registers h for the given operation name, replacing any previous
// handler. Its one response buffer is framed from the serving
// goroutine's stack, so answering it allocates no buffer list.
func (s *Server) Handle(op string, h Handler) {
	s.register(op, route{plain: h})
}

// HandleCtx registers a context-aware handler for the given operation
// name, replacing any previous handler.
func (s *Server) HandleCtx(op string, h HandlerCtx) {
	s.register(op, route{ctx: h})
}

func (s *Server) register(op string, r route) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[op] = r
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
// is its hello and first request in one write, and a cold client's
// first flights are small: with the hello and the trace extension,
// name.resolve is 56 bytes, loc.lookup2 71 and a cold obj.bind naming one
// element 89 (examples/quickstart). One read of up to 512 bytes takes the
// whole flight, so the server answers it without reading the socket
// again — no second turnaround between the answer and the response.
const firstReadLen = 512

// servedConn is one served connection and its state, all in one object:
// the read-ahead of its first read, the request loop's length scratch,
// the response writers' mutex and the handler count that bounds and
// tracks the handlers in flight. Closing the connection ends the request
// loop's read and fails any handler's write.
type servedConn struct {
	net.Conn // read through the read-ahead (Read)
	s        *Server

	// rest is what the first read took beyond what serveConn consumed:
	// Read returns it ahead of the conn.
	rest   []byte
	first  [firstReadLen]byte
	lenBuf [4]byte // the request loop's scratch for each frame's length

	wmu sync.Mutex // serialises response frames

	mu     sync.Mutex
	freed  sync.Cond // signalled when a handler finishes; L is &mu
	active int       // handlers in flight, at most DefaultServerStreams
	wg     sync.WaitGroup
}

// Read reads the connection through the bytes its first read took
// beyond the hello.
func (sc *servedConn) Read(p []byte) (int, error) {
	if len(sc.rest) == 0 {
		return sc.Conn.Read(p)
	}
	n := copy(p, sc.rest)
	sc.rest = sc.rest[n:]
	return n, nil
}

// serveConn answers the hello and serves the connection. One bounded
// read takes the connection's first bytes, and the first four decide:
// the hello is answered with the hello, and anything else — a bare
// frame, an opener naming another version — drops the connection
// unanswered, before a frame is read. Whatever the read took beyond the
// hello, a first request riding behind it, goes to the request loop
// ahead of the conn.
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
	sc := &servedConn{Conn: conn, s: s}
	sc.freed.L = &sc.mu
	n, err := io.ReadAtLeast(conn, sc.first[:], len(hello))
	if err != nil || !bytes.Equal(sc.first[:len(hello)], hello[:]) {
		return
	}
	sc.rest = sc.first[len(hello):n]
	if _, err := conn.Write(hello[:]); err != nil {
		return
	}
	sc.serve()
}

// serve is the request loop: it reads request frames and handles each
// on its own goroutine, answering on the stream the request arrived on.
// It runs up to DefaultServerStreams handlers at once, so one slow
// handler never blocks its siblings' responses. Any frame that is not a
// well-formed request — including a re-sent hello — drops the
// connection.
func (sc *servedConn) serve() {
	s, conn := sc.s, sc.Conn
	if s.IdleTimeout > 0 {
		// Clear the hello's deadline; from here on reads and writes
		// are armed separately so a parked handler on one stream cannot
		// leave a stale deadline that kills sibling traffic.
		if err := conn.SetDeadline(time.Time{}); err != nil {
			return
		}
	}
	defer sc.wg.Wait()
	for {
		if s.IdleTimeout > 0 {
			var deadline time.Time // zero: no idle reaping while streams are active
			if sc.handlers() == 0 {
				deadline = s.clock().Now().Add(s.IdleTimeout)
			}
			if err := conn.SetReadDeadline(deadline); err != nil {
				return
			}
		}
		f, _, err := readFramed(sc, frameRequest, &sc.lenBuf)
		if err != nil {
			return
		}
		sc.acquire() // backpressure: bound concurrent handlers
		sc.wg.Add(1)
		go sc.handle(f)
	}
}

// handlers returns the number of handlers in flight.
func (sc *servedConn) handlers() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.active
}

// acquire waits until fewer than DefaultServerStreams handlers are in
// flight and counts one more.
func (sc *servedConn) acquire() {
	sc.mu.Lock()
	for sc.active == DefaultServerStreams {
		sc.freed.Wait()
	}
	sc.active++
	sc.mu.Unlock()
}

// release counts a handler finished and reports whether it was the last
// in flight.
func (sc *servedConn) release() (idle bool) {
	sc.mu.Lock()
	sc.active--
	idle = sc.active == 0
	sc.mu.Unlock()
	sc.freed.Signal()
	return idle
}

// handle runs one request's handler and writes its response frame.
func (sc *servedConn) handle(f frame) {
	defer sc.wg.Done()
	s, conn := sc.s, sc.Conn
	var one [1][]byte // a plain handler's reply
	resp, err := s.dispatch(f.Payload, f.Trace, &one)
	var room [headRoom]byte
	head := appendResponseHead(room[:0], bufsLen(resp), err)
	sc.wmu.Lock()
	var werr error
	if s.IdleTimeout > 0 {
		werr = conn.SetWriteDeadline(s.clock().Now().Add(s.IdleTimeout))
	}
	if werr == nil {
		_, werr = writeFramed(conn, nil, frame{Type: frameResponse, StreamID: f.StreamID}, head, resp...)
	}
	sc.wmu.Unlock()
	if sc.release() && s.IdleTimeout > 0 && werr == nil {
		// The conn just quiesced: restart the idle clock under the
		// blocked read loop (SetReadDeadline takes effect on an
		// in-progress Read).
		werr = conn.SetReadDeadline(s.clock().Now().Add(s.IdleTimeout))
	}
	if werr != nil {
		conn.Close() // unblocks the read loop; conn is unusable
	}
}

// dispatch decodes one request payload, runs its handler and returns
// the response body buffers, which are written to the connection as
// returned — a handler answers with bytes it will not modify afterwards
// (the object server's precomputed wire tables are replaced whole, never
// edited in place) — or the error the response reports, with no body.
// sc is the span context the frame header carried; a valid one is
// adopted so the rpc.serve span — and every handler span under it —
// exports with the caller's trace ID. A plain handler's reply is
// returned in one, the caller's.
func (s *Server) dispatch(payload []byte, sc telemetry.SpanContext, one *[1][]byte) ([][]byte, error) {
	op, body, err := decodeRequest(payload)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	r, ok := s.handlers[op]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("unknown operation %q", op)
	}
	tel := telemetry.Or(s.Telemetry)
	sp := tel.Tracer.StartRPCSpan("rpc.serve", sc)
	sp.Annotate("op", op)
	if sc.Valid() {
		// The parent span lives in the calling process: mark the
		// boundary for the trace renderer.
		sp.Annotate("remote", "true")
	}
	//lint:ignore ctxfirst the server is this process's request-tree root: there is no upstream ctx to inherit, and cancellation arrives as connection teardown, not ctx propagation
	ctx := telemetry.ContextWith(context.Background(), sp)
	var resp [][]byte
	if r.plain != nil {
		one[0], err = r.plain(body)
		resp = one[:]
	} else {
		resp, err = r.ctx(ctx, body)
	}
	outcome := "ok"
	if err != nil {
		outcome = "error"
		resp = nil
	}
	sp.Annotate("outcome", outcome)
	sp.End()
	tel.RPCServed.With(op, outcome).Inc()
	return resp, err
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
	// and read, headers included (the hello and its answer are not
	// frames, even where the hello shares its first frame's write),
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
	sp := tel.Tracer.StartRPCSpan("rpc.call", caller)
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
// call. It writes nothing: a connection's hello rides its first call
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
