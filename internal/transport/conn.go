package transport

// One pooled client connection.
//
// A poolConn carries up to DefaultStreamBudget concurrent calls. Each
// call reserves a stream, writes one request frame, and parks on a
// per-stream channel until the connection's read loop — its only reader
// — delivers the response. Frames name their stream, responses arrive in
// whatever order the server finishes them, and one slow call never
// blocks its siblings.
//
// The hello needs no exchange of its own. A connection's first write
// carries the hello and a request together (the first flight), and its
// read loop reads the server's answer ahead of the first response, so
// opening the connection costs the call no extra round trip. The answer
// proves the connection (see abandon). A peer that hangs up before the
// answer, or answers anything but the hello, fails the connection's
// calls like any dropped connection, and nothing is remembered: the next
// call dials afresh.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"globedoc/internal/telemetry"
)

// DefaultStreamBudget bounds concurrent streams per connection: a client
// carries up to MaxConns × DefaultStreamBudget calls in flight.
const DefaultStreamBudget = 32

type streamResult struct {
	payload []byte
	err     error
}

// poolConn is one pooled connection and the streams in flight on it.
type poolConn struct {
	c    *Client
	conn net.Conn

	wmu sync.Mutex // serialises frame writes
	// hello rides in front of the connection's first frame; the first
	// write takes it. Guarded by wmu.
	hello []byte

	// lenBuf is the read loop's scratch: the answer, then each frame's
	// length prefix.
	lenBuf [4]byte

	mu       sync.Mutex
	unproven bool                         // the server's answer has not arrived
	streams  map[uint32]chan streamResult // in-flight calls by stream ID
	nextID   uint32
	inflight int  // reserved stream slots (also counts calls mid-setup)
	draining bool // Close was called mid-flight: close when drained
	dead     bool
	deadErr  error
}

// resultChans holds stream result channels for reuse. A channel goes
// back only once its caller has received the one result it carries:
// nothing else sends on it then, because take and fail each remove it
// from the stream table before their one send. An abandoned stream's
// channel may still get a late send, so it is never put back.
var resultChans = sync.Pool{New: func() any { return make(chan streamResult, 1) }}

// register reserves a fresh stream ID and its response channel.
func (pc *poolConn) register() (uint32, chan streamResult, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.dead {
		return 0, nil, pc.deadErr
	}
	pc.nextID++
	id := pc.nextID
	ch := resultChans.Get().(chan streamResult)
	pc.streams[id] = ch
	return id, ch, nil
}

// take removes and returns the stream a response frame names.
func (pc *poolConn) take(id uint32) (chan streamResult, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	ch, ok := pc.streams[id]
	delete(pc.streams, id)
	return ch, ok
}

// abandon gives up on a stream whose caller stopped waiting (timeout or
// cancellation). A late response names its stream and readLoop drops
// it, so the connection and its sibling streams stay healthy — unless
// the server's answer never came: the connection has proved nothing and
// dies with its abandoned call.
func (pc *poolConn) abandon(id uint32, why error) {
	pc.mu.Lock()
	unproven := pc.unproven
	delete(pc.streams, id)
	pc.mu.Unlock()
	if unproven {
		pc.fail(fmt.Errorf("call abandoned: %v", why))
	}
}

// idle reports whether the connection is live with no stream in flight.
func (pc *poolConn) idle() bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return !pc.dead && pc.inflight == 0
}

// retireLocked marks a connection no stream is using dead and closes it
// — a drain, Client.Close — unless it already was dead. The caller holds
// pc.mu.
func (pc *poolConn) retireLocked() {
	if pc.dead {
		return
	}
	pc.dead = true
	pc.deadErr = ErrClosed
	pc.conn.Close()
	telemetry.Or(pc.c.Telemetry).PoolConns.Add(-1)
}

// fail marks the connection dead, closes it and fails every pending
// stream with an error that is ErrClosed and wraps cause, so callers can
// still match what went wrong underneath. Only the first failure counts —
// the read loop ends here too when the pool itself closed the connection,
// and then nothing is built or delivered.
func (pc *poolConn) fail(cause error) {
	pc.mu.Lock()
	if pc.dead {
		pc.mu.Unlock()
		return
	}
	err := fmt.Errorf("%w (%w)", ErrClosed, cause)
	pc.dead = true
	pc.deadErr = err
	pending := pc.streams
	pc.streams = nil // a dead conn registers no stream
	pc.mu.Unlock()
	pc.conn.Close()
	for _, ch := range pending {
		ch <- streamResult{err: err}
	}
	telemetry.Or(pc.c.Telemetry).PoolConns.Add(-1)
	pc.c.wake()
}

// awaitAnswer is the read loop's first read: the server's answer to the
// hello, which must be the hello itself. It proves the connection. A
// connection that ends first — a reset, or a peer hanging up on the
// hello — or answers anything else fails its calls as any dropped
// connection does.
func (pc *poolConn) awaitAnswer(conn net.Conn) bool {
	answer := pc.lenBuf[:len(hello)]
	if _, err := io.ReadFull(conn, answer); err != nil {
		pc.fail(err)
		return false
	}
	if !bytes.Equal(answer, hello[:]) {
		pc.fail(fmt.Errorf("%w: answer % x is not the hello", ErrProtocol, answer))
		return false
	}
	pc.mu.Lock()
	pc.unproven = false
	pc.mu.Unlock()
	return true
}

// readLoop is the single reader of a connection: after the answer, it
// hands each response frame to the stream waiting for it. A response for
// an unknown stream is dropped (the caller timed out first); any read
// error and any protocol violation kill the connection and fail every
// pending stream. conn is the shutdown handle: closing it (fail,
// Client.Close) unblocks the read and ends the loop.
func (pc *poolConn) readLoop(conn net.Conn) {
	if !pc.awaitAnswer(conn) {
		return
	}
	for {
		f, wire, err := readFramed(conn, frameResponse, &pc.lenBuf)
		if err != nil {
			pc.fail(err)
			return
		}
		pc.c.BytesReceived.Add(uint64(wire))
		if ch, ok := pc.take(f.StreamID); ok {
			ch <- streamResult{payload: f.Payload} // buffered: never blocks
		}
	}
}

// roundTrip performs one framed exchange on a reserved stream, bounded
// by the tighter of CallTimeout and ctx (see abandon for what giving up
// costs); before the answer the same bound covers it.
// A genuinely dead conn is detected by the read loop and fails every
// stream at once.
func (pc *poolConn) roundTrip(ctx context.Context, sc telemetry.SpanContext, op string, body []byte) ([]byte, error) {
	c := pc.c
	tel := telemetry.Or(c.Telemetry)
	id, ch, err := pc.register()
	if err != nil {
		return nil, ctxError(ctx, fmt.Errorf("transport: send %q: %w", op, err))
	}
	tel.StreamsOpened.Inc()
	tel.StreamsActive.Add(1)
	defer tel.StreamsActive.Add(-1)

	f := frame{Type: frameRequest, StreamID: id, Trace: sc}
	var room [headRoom]byte
	head := appendRequestHead(room[:0], op, len(body))
	deadline := c.deadline(ctx, c.CallTimeout)
	pc.wmu.Lock()
	pre := pc.hello
	pc.hello = nil
	var werr error
	if !deadline.IsZero() {
		werr = pc.conn.SetWriteDeadline(deadline)
	}
	sent := 0
	if werr == nil {
		sent, werr = writeFramed(pc.conn, pre, f, head, body)
	}
	if werr == nil && !deadline.IsZero() {
		werr = pc.conn.SetWriteDeadline(time.Time{})
	}
	pc.wmu.Unlock()
	if werr != nil {
		// A failed or half-finished write leaves the shared conn in an
		// unknown framing state: kill it for everyone.
		pc.fail(fmt.Errorf("send failed: %v", werr))
		return nil, ctxError(ctx, fmt.Errorf("transport: send %q: %w", op, werr))
	}
	c.BytesSent.Add(uint64(sent - len(pre))) // the hello is not a frame

	var timeout <-chan time.Time
	if c.CallTimeout > 0 {
		timeout = c.clock().After(c.CallTimeout)
	}
	select {
	case r := <-ch:
		resultChans.Put(ch)
		if r.err != nil {
			return nil, ctxError(ctx, fmt.Errorf("transport: receive %q: %w", op, r.err))
		}
		return decodeResponse(op, r.payload)
	case <-ctx.Done():
		err = fmt.Errorf("transport: awaiting %q: %w", op, ctx.Err())
	case <-timeout:
		err = fmt.Errorf("transport: awaiting %q on stream %d: %w", op, id, os.ErrDeadlineExceeded)
	}
	pc.abandon(id, err)
	return nil, err
}

// dialConn opens one connection for the pool. Its first write carries
// the hello and its read loop takes the answer (awaitAnswer); dialling
// writes nothing.
func (c *Client) dialConn(ctx context.Context) (*poolConn, error) {
	conn, err := c.dialContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("transport: dial: %w", err)
	}
	tel := telemetry.Or(c.Telemetry)
	tel.PoolDials.Inc()
	pc := &poolConn{
		c: c, conn: conn, unproven: true,
		hello: hello[:], streams: make(map[uint32]chan streamResult),
	}
	tel.PoolConns.Add(1)
	go pc.readLoop(pc.conn)
	return pc, nil
}
