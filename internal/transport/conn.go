package transport

// One pooled client connection, in either framing.
//
// A poolConn carries up to budget concurrent calls. Each call reserves a
// stream, writes one request frame, and parks on a per-stream channel
// until the connection's read loop — its only reader — delivers the
// response. On a v2 connection frames name their stream, responses
// arrive in whatever order the server finishes them, and one slow call
// never blocks its siblings. A v1 frame names nothing: the budget is one
// and a response belongs to the single pending stream.
//
// A negotiating connection needs no exchange of its own. Its first call
// writes the preamble and its v2-framed request in one write (the first
// flight), and its read loop reads the accept ahead of the first
// response, so opening the connection costs the call no extra round trip.
// Until the accept arrives the connection carries that one call; the
// accept raises the budget and wakes the calls waiting for it. A
// negotiating connection speaks v2 or fails: a peer that hangs up before
// the accept fails the call like any dropped connection, and a v1 accept
// fails it permanently. Neither is remembered; the next dial negotiates
// again.

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"globedoc/internal/telemetry"
)

// DefaultStreamBudget is the per-connection concurrent-stream bound
// used when PoolConfig.StreamBudget is zero.
const DefaultStreamBudget = 32

type streamResult struct {
	payload []byte
	err     error
}

// poolConn is one pooled connection and the streams in flight on it.
type poolConn struct {
	c    *Client
	conn net.Conn

	// version is the connection's framing, fixed at dial: a negotiating
	// connection frames v2 from its first write, ahead of the accept.
	version byte

	wmu sync.Mutex // serialises frame writes
	// preamble rides in front of the connection's first frame; the first
	// write takes it. Guarded by wmu.
	preamble []byte

	mu          sync.Mutex
	budget      int                          // concurrent streams: 1 for v1 and before the accept, then Pool.streamBudget()
	negotiating bool                         // the preamble's accept has not arrived
	streams     map[uint32]chan streamResult // in-flight calls by stream ID
	nextID      uint32
	inflight    int       // reserved stream slots (also counts calls mid-setup)
	idleSince   time.Time // when inflight last dropped to zero
	draining    bool      // Close was called mid-flight: close when drained
	dead        bool
	deadErr     error
}

// register reserves a fresh stream ID and its response channel.
func (pc *poolConn) register() (uint32, chan streamResult, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.dead {
		return 0, nil, pc.deadErr
	}
	pc.nextID++
	id := pc.nextID
	ch := make(chan streamResult, 1)
	pc.streams[id] = ch
	return id, ch, nil
}

// take removes and returns the stream a response belongs to: the one the
// frame names on a v2 connection, the only pending one on a v1
// connection (stream IDs start at 1, so with none pending nothing
// matches).
func (pc *poolConn) take(id uint32) (chan streamResult, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.version < V2 {
		for id = range pc.streams {
		}
	}
	ch, ok := pc.streams[id]
	delete(pc.streams, id)
	return ch, ok
}

// abandon gives up on a stream whose caller stopped waiting (timeout or
// cancellation). A late v2 response names its stream and readLoop drops
// it, so the connection and its sibling streams stay healthy. A late v1
// response names nothing and would be handed to the connection's next
// caller, so a v1 connection dies with its abandoned call — and so does
// one whose accept never came, which has proved nothing.
func (pc *poolConn) abandon(id uint32, why error) {
	pc.mu.Lock()
	unproven := pc.version < V2 || pc.negotiating
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
// — an idle reap, a drain, Client.Close — reporting false when it already
// was dead. The caller holds pc.mu.
func (pc *poolConn) retireLocked() bool {
	if pc.dead {
		return false
	}
	pc.dead = true
	pc.deadErr = ErrClosed
	pc.conn.Close()
	telemetry.Or(pc.c.Telemetry).PoolConns.Add(-1)
	return true
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
	pc.streams = make(map[uint32]chan streamResult)
	pc.mu.Unlock()
	pc.conn.Close()
	for _, ch := range pending {
		ch <- streamResult{err: err}
	}
	telemetry.Or(pc.c.Telemetry).PoolConns.Add(-1)
	pc.c.wake()
}

// awaitAccept is the read loop's first read on a negotiating connection:
// the peer's answer to the preamble. A v2 accept raises the stream
// budget and wakes the calls waiting for it. A connection that ends
// first — a reset, or a peer older than negotiation hanging up on the
// preamble — fails its call as any dropped connection does. A v1 accept
// fails it permanently with ErrVersionMismatch: the v2-framed first
// request is already on the wire, and a v1 peer decodes it as a v1 frame
// — its type byte as a one-byte operation, the rest as trailing bytes —
// and refuses it unrun.
func (pc *poolConn) awaitAccept(conn net.Conn) bool {
	c := pc.c
	var accept [preambleLen]byte
	if _, err := io.ReadFull(conn, accept[:]); err != nil {
		pc.fail(err)
		return false
	}
	agreed, err := parseAccept(accept[:], MaxSupportedVersion)
	if err != nil {
		pc.fail(err)
		return false
	}
	negotiated := telemetry.Or(c.Telemetry).Negotiations.With(versionLabel(agreed))
	if agreed < V2 {
		negotiated.Inc()
		pc.fail(Permanent(fmt.Errorf("%w: peer negotiated v%d", ErrVersionMismatch, agreed)))
		return false
	}
	pc.mu.Lock()
	pc.negotiating = false
	pc.budget = c.Pool.streamBudget()
	pc.mu.Unlock()
	negotiated.Inc() // counted once the budget is up
	c.wake()
	return true
}

// readLoop is the single reader of a connection: after a negotiating
// connection's accept, it hands each response frame to the stream
// waiting for it. A v2 response for an unknown stream is dropped (the
// caller timed out first); an unsolicited v1 response, any read error
// and any protocol violation kill the connection and fail every pending
// stream. conn is the shutdown handle: closing it (fail, a reap,
// Client.Close) unblocks the read and ends the loop.
func (pc *poolConn) readLoop(conn net.Conn) {
	// Only awaitAccept, on this goroutine, clears negotiating.
	if pc.negotiating && !pc.awaitAccept(conn) {
		return
	}
	for {
		f, wire, err := readFramed(conn, pc.version, frameResponse)
		if err != nil {
			pc.fail(err)
			return
		}
		pc.c.BytesReceived.Add(uint64(wire))
		ch, ok := pc.take(f.StreamID)
		if ok {
			ch <- streamResult{payload: f.Payload} // buffered: never blocks
		} else if pc.version < V2 {
			pc.fail(fmt.Errorf("%w: v1 response with no call pending", ErrProtocol))
			return
		}
	}
}

// roundTrip performs one framed exchange on a reserved stream, bounded
// by the tighter of CallTimeout and ctx (see abandon for what giving up
// costs); on a negotiating connection the same bound covers the accept.
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

	// v2 carries sc in the frame header; v1 has no place for it.
	f := v2Frame{Type: frameRequest, StreamID: id, Trace: sc}
	head := requestHead(op, len(body))
	deadline := c.deadline(ctx, c.CallTimeout)
	pc.wmu.Lock()
	pre := pc.preamble
	pc.preamble = nil
	var werr error
	if !deadline.IsZero() {
		werr = pc.conn.SetWriteDeadline(deadline)
	}
	sent := 0
	if werr == nil {
		sent, werr = writeFramed(pc.conn, pre, pc.version, f, head, body)
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
	c.BytesSent.Add(uint64(sent - len(pre))) // the preamble is not a frame

	var timeout <-chan time.Time
	if c.CallTimeout > 0 {
		timeout = c.clock().After(c.CallTimeout)
	}
	select {
	case r := <-ch:
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

// dialConn opens one connection for the pool and alone decides its
// framing. A client pinned to V1 dials plain v1. Any other negotiates:
// the connection frames v2 from its first write, which carries the
// preamble, and its read loop takes the accept (awaitAccept). Dialling
// writes nothing.
func (c *Client) dialConn(ctx context.Context) (*poolConn, error) {
	conn, err := c.dialContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("transport: dial: %w", err)
	}
	tel := telemetry.Or(c.Telemetry)
	tel.PoolDials.Inc()
	pc := &poolConn{c: c, conn: conn, version: V1, budget: 1, streams: make(map[uint32]chan streamResult)}
	if c.Version != V1 {
		pc.version, pc.negotiating, pc.preamble = V2, true, clientPreamble(MaxSupportedVersion)
	}
	pc.idleSince = c.clock().Now()
	tel.PoolConns.Add(1)
	go pc.readLoop(pc.conn)
	return pc, nil
}
