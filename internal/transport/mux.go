package transport

// Client-side stream multiplexing for transport v2.
//
// A muxConn is one negotiated v2 connection carrying many concurrent
// calls: each call reserves a stream ID, writes one request frame, and
// parks on a per-stream channel until the connection's read loop
// delivers the matching response frame. Responses arrive in whatever
// order the server finishes them, so one slow call never blocks its
// siblings — the pool's one-call-per-connection rule is replaced by a
// per-connection stream budget.

import (
	"context"
	"errors"
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

// errFellBackToV1 is an internal sentinel: dialling for a v2 stream
// discovered (and latched) that the peer only speaks v1, so the caller
// must re-route the call through the classic path.
var errFellBackToV1 = errors.New("transport: peer negotiated down to v1")

type muxResult struct {
	payload []byte
	err     error
}

// muxConn is one negotiated v2 connection shared by many streams.
type muxConn struct {
	c    *Client
	conn net.Conn

	wmu sync.Mutex // serialises frame writes

	mu        sync.Mutex
	streams   map[uint32]chan muxResult // in-flight calls by stream ID
	nextID    uint32
	inflight  int       // reserved stream slots (also counts calls mid-setup)
	idleSince time.Time // when inflight last dropped to zero
	draining  bool      // Close was called mid-flight: close when drained
	dead      bool
	deadErr   error
}

// register reserves a fresh stream ID and its response channel.
func (mc *muxConn) register() (uint32, chan muxResult, error) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.dead {
		return 0, nil, mc.deadErr
	}
	mc.nextID++
	id := mc.nextID
	ch := make(chan muxResult, 1)
	mc.streams[id] = ch
	return id, ch, nil
}

// forget abandons a stream whose caller gave up (timeout or
// cancellation); a late response frame for it is dropped by readLoop.
func (mc *muxConn) forget(id uint32) {
	mc.mu.Lock()
	delete(mc.streams, id)
	mc.mu.Unlock()
}

// fail marks the connection dead, closes it and delivers err to every
// pending stream. Idempotent: only the first failure counts.
func (mc *muxConn) fail(err error) {
	mc.mu.Lock()
	if mc.dead {
		mc.mu.Unlock()
		return
	}
	mc.dead = true
	mc.deadErr = err
	pending := mc.streams
	mc.streams = make(map[uint32]chan muxResult)
	mc.mu.Unlock()
	mc.conn.Close()
	for _, ch := range pending {
		ch <- muxResult{err: err}
	}
	telemetry.Or(mc.c.Telemetry).PoolConns.Add(-1)
	mc.c.muxWake()
}

// readLoop is the single reader of a v2 connection: it matches response
// frames to waiting streams by ID. Responses for unknown streams are
// dropped (the caller timed out first); any read error or protocol
// violation kills the connection and fails every pending stream. conn
// is the shutdown handle: closing it (fail, Client.Close) unblocks the
// read and ends the loop.
func (mc *muxConn) readLoop(conn net.Conn) {
	for {
		f, err := readV2Frame(conn)
		if err != nil {
			mc.fail(fmt.Errorf("%w (%v)", ErrClosed, err))
			return
		}
		if f.Type != frameResponse {
			mc.fail(fmt.Errorf("%w: unexpected frame type 0x%02x from server", ErrProtocol, f.Type))
			return
		}
		mc.c.BytesReceived.Add(uint64(f.wireLen()))
		mc.mu.Lock()
		ch, ok := mc.streams[f.StreamID]
		if ok {
			delete(mc.streams, f.StreamID)
		}
		mc.mu.Unlock()
		if ok {
			ch <- muxResult{payload: f.Payload} // buffered: never blocks
		}
	}
}

// muxWake wakes every caller waiting in acquireStream for stream
// capacity; waiters re-check the pool state and park again if nothing
// is free for them.
func (c *Client) muxWake() {
	c.muxMu.Lock()
	c.muxWakeLocked()
	c.muxMu.Unlock()
}

func (c *Client) muxWakeLocked() {
	if c.muxNotify != nil {
		close(c.muxNotify)
		c.muxNotify = nil
	}
}

// attemptMux performs one call attempt over a multiplexed stream.
// reused reports whether the stream rode an already-open connection.
func (c *Client) attemptMux(ctx context.Context, sc telemetry.SpanContext, op string, body []byte) (resp []byte, reused bool, err error) {
	mc, reused, err := c.acquireStream(ctx)
	if err != nil {
		return nil, false, err
	}
	defer c.releaseStream(mc)
	resp, err = c.muxRoundTrip(ctx, mc, sc, op, body)
	return resp, reused, err
}

// acquireStream reserves a stream slot on a v2 connection: it prefers
// the least-loaded live connection with budget headroom, dials a new
// connection while the MaxConns bound has headroom, and otherwise
// blocks until a sibling stream finishes or ctx is cancelled. On
// discovering a v1-only peer it latches the downgrade and returns
// errFellBackToV1.
func (c *Client) acquireStream(ctx context.Context) (*muxConn, bool, error) {
	tel := telemetry.Or(c.Telemetry)
	budget := c.Pool.streamBudget()
	c.mu.Lock()
	c.closed = false // a call after Close reopens the pool, as in v1
	c.mu.Unlock()
	c.muxMu.Lock()
	for {
		if err := ctx.Err(); err != nil {
			c.muxMu.Unlock()
			return nil, false, fmt.Errorf("transport: awaiting stream slot: %w", err)
		}
		if c.Version != V2 && byte(c.peerVersion.Load()) == V1 {
			// A concurrent dial latched the downgrade while we waited.
			c.muxMu.Unlock()
			return nil, false, errFellBackToV1
		}
		now := c.clock().Now()
		// Drop dead conns from the list and lazily reap idle ones that
		// outlived IdleTimeout, exactly like the v1 pool.
		kept := c.muxConns[:0]
		var reaped []*muxConn
		for _, mc := range c.muxConns {
			mc.mu.Lock()
			if mc.dead {
				mc.mu.Unlock()
				continue
			}
			if c.Pool.IdleTimeout > 0 && mc.inflight == 0 && now.Sub(mc.idleSince) > c.Pool.IdleTimeout {
				mc.dead = true
				mc.deadErr = ErrClosed
				mc.mu.Unlock()
				reaped = append(reaped, mc)
				continue
			}
			mc.mu.Unlock()
			kept = append(kept, mc)
		}
		c.muxConns = kept
		for _, mc := range reaped {
			mc.conn.Close() // readLoop's fail() sees dead and no-ops
			tel.PoolIdleClosed.Inc()
			tel.PoolConns.Add(-1)
		}

		// Least-loaded live conn with stream headroom wins.
		var best *muxConn
		bestLoad := 0
		for _, mc := range c.muxConns {
			mc.mu.Lock()
			ok := !mc.dead && mc.inflight < budget
			load := mc.inflight
			mc.mu.Unlock()
			if ok && (best == nil || load < bestLoad) {
				best, bestLoad = mc, load
			}
		}
		if best != nil {
			best.mu.Lock()
			if !best.dead && best.inflight < budget {
				best.inflight++
				best.mu.Unlock()
				c.muxMu.Unlock()
				tel.PoolReuse.Inc()
				return best, true, nil
			}
			best.mu.Unlock()
			continue // raced with conn death; re-scan
		}

		// Dials are singleflight: a cold burst coalesces onto the one
		// connection being negotiated instead of racing a dial per call
		// (waiters park below and re-check when the dial lands). Another
		// dial starts only once every live conn is stream-saturated.
		if c.muxDialing == 0 && len(c.muxConns) < c.Pool.maxConns() {
			c.muxDialing++
			c.muxMu.Unlock()
			mc, err := c.dialMux(ctx)
			c.muxMu.Lock()
			c.muxDialing--
			c.muxWakeLocked() // a dial slot or fresh stream capacity opened up
			if err != nil {
				c.muxMu.Unlock()
				return nil, false, err
			}
			mc.inflight = 1
			c.muxConns = append(c.muxConns, mc)
			c.muxMu.Unlock()
			return mc, false, nil
		}

		// Every conn is saturated and the conn bound is reached: park
		// until capacity frees up or ctx is cancelled.
		if c.muxNotify == nil {
			c.muxNotify = make(chan struct{})
		}
		ready := c.muxNotify
		c.muxMu.Unlock()
		select {
		case <-ready:
		case <-ctx.Done():
		}
		c.muxMu.Lock()
	}
}

// releaseStream returns a stream slot to its connection. The last
// stream out closes the conn when a Close-initiated drain is pending,
// or when idle pooling is disabled (MaxIdle < 0) — the v1 rule that no
// warm connection outlives its calls.
func (c *Client) releaseStream(mc *muxConn) {
	mc.mu.Lock()
	mc.inflight--
	if mc.inflight == 0 {
		mc.idleSince = c.clock().Now()
	}
	drained := mc.inflight == 0 && !mc.dead && (mc.draining || c.Pool.maxIdle() == 0)
	if drained {
		mc.dead = true
		mc.deadErr = ErrClosed
	}
	mc.mu.Unlock()
	if drained {
		mc.conn.Close()
		telemetry.Or(c.Telemetry).PoolConns.Add(-1)
	}
	c.muxWake()
}

// dialMux dials and negotiates one v2 connection. The negotiation
// exchange is bounded by DialTimeout and ctx — a peer that accepts the
// connection but never answers the preamble must not hang the caller. A
// peer that hangs up on the preamble (a pre-negotiation v1 server
// reading it as an oversized length header) or negotiates down to v1
// latches the downgrade; any other I/O failure stays an error so a
// flaky network cannot silently pin the client to v1 — at worst a
// genuine reset downgrades to v1, which every v2 server still speaks.
func (c *Client) dialMux(ctx context.Context) (*muxConn, error) {
	tel := telemetry.Or(c.Telemetry)
	conn, err := c.dialContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("transport: dial: %w", err)
	}
	tel.PoolDials.Inc()
	// The negotiation exchange is part of a call attempt, so it honours
	// both the dial and the call budget (whichever is tighter) plus ctx.
	var deadline time.Time
	if c.DialTimeout > 0 {
		deadline = c.clock().Now().Add(c.DialTimeout)
	}
	if c.CallTimeout > 0 {
		if d := c.clock().Now().Add(c.CallTimeout); deadline.IsZero() || d.Before(deadline) {
			deadline = d
		}
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	armed := false
	if !deadline.IsZero() {
		if err := conn.SetDeadline(deadline); err != nil {
			conn.Close()
			return nil, fmt.Errorf("transport: arming negotiation deadline: %w", err)
		}
		armed = true
	}
	stopWatch := watchCancel(ctx, conn)
	_, werr := conn.Write(clientPreamble(MaxSupportedVersion))
	var accept [preambleLen]byte
	var rerr error
	if werr == nil {
		_, rerr = io.ReadFull(conn, accept[:])
	}
	stopWatch()
	if werr != nil || rerr != nil {
		conn.Close()
		ioErr := werr
		if ioErr == nil {
			ioErr = rerr
		}
		if isPeerRejection(ioErr) && ctx.Err() == nil {
			if c.Version == V2 {
				return nil, Permanent(fmt.Errorf("%w (peer hung up on the v2 preamble: %v)", ErrVersionMismatch, ioErr))
			}
			c.peerVersion.Store(uint32(V1))
			tel.Negotiations.With("fallback").Inc()
			return nil, errFellBackToV1
		}
		return nil, ctxError(ctx, fmt.Errorf("transport: version negotiation: %w", ioErr))
	}
	agreed, err := parseAccept(accept[:], MaxSupportedVersion)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if agreed < V2 {
		// A negotiation-aware peer that tops out at v1. The conn now
		// expects classic frames; close it and re-route — the latch
		// means only the first contact pays the extra dial. Answering a
		// well-formed accept proves the peer post-dates the trace
		// trailer, so traced v1 calls may carry their context to it
		// (the hangup fallback above latches no such proof).
		conn.Close()
		tel.Negotiations.With(versionLabel(agreed)).Inc()
		if c.Version == V2 {
			return nil, Permanent(fmt.Errorf("%w: peer negotiated v%d", ErrVersionMismatch, agreed))
		}
		c.peerVersion.Store(uint32(agreed))
		c.peerTrailerAware.Store(true)
		return nil, errFellBackToV1
	}
	if armed {
		if err := conn.SetDeadline(time.Time{}); err != nil {
			conn.Close()
			return nil, fmt.Errorf("transport: clearing negotiation deadline: %w", err)
		}
	}
	c.peerVersion.Store(uint32(agreed))
	tel.Negotiations.With(versionLabel(agreed)).Inc()
	tel.PoolConns.Add(1)
	mc := &muxConn{
		c:         c,
		conn:      conn,
		streams:   make(map[uint32]chan muxResult),
		idleSince: c.clock().Now(),
	}
	go mc.readLoop(mc.conn)
	return mc, nil
}

// isPeerRejection reports whether a negotiation failure looks like a
// pre-v2 peer tearing the connection down (it read the preamble as an
// oversized v1 frame) rather than an unreachable network: any I/O error
// except a deadline expiry. Timeouts stay hard errors — silence is
// ambiguous and must not latch a downgrade.
func isPeerRejection(err error) bool {
	return err != nil && !errors.Is(err, os.ErrDeadlineExceeded)
}

// muxRoundTrip performs one framed exchange on a reserved stream. A
// stream that times out abandons only itself: the connection and its
// sibling streams stay healthy (a genuinely dead conn is detected by
// the read loop and fails everything at once).
func (c *Client) muxRoundTrip(ctx context.Context, mc *muxConn, sc telemetry.SpanContext, op string, body []byte) ([]byte, error) {
	tel := telemetry.Or(c.Telemetry)
	id, ch, err := mc.register()
	if err != nil {
		return nil, ctxError(ctx, fmt.Errorf("transport: send %q: %w", op, err))
	}
	tel.StreamsOpened.Inc()
	tel.StreamsActive.Add(1)
	defer tel.StreamsActive.Add(-1)

	var deadline time.Time
	if c.CallTimeout > 0 {
		deadline = c.clock().Now().Add(c.CallTimeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	// v2 carries the trace context in the frame header extension, not
	// the request envelope — hence the zero sc to encodeRequest.
	req := encodeRequest(op, body, telemetry.SpanContext{})
	mc.wmu.Lock()
	var werr error
	if !deadline.IsZero() {
		werr = mc.conn.SetWriteDeadline(deadline)
	}
	sent := 0
	if werr == nil {
		sent, werr = writeV2Frame(mc.conn, v2Frame{Type: frameRequest, StreamID: id, Payload: req, Trace: sc}, nil)
	}
	if werr == nil && !deadline.IsZero() {
		werr = mc.conn.SetWriteDeadline(time.Time{})
	}
	mc.wmu.Unlock()
	if werr != nil {
		mc.forget(id)
		// A failed or half-finished write leaves the shared conn in an
		// unknown framing state: kill it for everyone.
		mc.fail(fmt.Errorf("%w (send failed: %v)", ErrClosed, werr))
		return nil, ctxError(ctx, fmt.Errorf("transport: send %q: %w", op, werr))
	}
	c.BytesSent.Add(uint64(sent))

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
		mc.forget(id)
		return nil, fmt.Errorf("transport: awaiting %q: %w", op, ctx.Err())
	case <-timeout:
		mc.forget(id)
		return nil, fmt.Errorf("transport: awaiting %q on stream %d: %w", op, id, os.ErrDeadlineExceeded)
	}
}
