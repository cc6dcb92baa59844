package transport

import (
	"context"
	"fmt"
	"net"
	"time"

	"globedoc/internal/telemetry"
)

// DefaultMaxConns is the per-client connection bound used when
// PoolConfig.MaxConns is zero.
const DefaultMaxConns = 4

// PoolConfig bounds a Client's connection pool.
type PoolConfig struct {
	// MaxConns bounds how many connections are open at once. A v1
	// connection carries one call, so on a client pinned to V1 it is
	// also the bound on calls in flight. 0 means DefaultMaxConns.
	MaxConns int
	// MaxIdle bounds how many warm connections are kept for reuse after
	// their calls return. 0 means MaxConns; negative disables idle
	// pooling entirely (every connection closes after its last call).
	MaxIdle int
	// IdleTimeout, when positive, discards idle connections that have
	// sat unused longer than this. Reaping is lazy: a stale conn is
	// closed when a call would otherwise reuse it.
	IdleTimeout time.Duration
	// StreamBudget bounds concurrent streams per negotiated-v2
	// connection (0 = DefaultStreamBudget): a v2 client carries up to
	// MaxConns × StreamBudget calls in flight. A v1 connection's budget
	// is always one.
	StreamBudget int
}

func (p PoolConfig) maxConns() int {
	if p.MaxConns > 0 {
		return p.MaxConns
	}
	return DefaultMaxConns
}

func (p PoolConfig) streamBudget() int {
	if p.StreamBudget > 0 {
		return p.StreamBudget
	}
	return DefaultStreamBudget
}

func (p PoolConfig) maxIdle() int {
	switch {
	case p.MaxIdle > 0:
		return p.MaxIdle
	case p.MaxIdle < 0:
		return 0
	}
	return p.maxConns()
}

// acquireStream reserves a stream slot on a pooled connection — the one
// way a call gets a connection, whatever its framing. It prefers the
// least-loaded live connection with budget headroom, dials a new
// connection while the MaxConns bound has headroom, and otherwise blocks
// until a stream finishes or ctx is cancelled. The bool reports whether
// the stream rides a connection that was already open.
func (c *Client) acquireStream(ctx context.Context) (*poolConn, bool, error) {
	tel := telemetry.Or(c.Telemetry)
	c.mu.Lock()
	for {
		if err := ctx.Err(); err != nil {
			c.mu.Unlock()
			return nil, false, fmt.Errorf("transport: awaiting stream slot: %w", err)
		}
		now := c.clock().Now()
		// Drop dead conns from the list and lazily reap idle ones that
		// outlived IdleTimeout.
		kept := c.conns[:0]
		for _, pc := range c.conns {
			pc.mu.Lock()
			stale := c.Pool.IdleTimeout > 0 && pc.inflight == 0 && now.Sub(pc.idleSince) > c.Pool.IdleTimeout
			if stale && pc.retireLocked() {
				tel.PoolIdleClosed.Inc()
			}
			if !pc.dead {
				kept = append(kept, pc)
			}
			pc.mu.Unlock()
		}
		c.conns = kept

		// Least-loaded live conn with stream headroom wins. A conn still
		// awaiting its accept is about to have headroom, so it holds off
		// a dial the way a dial in flight does.
		var best *poolConn
		bestLoad := 0
		settling := false
		for _, pc := range c.conns {
			pc.mu.Lock()
			ok := !pc.dead && pc.inflight < pc.budget
			load := pc.inflight
			settling = settling || (!pc.dead && pc.negotiating)
			pc.mu.Unlock()
			if ok && (best == nil || load < bestLoad) {
				best, bestLoad = pc, load
			}
		}
		if best != nil {
			best.mu.Lock()
			if !best.dead && best.inflight < best.budget {
				best.inflight++
				best.mu.Unlock()
				c.mu.Unlock()
				tel.PoolReuse.Inc()
				return best, true, nil
			}
			best.mu.Unlock()
			continue // raced with conn death; re-scan
		}

		// Dials are singleflight: a cold burst coalesces onto the one
		// connection being opened instead of racing a dial per call
		// (waiters park below and re-check when the dial lands or its
		// accept raises the budget). Another dial starts only once every
		// live conn is stream-saturated.
		if !c.dialing && !settling && len(c.conns) < c.Pool.maxConns() {
			c.dialing = true
			c.mu.Unlock()
			pc, err := c.dialConn(ctx)
			c.mu.Lock()
			c.dialing = false
			c.wakeLocked() // a dial slot or fresh stream capacity opened up
			if err != nil {
				c.mu.Unlock()
				return nil, false, err
			}
			pc.inflight = 1
			c.conns = append(c.conns, pc)
			c.mu.Unlock()
			return pc, false, nil
		}

		// Every conn is saturated and the conn bound is reached: park
		// until capacity frees up or ctx is cancelled.
		if c.notify == nil {
			c.notify = make(chan struct{})
		}
		ready := c.notify
		c.mu.Unlock()
		select {
		case <-ready:
		case <-ctx.Done():
		}
		c.mu.Lock()
	}
}

// releaseStream returns a stream slot to its connection. The last
// stream out closes the conn when a Close-initiated drain is pending or
// when MaxIdle other connections already sit warm (always, when idle
// pooling is disabled).
func (c *Client) releaseStream(pc *poolConn) {
	c.mu.Lock()
	pc.mu.Lock()
	pc.inflight--
	if pc.inflight == 0 {
		pc.idleSince = c.clock().Now()
		warm := 0
		for _, other := range c.conns {
			// Holding c.mu is what makes taking a second conn's lock safe.
			if other != pc && other.idle() {
				warm++
			}
		}
		if pc.draining || warm >= c.Pool.maxIdle() {
			pc.retireLocked()
		}
	}
	pc.mu.Unlock()
	c.wakeLocked()
	c.mu.Unlock()
}

// wake wakes every caller waiting in acquireStream for stream capacity;
// waiters re-check the pool state and park again if nothing is free for
// them.
func (c *Client) wake() {
	c.mu.Lock()
	c.wakeLocked()
	c.mu.Unlock()
}

func (c *Client) wakeLocked() {
	if c.notify != nil {
		close(c.notify)
		c.notify = nil
	}
}

// dialContext runs dial, bounded by DialTimeout and ctx. The underlying
// DialFunc has no cancellation surface, so on timeout or cancellation
// the late connection (if any) is closed when it eventually arrives.
func (c *Client) dialContext(ctx context.Context) (net.Conn, error) {
	if c.DialTimeout <= 0 && ctx.Done() == nil {
		return c.dial()
	}
	type result struct {
		conn net.Conn
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		conn, err := c.dial()
		ch <- result{conn, err}
	}()
	reapLate := func() {
		go func() {
			if r := <-ch; r.conn != nil {
				r.conn.Close()
			}
		}()
	}
	var timeout <-chan time.Time
	if c.DialTimeout > 0 {
		t := time.NewTimer(c.DialTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case r := <-ch:
		return r.conn, r.err
	case <-timeout:
		reapLate()
		return nil, fmt.Errorf("%w after %v", ErrDialTimeout, c.DialTimeout)
	case <-ctx.Done():
		reapLate()
		return nil, ctx.Err()
	}
}

// Close closes every idle pooled connection. Connections with calls in
// flight drain: their calls finish and the last one to return closes the
// connection instead of pooling it. A later Call reopens the pool.
func (c *Client) Close() {
	c.mu.Lock()
	conns := c.conns
	c.conns = nil
	c.wakeLocked()
	c.mu.Unlock()
	for _, pc := range conns {
		pc.mu.Lock()
		if pc.inflight > 0 {
			pc.draining = true
		} else {
			pc.retireLocked()
		}
		pc.mu.Unlock()
	}
}

// ConnsInUse reports how many connections are currently serving calls —
// a test and debugging aid. A connection counts once however many
// streams it carries.
func (c *Client) ConnsInUse() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, pc := range c.conns {
		pc.mu.Lock()
		if !pc.dead && pc.inflight > 0 {
			n++
		}
		pc.mu.Unlock()
	}
	return n
}

// IdleConns reports how many warm connections are parked for reuse.
func (c *Client) IdleConns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, pc := range c.conns {
		if pc.idle() {
			n++
		}
	}
	return n
}
