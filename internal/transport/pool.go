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

// PoolConfig bounds a Client's connection pool. Every connection stays
// pooled, warm, until it dies or Client.Close retires it.
type PoolConfig struct {
	// MaxConns bounds how many connections are open at once; each
	// carries up to DefaultStreamBudget calls. 0 means DefaultMaxConns.
	MaxConns int
}

func (p PoolConfig) maxConns() int {
	if p.MaxConns > 0 {
		return p.MaxConns
	}
	return DefaultMaxConns
}

// acquireStream reserves a stream slot on a pooled connection — the one
// way a call gets a connection. It prefers the
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
		// Drop dead conns from the list.
		kept := c.conns[:0]
		for _, pc := range c.conns {
			pc.mu.Lock()
			if !pc.dead {
				kept = append(kept, pc)
			}
			pc.mu.Unlock()
		}
		c.conns = kept

		// Least-loaded live conn with stream headroom wins.
		var best *poolConn
		bestLoad := 0
		for _, pc := range c.conns {
			pc.mu.Lock()
			ok := !pc.dead && pc.inflight < DefaultStreamBudget
			load := pc.inflight
			pc.mu.Unlock()
			if ok && (best == nil || load < bestLoad) {
				best, bestLoad = pc, load
			}
		}
		if best != nil {
			best.mu.Lock()
			if !best.dead && best.inflight < DefaultStreamBudget {
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
		// (waiters park below and re-check when the dial lands). Another
		// dial starts only once every live conn is stream-saturated.
		if !c.dialing && len(c.conns) < c.Pool.maxConns() {
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
// stream out closes the conn when a Close-initiated drain is pending;
// otherwise the conn stays pooled, warm.
func (c *Client) releaseStream(pc *poolConn) {
	c.mu.Lock()
	pc.mu.Lock()
	pc.inflight--
	if pc.inflight == 0 && pc.draining {
		pc.retireLocked()
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
