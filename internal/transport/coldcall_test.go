package transport_test

import (
	"context"
	"net"
	"sync/atomic"
	"testing"

	"globedoc/internal/alloctest"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// closingConn is a connection that reports when it is first closed:
// for a served pipe end, that is the last thing serveConn does.
type closingConn struct {
	net.Conn
	closing atomic.Bool
	closed  chan struct{}
}

func (e *closingConn) Close() error {
	err := e.Conn.Close()
	if e.closing.CompareAndSwap(false, true) {
		close(e.closed)
	}
	return err
}

// pipeEnds is one connection made ahead of the call that dials it.
type pipeEnds struct {
	client net.Conn
	server *closingConn
}

// coldRig is an echo server and the pipes a fresh client's first calls
// dial, made ahead so that what a call allocates is the transport's:
// net.Pipe's own dozen objects are not counted.
type coldRig struct {
	l     *chanListener
	tel   *telemetry.Telemetry
	pipes []pipeEnds
	next  pipeEnds // the pipe the next dial returns
	dial  transport.DialFunc
	body  []byte
}

func newColdRig(tb testing.TB) *coldRig {
	r := &coldRig{l: newChanListener(), tel: telemetry.New(nil), body: []byte("a cold call")}
	srv := transport.NewServer()
	srv.Telemetry = r.tel
	srv.Handle("echo", func(b []byte) ([]byte, error) { return b, nil })
	srv.Start(r.l)
	tb.Cleanup(srv.Close)
	tb.Cleanup(func() {
		for _, p := range r.pipes {
			p.client.Close()
			p.server.Close()
		}
	})
	r.dial = func() (net.Conn, error) {
		r.l.ch <- r.next.server
		return r.next.client, nil
	}
	return r
}

// refill makes n more pipes.
func (r *coldRig) refill(n int) {
	for i := 0; i < n; i++ {
		client, server := net.Pipe()
		r.pipes = append(r.pipes, pipeEnds{client: client, server: &closingConn{Conn: server, closed: make(chan struct{})}})
	}
}

// call is one fresh client's first call on a fresh connection, from
// NewClient until the server has closed its end after the client's
// Close.
func (r *coldRig) call(tb testing.TB) {
	r.next, r.pipes = r.pipes[0], r.pipes[1:]
	c := transport.NewClient(r.dial).Configure(transport.Config{Telemetry: r.tel})
	if resp, err := c.Call(context.Background(), "echo", r.body); err != nil || len(resp) != len(r.body) {
		tb.Fatalf("echo: %q, %v", resp, err)
	}
	c.Close()
	<-r.next.server.closed
}

// coldCallAllocBudget is the heap objects of a fresh client's first
// call over a fresh connection, both sides of it, with go1.24 on
// linux/amd64: on the client's side the Client, its pooled connection
// (stream table and all), the goroutine that dials it and then reads it,
// and the reply frame it reads; on the server's side the goroutine that
// serves the accepted connection, the connection's state (servedConn),
// the request frame it reads and the handler's goroutine — 8, where 2 %
// more rounds to none. The rpc.call and rpc.serve spans are leaves on
// their goroutines' stacks, the hello and the frames written come from a
// constant and a pool, the stream's result channel and the dial's
// outcome channel are reused, and the server's connection registry is a
// map that keeps its room.
const coldCallAllocBudget = 8

func TestColdCallAllocationBudget(t *testing.T) {
	r := newColdRig(t)
	const runs = 200
	r.refill(runs + 1) // AllocsPerRun calls once more, unmeasured, first
	got := alloctest.AllocsPerRun(t, runs, func() { r.call(t) })
	t.Logf("a cold call: %.1f allocs", got)
	if got > coldCallAllocBudget {
		t.Errorf("a cold call allocates %.1f objects, budget %d", got, coldCallAllocBudget)
	}
}

// BenchmarkColdCall is a fresh client's first call over a fresh
// connection, both sides: go test -run '^$' -bench ColdCall
// ./internal/transport/ prints its ns/op and allocs/op. The pipes are
// made with the timer stopped.
func BenchmarkColdCall(b *testing.B) {
	r := newColdRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.pipes) == 0 {
			b.StopTimer()
			r.refill(256)
			b.StartTimer()
		}
		r.call(b)
	}
}
