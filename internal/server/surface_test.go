package server

import (
	"context"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"globedoc/internal/enc"
	"globedoc/internal/object"
	"globedoc/internal/transport"
)

// TestServedOperations pins the object server's wire surface. Anyone who
// can reach a server may send it any request, so every operation it
// answers is input from an untrusted peer; each one here has a sender in
// this tree, named beside it. An operation whose last sender goes leaves
// this list and the server with it.
func TestServedOperations(t *testing.T) {
	want := []string{
		object.OpBind,        // core: cold bind, warm miss, FetchAll, refresh
		OpGetDelta,           // Puller.CheckOnce: current, delta or full state
		OpChallenge,          // AdminClient: the nonce every admin verb signs
		OpAdmin,              // AdminClient: create, update, list, delete
		object.OpPing,        // perfbench's server layers; the placement bench
		object.OpGetKey,      // perfbench's server layer
		object.OpGetCert,     // perfbench's server layer
		object.OpGetElement,  // perfbench's server layers
		object.OpGetElements, // perfbench's server layer
	}
	s := New("srv", "site", nil, nil, Limits{})
	got := s.srv.Ops()
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("served operations = %q, want %q", got, want)
	}
}

// eofConn reports on closed when a read first fails: for a client's
// connection, when the server has hung up.
type eofConn struct {
	net.Conn
	closed chan<- struct{}
}

func (c *eofConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil {
		select {
		case c.closed <- struct{}{}:
		default:
		}
	}
	return n, err
}

// TestRetiredLongPollIsRefusedAndReaped sends the body of the retired
// obj.waitversion long-poll (OID, known version, a 3 s timeout). The
// server refuses it at once; the connection then falls idle and is
// dropped after the 100 ms IdleTimeout, and Close does not wait on it.
// While the operation was served, the call parked for its timeout, the
// serve loop reaped no connection with a handler running, and Close
// waited for every parked handler.
func TestRetiredLongPollIsRefusedAndReaped(t *testing.T) {
	s, oid, _ := newWireServer(t, 16)
	s.SetIdleTimeout(100 * time.Millisecond)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.Start(l)
	t.Cleanup(s.Close)
	closed := make(chan struct{}, 1)
	c := transport.NewClient(func() (net.Conn, error) {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return nil, err
		}
		return &eofConn{Conn: conn, closed: closed}, nil
	})
	t.Cleanup(c.Close)

	w := enc.NewWriter(32)
	w.Raw(oid[:])
	w.Uvarint(mustVersion(t, s, oid))
	w.Uvarint(uint64((3 * time.Second).Milliseconds()))
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := c.Call(ctx, "obj.waitversion", w.Bytes()); err == nil || !strings.Contains(err.Error(), `unknown operation "obj.waitversion"`) {
		t.Fatalf("obj.waitversion = %v, want the unknown-operation refusal", err)
	}
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("the connection outlived the server's 100 ms idle timeout by a second")
	}
	start := time.Now()
	s.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v", d)
	}
}
