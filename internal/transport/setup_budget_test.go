package transport

import (
	"bytes"
	"io"
	"net"
	"testing"

	"globedoc/internal/alloctest"
	"globedoc/internal/telemetry"
)

// TestServerConnectionSetupBudget pins what a server spends on one
// connection that carries one call: serveConn's set-up — the bounded
// first read, the accept, the request loop's state — plus one echo call.
// The client side is a hand-written first flight on a pipe, so nearly
// everything counted is the server's: 35 objects and 2,904 bytes with
// go1.24 on linux/amd64. The first read's 512-byte buffer is the one
// thing set-up adds per connection — it takes the whole flight, so the
// request is parsed without another read — and replaces the 4-byte
// header a two-step handshake read into (36 objects, 2,384 bytes).
func TestServerConnectionSetupBudget(t *testing.T) {
	s := NewServer()
	s.Telemetry = telemetry.New(nil)
	s.Handle("echo", func(b []byte) ([]byte, error) { return b, nil })
	var flight bytes.Buffer
	if _, err := writeFramed(&flight, clientPreamble(V2), v2Frame{Type: frameRequest, StreamID: 1}, requestHead("echo", 5), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	var reply bytes.Buffer
	if _, err := writeFramed(&reply, clientPreamble(V2), v2Frame{Type: frameResponse, StreamID: 1}, responseHead(5, nil), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, reply.Len())
	serveOne := func() {
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			s.serveConn(server)
			close(done)
		}()
		if _, err := client.Write(flight.Bytes()); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(client, got); err != nil || !bytes.Equal(got, reply.Bytes()) {
			t.Fatalf("reply %x, %v; want %x", got, err, reply.Bytes())
		}
		client.Close()
		<-done
	}
	const maxObjects, maxBytes = 36, 3000
	objects := alloctest.AllocsPerRun(t, 200, serveOne)
	size := alloctest.BytesPerRun(t, 200, serveOne)
	t.Logf("one connection carrying one call: %.0f objects, %.0f bytes", objects, size)
	if objects > maxObjects {
		t.Errorf("one connection carrying one call allocates %.0f objects, budget %d", objects, maxObjects)
	}
	if size > maxBytes {
		t.Errorf("one connection carrying one call allocates %.0f bytes, budget %d", size, maxBytes)
	}
}
