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
// first read, the answer, the request loop's state — plus one echo call.
// The client side is a hand-written first flight on a pipe, so nearly
// everything counted is the server's: 20 objects and 2,716 bytes with
// go1.24 on linux/amd64, plus 2 %, which rounds to no object. The connection's state — the first
// read's 512-byte buffer, which takes the whole flight so the request is
// parsed without another read, the length scratch, the write mutex and
// the handler count — is one object, the answer is written from a
// constant and the response frame from a pooled buffer.
func TestServerConnectionSetupBudget(t *testing.T) {
	s := NewServer()
	s.Telemetry = telemetry.New(nil)
	s.Handle("echo", func(b []byte) ([]byte, error) { return b, nil })
	var flight bytes.Buffer
	if _, err := writeFramed(&flight, hello[:], frame{Type: frameRequest, StreamID: 1}, appendRequestHead(nil, "echo", 5), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	var reply bytes.Buffer
	if _, err := writeFramed(&reply, hello[:], frame{Type: frameResponse, StreamID: 1}, appendResponseHead(nil, 5, nil), []byte("hello")); err != nil {
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
	const maxObjects, maxBytes = 20, 2770
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
