package transport

import (
	"errors"
	"net"
	"testing"

	"globedoc/internal/telemetry"
)

// TestStreamTableSpillsAndDrains: a connection keeps its first
// inlineStreams in-flight streams in itself and the rest in a map. Every
// stream is found by its ID wherever it lives, a freed slot is reused,
// stream 0 — a free slot's ID — names none, and a failing connection
// fails every stream still in flight, in the slots and in the map.
func TestStreamTableSpillsAndDrains(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	pc := &poolConn{c: NewClient(nil).Configure(Config{Telemetry: telemetry.New(nil)}), conn: client}
	const n = 2*inlineStreams + 1
	chans := make(map[uint32]chan streamResult)
	for i := 0; i < n; i++ {
		id, ch, err := pc.register()
		if err != nil {
			t.Fatal(err)
		}
		if id != uint32(i+1) {
			t.Fatalf("stream %d has ID %d, want IDs 1, 2, 3…", i, id)
		}
		chans[id] = ch
	}
	if got := len(pc.more); got != n-inlineStreams {
		t.Errorf("%d streams in the map, want %d", got, n-inlineStreams)
	}
	if _, ok := pc.take(0); ok {
		t.Error("stream 0 was found")
	}
	for _, id := range []uint32{2, inlineStreams + 2} { // one in a slot, one in the map
		if ch, ok := pc.take(id); !ok || ch != chans[id] {
			t.Errorf("take(%d) = %v, %v; want its own channel", id, ch, ok)
		}
		if _, ok := pc.take(id); ok {
			t.Errorf("stream %d was taken twice", id)
		}
		delete(chans, id)
	}
	id, ch, err := pc.register()
	if err != nil {
		t.Fatal(err)
	}
	if pc.streams[1].id != id {
		t.Errorf("stream %d did not reuse the freed slot: slots %v", id, pc.streams)
	}
	chans[id] = ch

	cause := errors.New("reset")
	pc.fail(cause)
	for id, ch := range chans {
		select {
		case r := <-ch:
			if !errors.Is(r.err, ErrClosed) || !errors.Is(r.err, cause) {
				t.Errorf("stream %d failed with %v, want ErrClosed wrapping %v", id, r.err, cause)
			}
		default:
			t.Errorf("stream %d was not failed", id)
		}
	}
	if _, _, err := pc.register(); !errors.Is(err, ErrClosed) {
		t.Errorf("register on a dead connection: %v, want ErrClosed", err)
	}
}
