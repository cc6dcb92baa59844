package transport

// Fuzz targets for the wire surface an untrusted peer controls: the
// multiplexed frame decoder, a server's handling of a client's first
// flight against the fixed hello, and the request envelope as a server
// reads it off a request frame. All are driven from raw
// bytes exactly as they arrive off a connection; the properties checked
// are memory-safety (no panics, no unbounded allocation), encode/decode
// round-trip consistency and, for the first flight, what the server
// sends and runs. Inputs in the retired classic framing stay among the
// seeds, as bytes every decoder must refuse.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"globedoc/internal/telemetry"
)

// classicFrame frames payload in the retired classic framing: a length
// prefix and nothing naming a stream.
func classicFrame(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// addRefused adds each of seeds to f's corpus after checking that a
// server refuses it: read as a request frame, it fails to decode or does
// not carry a well-formed request envelope.
func addRefused(f *testing.F, seeds ...[]byte) {
	f.Helper()
	for _, seed := range seeds {
		if fr, _, err := readFramed(bytes.NewReader(seed), frameRequest, new([4]byte)); err == nil {
			if _, _, err := decodeRequest(fr.Payload); err == nil {
				f.Fatalf("seed %x decodes as a request; it must be refused", seed)
			}
		}
		f.Add(seed)
	}
}

func FuzzFrameDecode(f *testing.F) {
	// Well-formed request and response frames, and the classic traps:
	// truncated header, unknown type, reserved flags, huge length.
	ok := func(t byte, id uint32, payload []byte) []byte {
		var buf bytes.Buffer
		if _, err := writeFramed(&buf, nil, frame{Type: t, StreamID: id}, nil, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	okTraced := func(t byte, id uint32, payload []byte, sc telemetry.SpanContext) []byte {
		var buf bytes.Buffer
		if _, err := writeFramed(&buf, nil, frame{Type: t, StreamID: id, Trace: sc}, nil, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(ok(frameRequest, 1, []byte("hello")))
	f.Add(ok(frameResponse, 0xFFFFFFFF, nil))
	f.Add(okTraced(frameRequest, 7, []byte("traced"), telemetry.SpanContext{TraceID: 42, SpanID: 43, Sampled: true}))
	f.Add(okTraced(frameRequest, 8, nil, telemetry.SpanContext{TraceID: 1, SpanID: 1}))
	f.Add([]byte{0, 0, 0, 3, 1, 0, 0})                                           // length below header size
	f.Add([]byte{0, 0, 0, 6, 9, 0, 0, 0, 0, 1})                                  // unknown frame type
	f.Add([]byte{0, 0, 0, 6, 1, 0x80, 0, 0, 0, 1})                               // reserved flags set
	f.Add([]byte{0, 0, 0, 6, 1, 0x03, 0, 0, 0, 1})                               // trace flag plus a reserved bit
	f.Add([]byte{0, 0, 0, 8, 1, 0x01, 0, 0, 0, 1, 0, 0})                         // trace flag with truncated extension
	f.Add(append([]byte{0, 0, 0, 23, 1, 0x01, 0, 0, 0, 1}, make([]byte, 17)...)) // trace extension with zero IDs
	f.Add(append([]byte{0, 0, 0, 23, 1, 0x01, 0, 0, 0, 1},
		[]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0x30}...)) // reserved trace flag bits
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // absurd length prefix
	f.Add([]byte("GD\xF2\x02"))           // the hello is not a frame
	// Response frames as the servers write them — envelope head apart
	// from the body — coalesced and split, ok and refused.
	resp := func(body []byte, callErr error) []byte {
		var buf bytes.Buffer
		if callErr != nil {
			body = nil
		}
		if _, err := writeFramed(&buf, nil, frame{Type: frameResponse, StreamID: 9}, appendResponseHead(nil, len(body), callErr), body); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(resp([]byte("small body"), nil))
	f.Add(resp(make([]byte, coalesceMax+1), nil))
	f.Add(resp(nil, errors.New("unknown operation \"obj.nope\"")))
	addRefused(f, classicFrame(refEncodeRequest("obj.getelement", []byte("index.html"))))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(bytes.NewReader(data), new([4]byte))
		if err != nil {
			// Every rejection must be a typed error, never a panic; the
			// only acceptable classes are framing violations, size bounds
			// and plain truncation.
			if !errors.Is(err, ErrProtocol) && !errors.Is(err, ErrFrameTooLarge) &&
				!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("readFrame(%x) = unexpected error class %v", data, err)
			}
			return
		}
		// Decoded frames obey the invariants the mux relies on...
		if fr.Type != frameRequest && fr.Type != frameResponse {
			t.Fatalf("accepted frame with type 0x%02x", fr.Type)
		}
		if fr.Flags&^knownFlags != 0 {
			t.Fatalf("accepted frame with reserved flags 0x%02x", fr.Flags)
		}
		if fr.Flags&flagTrace != 0 && !fr.Trace.Valid() {
			t.Fatalf("accepted trace-flagged frame with invalid context %+v", fr.Trace)
		}
		if fr.Flags&flagTrace == 0 && fr.Trace.Valid() {
			t.Fatalf("unflagged frame decoded a trace context %+v", fr.Trace)
		}
		if len(fr.Payload) > MaxFrame {
			t.Fatalf("accepted %d-byte payload above MaxFrame", len(fr.Payload))
		}
		// ...and round-trip: re-encoding reproduces the consumed bytes.
		var buf bytes.Buffer
		if _, err := writeFramed(&buf, nil, fr, nil, fr.Payload); err != nil {
			t.Fatalf("re-encoding accepted frame: %v", err)
		}
		consumed := 4 + binary.BigEndian.Uint32(data[:4])
		if !bytes.Equal(buf.Bytes(), data[:consumed]) {
			t.Fatalf("round-trip mismatch:\n in %x\nout %x", data[:consumed], buf.Bytes())
		}
	})
}

func FuzzRequestDecode(f *testing.F) {
	// Request frames as clients write them — envelope head apart from
	// the body — coalesced and split, untraced and traced, and the traps:
	// a trace-context trailer behind the body (with a valid and a
	// reserved trace-flag byte), a non-canonical length, a body longer
	// than the frame, a response where a request belongs, a truncated
	// frame and an absurd length prefix.
	// req frames op‖body followed, inside the same frame, by extra.
	req := func(sc telemetry.SpanContext, op string, body []byte, extra ...byte) []byte {
		var buf bytes.Buffer
		if _, err := writeFramed(&buf, nil, frame{Type: frameRequest, StreamID: 1, Trace: sc}, appendRequestHead(nil, op, len(body)), append(body, extra...)); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	// rawFrame frames a raw payload as a request on stream 1.
	rawFrame := func(payload ...byte) []byte {
		return append([]byte{0, 0, 0, byte(frameOverhead + len(payload)), frameRequest, 0, 0, 0, 0, 1}, payload...)
	}
	trailer := func(flags byte) []byte {
		ext := appendTraceExt(nil, telemetry.SpanContext{TraceID: 42, SpanID: 43})
		ext[traceExtLen-1] = flags
		return ext
	}
	untraced := telemetry.SpanContext{}
	f.Add(req(untraced, "obj.getelement", []byte("index.html")))
	f.Add(req(untraced, "", nil))
	f.Add(req(untraced, "obj.install", make([]byte, coalesceMax+1)))
	f.Add(req(telemetry.SpanContext{TraceID: 7, SpanID: 9, Sampled: true}, "echo", []byte("traced")))
	f.Add(req(untraced, "echo", []byte("traced"), trailer(traceFlagSampled)...))
	f.Add(req(untraced, "echo", []byte("traced"), trailer(0x02)...))
	f.Add(rawFrame(0x80, 0x00, 0))                                  // non-canonical op length
	f.Add(rawFrame(1, 'x', 9, 'y'))                                 // body length beyond the frame
	f.Add(rawFrame(4, 'e', 'c', 'h', 'o')[:12])                     // truncated frame
	f.Add(append([]byte{0, 0, 0, 6, frameResponse, 0}, 0, 0, 0, 1)) // a response is not a request
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})                           // absurd length prefix
	f.Add([]byte("GD\xF2\x02"))                                     // the hello is not a request
	// The same requests and traps in the classic framing.
	addRefused(f,
		classicFrame(refEncodeRequest("obj.getelement", []byte("index.html"))),
		classicFrame(append(refEncodeRequest("echo", []byte("traced")), trailer(traceFlagSampled)...)),
		[]byte{0, 0, 0, 3, 0x80, 0x00, 0},         // non-canonical op length
		[]byte{0, 0, 0, 4, 1, 'x', 9, 'y'},        // body length beyond the frame
		[]byte{0, 0, 0, 9, 4, 'e', 'c', 'h', 'o'}, // truncated frame
	)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, _, err := readFramed(bytes.NewReader(data), frameRequest, new([4]byte))
		if err != nil {
			if !errors.Is(err, ErrProtocol) && !errors.Is(err, ErrFrameTooLarge) &&
				!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("readFramed(%x) = unexpected error class %v", data, err)
			}
			return
		}
		op, body, err := decodeRequest(fr.Payload)
		if err != nil {
			return // refused, not panicked
		}
		// Round-trip: re-encoding an accepted request reproduces the
		// consumed bytes, so the server saw exactly what was sent.
		var buf bytes.Buffer
		if _, err := writeFramed(&buf, nil, frame{Type: frameRequest, StreamID: fr.StreamID, Trace: fr.Trace}, appendRequestHead(nil, op, len(body)), body); err != nil {
			t.Fatalf("re-encoding accepted request: %v", err)
		}
		if consumed := data[:4+binary.BigEndian.Uint32(data[:4])]; !bytes.Equal(buf.Bytes(), consumed) {
			t.Fatalf("round-trip mismatch:\n in %x\nout %x", consumed, buf.Bytes())
		}
	})
}

// FuzzVersionNegotiation feeds a live serveConn, over an unbuffered
// pipe, a client's first flight: whatever opener, then whatever frame
// bytes, written in pieces whose lengths cuts gives, so the server's
// bounded first read ends anywhere (see serveFirstFlight for the
// invariants). Nothing is negotiated: only a flight that opens with the
// hello is answered. An opener naming any other version — version 1, 0
// or a later one — and a classic frame with no opener are seeds that
// must be refused.
func FuzzVersionNegotiation(f *testing.F) {
	req := func(id uint32, op string, body []byte, sc telemetry.SpanContext) []byte {
		var buf bytes.Buffer
		if _, err := writeFramed(&buf, nil, frame{Type: frameRequest, StreamID: id, Trace: sc}, appendRequestHead(nil, op, len(body)), body); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	// opened puts opener in front of the frames.
	opened := func(opener string, frames ...[]byte) []byte {
		return append([]byte(opener), bytes.Join(frames, nil)...)
	}
	traced := telemetry.SpanContext{TraceID: 7, SpanID: 9, Sampled: true}
	h := string(hello[:])
	echo := req(1, "echo", []byte("first"), traced)
	classic := classicFrame(refEncodeRequest("echo", []byte("classic")))
	f.Add(opened(h, echo), []byte{})
	f.Add(opened(h, req(1, "echo", []byte("first"), telemetry.SpanContext{})), []byte{4, 3})
	f.Add(opened(h, req(1, "echo", []byte("a"), traced), req(2, "echo", []byte("b"), traced)), []byte{9})
	f.Add(opened(h, req(1, "echo", bytes.Repeat([]byte("x"), firstReadLen), traced)), []byte{})
	f.Add(opened(h, req(1, "nope", nil, traced)), []byte{})
	f.Add(opened(h+h), []byte{2})               // a second hello behind the first
	f.Add(opened(h), []byte{1, 1, 1})           // a bare hello, a byte at a time
	f.Add(opened(h, classic), []byte{})         // a classic frame behind the hello
	f.Add(opened("GD\xF2\x01", echo), []byte{}) // a version-1 opener
	f.Add(opened("GD\xF2\x01", classic), []byte{6})
	f.Add(opened("GD\xF2\x00", echo), []byte{}) // version zero
	f.Add(opened("GD\xF2\x03", echo), []byte{}) // a later version
	f.Add(opened("GD\xF3\x02", echo), []byte{}) // wrong magic
	f.Add(opened("GD\xF2"), []byte{})           // a truncated hello
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"), []byte{})
	f.Add(classic, []byte{}) // a classic frame with no opener

	f.Fuzz(func(t *testing.T, flight, cuts []byte) {
		serveFirstFlight(t, flight, cuts)
	})
}

// serveFirstFlight writes flight into a live serveConn over net.Pipe,
// one piece per cut (a cut of n sends n bytes, zero counting as one; the
// rest goes last), closes the client end and checks that:
//   - serveConn returns, so no goroutine it started outlives the
//     connection (it waits for its handlers);
//   - a flight that does not open with the hello gets no byte back and
//     runs no handler;
//   - otherwise the server's output is the hello followed by response
//     frames, and the handler ran at most once per well-formed request
//     frame behind the hello.
func serveFirstFlight(t *testing.T, flight, cuts []byte) {
	var runs atomic.Int64
	s := NewServer()
	s.Telemetry = telemetry.New(nil)
	s.Handle("echo", func(b []byte) ([]byte, error) {
		runs.Add(1)
		return b, nil
	})
	clientEnd, serverEnd := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.serveConn(serverEnd)
	}()
	var out bytes.Buffer
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		io.Copy(&out, clientEnd)
	}()
	for rest := flight; len(rest) > 0; {
		n := len(rest)
		if len(cuts) > 0 {
			n = min(max(int(cuts[0]), 1), n)
			cuts = cuts[1:]
		}
		if _, err := clientEnd.Write(rest[:n]); err != nil {
			break // the server dropped the connection
		}
		rest = rest[n:]
	}
	clientEnd.Close()
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatalf("serveConn still running 10 s after its connection closed (flight %x)", flight)
	}
	<-drained

	// The reference reading of the flight.
	answered := bytes.HasPrefix(flight, hello[:])
	var rest []byte
	if answered {
		rest = flight[len(hello):]
	}
	requests := 0
	for r := bytes.NewReader(rest); ; {
		f, _, err := readFramed(r, frameRequest, new([4]byte))
		if err != nil {
			break
		}
		if op, _, err := decodeRequest(f.Payload); err == nil && op == "echo" {
			requests++
		}
	}
	if got := runs.Load(); got > int64(requests) {
		t.Fatalf("handler ran %d times for %d well-formed requests (flight %x)", got, requests, flight)
	}

	got := out.Bytes()
	if !answered {
		if len(got) > 0 {
			t.Fatalf("server answered %x to a flight it must refuse (flight %x)", got, flight)
		}
		return
	}
	if !bytes.HasPrefix(got, hello[:]) {
		if len(got) == 0 && runs.Load() == 0 {
			return // the answer's write lost the race with the close
		}
		t.Fatalf("server output %x does not open with the hello %x", got, hello)
	}
	for r := bytes.NewReader(got[len(hello):]); r.Len() > 0; {
		if _, _, err := readFramed(r, frameResponse, new([4]byte)); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
				break // a response cut off by the close
			}
			t.Fatalf("server output after the hello is not responses: %v (output %x)", err, out.Bytes())
		}
	}
}
