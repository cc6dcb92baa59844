package transport

// Fuzz targets for the wire surface an untrusted peer controls: the
// multiplexed frame decoder, the version-negotiation preamble parser, a
// server's handling of a client's first flight, and the request envelope
// as a server reads it off a v1 frame. All are driven from raw bytes
// exactly as they arrive off a connection; the properties checked are
// memory-safety (no panics, no unbounded allocation), encode/decode
// round-trip consistency and, for the first flight, what the server
// sends and runs.

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

func FuzzFrameDecode(f *testing.F) {
	// Well-formed request and response frames, and the classic traps:
	// truncated header, unknown type, reserved flags, huge length.
	ok := func(t byte, id uint32, payload []byte) []byte {
		var buf bytes.Buffer
		if _, err := writeFramed(&buf, nil, V2, v2Frame{Type: t, StreamID: id}, nil, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	okTraced := func(t byte, id uint32, payload []byte, sc telemetry.SpanContext) []byte {
		var buf bytes.Buffer
		if _, err := writeFramed(&buf, nil, V2, v2Frame{Type: t, StreamID: id, Trace: sc}, nil, payload); err != nil {
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
	f.Add([]byte("GD\xF2\x02"))           // a preamble is not a frame
	// Response frames as the servers write them — envelope head apart
	// from the body — coalesced and split, ok and refused.
	resp := func(body []byte, callErr error) []byte {
		var buf bytes.Buffer
		if callErr != nil {
			body = nil
		}
		if _, err := writeFramed(&buf, nil, V2, v2Frame{Type: frameResponse, StreamID: 9}, responseHead(len(body), callErr), body); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(resp([]byte("small body"), nil))
	f.Add(resp(make([]byte, coalesceMax+1), nil))
	f.Add(resp(nil, errors.New("unknown operation \"obj.nope\"")))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readV2Frame(bytes.NewReader(data))
		if err != nil {
			// Every rejection must be a typed error, never a panic; the
			// only acceptable classes are framing violations, size bounds
			// and plain truncation.
			if !errors.Is(err, ErrProtocol) && !errors.Is(err, ErrFrameTooLarge) &&
				!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("readV2Frame(%x) = unexpected error class %v", data, err)
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
		if _, err := writeFramed(&buf, nil, V2, fr, nil, fr.Payload); err != nil {
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
	// the body — coalesced and split, and the traps: the trace-context
	// trailer older v1 clients appended (with a valid and a reserved
	// trace-flag byte), a non-canonical length, a body longer than the
	// frame, a truncated frame and an absurd length prefix.
	// req frames op‖body followed, inside the same frame, by extra.
	req := func(op string, body []byte, extra ...byte) []byte {
		var buf bytes.Buffer
		if _, err := writeFramed(&buf, nil, V1, v2Frame{}, requestHead(op, len(body)), append(body, extra...)); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	trailer := func(flags byte) []byte {
		ext := appendTraceExt(nil, telemetry.SpanContext{TraceID: 42, SpanID: 43})
		ext[traceExtLen-1] = flags
		return ext
	}
	f.Add(req("obj.getelement", []byte("index.html")))
	f.Add(req("", nil))
	f.Add(req("obj.install", make([]byte, coalesceMax+1)))
	f.Add(req("echo", []byte("traced"), trailer(traceFlagSampled)...))
	f.Add(req("echo", []byte("traced"), trailer(0x02)...))
	f.Add([]byte{0, 0, 0, 3, 0x80, 0x00, 0})         // non-canonical op length
	f.Add([]byte{0, 0, 0, 4, 1, 'x', 9, 'y'})        // body length beyond the frame
	f.Add([]byte{0, 0, 0, 9, 4, 'e', 'c', 'h', 'o'}) // truncated frame
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})            // absurd length prefix
	f.Add([]byte("GD\xF2\x02"))                      // a preamble is not a request

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrFrameTooLarge) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("readFrame(%x) = unexpected error class %v", data, err)
			}
			return
		}
		op, body, err := decodeRequest(payload)
		if err != nil {
			return // refused, not panicked
		}
		// Round-trip: re-encoding an accepted request reproduces the
		// consumed bytes, so the server saw exactly what was sent.
		var buf bytes.Buffer
		if _, err := writeFramed(&buf, nil, V1, v2Frame{}, requestHead(op, len(body)), body); err != nil {
			t.Fatalf("re-encoding accepted request: %v", err)
		}
		if consumed := data[:4+len(payload)]; !bytes.Equal(buf.Bytes(), consumed) {
			t.Fatalf("round-trip mismatch:\n in %x\nout %x", consumed, buf.Bytes())
		}
	})
}

// FuzzVersionNegotiation drives both halves of the handshake. The client
// half parses raw as a preamble and as an accept of proposed. The server
// half feeds a live serveConn, over an unbuffered pipe, the first flight
// clientPreamble(proposed)‖raw — a preamble with whatever frame bytes
// behind it, or for a proposal of zero no preamble at all — written in
// pieces whose lengths cuts gives, so the server's bounded first read
// ends anywhere (see serveFirstFlight for the invariants).
func FuzzVersionNegotiation(f *testing.F) {
	req := func(version byte, id uint32, op string, body []byte, sc telemetry.SpanContext) []byte {
		var buf bytes.Buffer
		if _, err := writeFramed(&buf, nil, version, v2Frame{Type: frameRequest, StreamID: id, Trace: sc}, requestHead(op, len(body)), body); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	traced := telemetry.SpanContext{TraceID: 7, SpanID: 9, Sampled: true}
	f.Add([]byte("GD\xF2\x01"), byte(2), []byte{})
	f.Add([]byte("GD\xF2\x02"), byte(2), []byte{2})       // a second preamble behind the first
	f.Add([]byte("GD\xF2\x00"), byte(2), []byte{})        // version zero is not negotiable
	f.Add([]byte("GD\xF3\x02"), byte(2), []byte{})        // wrong magic
	f.Add([]byte("GET "), byte(2), []byte{})              // an HTTP client, say
	f.Add([]byte{}, byte(1), []byte{})                    // a bare v1 preamble
	f.Add([]byte("GD\xF2\x7F"), byte(2), []byte{1, 1, 1}) // accept above proposal
	f.Add(req(V2, 1, "echo", []byte("first"), traced), byte(2), []byte{})
	f.Add(req(V2, 1, "echo", []byte("first"), telemetry.SpanContext{}), byte(2), []byte{4, 3})
	f.Add(append(req(V2, 1, "echo", []byte("a"), traced), req(V2, 2, "echo", []byte("b"), traced)...), byte(2), []byte{9})
	f.Add(req(V2, 1, "echo", bytes.Repeat([]byte("x"), firstReadLen), traced), byte(2), []byte{})
	f.Add(req(V2, 1, "nope", nil, traced), byte(2), []byte{})
	f.Add(req(V2, 1, "echo", []byte("v2 frame, v1 conn"), traced), byte(1), []byte{})
	f.Add(req(V1, 0, "echo", []byte("v1 behind a v1 preamble"), traced), byte(1), []byte{6})
	f.Add(req(V1, 0, "echo", []byte("no preamble"), traced)[preambleLen:], byte(0), []byte{})

	f.Fuzz(func(t *testing.T, raw []byte, proposed byte, cuts []byte) {
		v, ok := parsePreamble(raw)
		if ok {
			if len(raw) != preambleLen || raw[0] != preambleMagic[0] || raw[1] != preambleMagic[1] || raw[2] != preambleMagic[2] {
				t.Fatalf("parsePreamble accepted non-preamble bytes %x", raw)
			}
			if v < V1 {
				t.Fatalf("parsePreamble accepted invalid version %d", v)
			}
			// Round-trip: re-encoding the parsed version reproduces raw.
			if !bytes.Equal(clientPreamble(v), raw) {
				t.Fatalf("preamble round-trip mismatch: %x -> v%d -> %x", raw, v, clientPreamble(v))
			}
		}
		agreed, err := parseAccept(raw, proposed)
		if err == nil {
			if !ok {
				t.Fatalf("parseAccept accepted bytes parsePreamble rejects: %x", raw)
			}
			if agreed > proposed {
				t.Fatalf("parseAccept agreed on version %d above proposal %d", agreed, proposed)
			}
			if agreed < V1 {
				t.Fatalf("parseAccept agreed on invalid version %d", agreed)
			}
		} else if !errors.Is(err, ErrProtocol) {
			t.Fatalf("parseAccept(%x, %d) = unexpected error class %v", raw, proposed, err)
		}

		flight := raw
		if proposed != 0 {
			flight = append(clientPreamble(proposed), raw...)
		}
		serveFirstFlight(t, flight, cuts)
	})
}

// serveFirstFlight writes flight into a live serveConn over net.Pipe,
// one piece per cut (a cut of n sends n bytes, zero counting as one; the
// rest goes last), closes the client end and checks that:
//   - serveConn returns, so no goroutine it started outlives the
//     connection (it waits for its handlers);
//   - the server's output is at most one accept, first and only for a
//     preamble, followed by response frames in the agreed framing;
//   - the handler ran at most once per well-formed request the flight
//     holds in that framing, and on a v1 connection never for a frame
//     that is a v2 request.
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
	version, rest := V1, flight
	var accept []byte
	if len(flight) >= preambleLen {
		if v, ok := parsePreamble(flight[:preambleLen]); ok {
			version, rest = min(v, MaxSupportedVersion), flight[preambleLen:]
			accept = clientPreamble(version)
		}
	}
	requests := 0
	for r := bytes.NewReader(rest); ; {
		before := r.Len()
		f, _, err := readFramed(r, version, frameRequest)
		if err != nil {
			break
		}
		frame := rest[len(rest)-before : len(rest)-r.Len()]
		if version < V2 {
			if g, err := readV2Frame(bytes.NewReader(frame)); err == nil && g.Type == frameRequest {
				continue // a v2-framed request: a v1 connection must not run it
			}
		}
		if op, _, err := decodeRequest(f.Payload); err == nil && op == "echo" {
			requests++
		}
	}
	if got := runs.Load(); got > int64(requests) {
		t.Fatalf("handler ran %d times for %d well-formed v%d requests (flight %x)", got, requests, version, flight)
	}

	got := out.Bytes()
	if accept != nil {
		if !bytes.HasPrefix(got, accept) {
			if len(got) == 0 && runs.Load() == 0 {
				return // the accept write lost the race with the close
			}
			t.Fatalf("server output %x does not open with the accept %x", got, accept)
		}
		got = got[preambleLen:]
	}
	for r := bytes.NewReader(got); r.Len() > 0; {
		if _, _, err := readFramed(r, version, frameResponse); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
				break // a response cut off by the close
			}
			t.Fatalf("server output after the accept is not v%d responses: %v (output %x)", version, err, out.Bytes())
		}
	}
}
