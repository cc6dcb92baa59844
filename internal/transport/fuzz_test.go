package transport

// Fuzz targets for the wire surface an untrusted peer controls: the
// multiplexed frame decoder, the version-negotiation preamble parser, a
// server's handling of a client's first flight, and the request envelope
// as a server reads it off a request frame. All are driven from raw
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

// preamble encodes the negotiation opener proposing version v, which is
// also the layout of an accept of v.
func preamble(v byte) []byte {
	return []byte{preambleMagic[0], preambleMagic[1], preambleMagic[2], v}
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
		if _, err := writeFramed(&buf, nil, v2Frame{Type: t, StreamID: id}, nil, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	okTraced := func(t byte, id uint32, payload []byte, sc telemetry.SpanContext) []byte {
		var buf bytes.Buffer
		if _, err := writeFramed(&buf, nil, v2Frame{Type: t, StreamID: id, Trace: sc}, nil, payload); err != nil {
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
		if _, err := writeFramed(&buf, nil, v2Frame{Type: frameResponse, StreamID: 9}, appendResponseHead(nil, len(body), callErr), body); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(resp([]byte("small body"), nil))
	f.Add(resp(make([]byte, coalesceMax+1), nil))
	f.Add(resp(nil, errors.New("unknown operation \"obj.nope\"")))
	addRefused(f, classicFrame(refEncodeRequest("obj.getelement", []byte("index.html"))))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readV2Frame(bytes.NewReader(data), new([4]byte))
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
		if _, err := writeFramed(&buf, nil, v2Frame{Type: frameRequest, StreamID: 1, Trace: sc}, appendRequestHead(nil, op, len(body)), append(body, extra...)); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	// frame frames a raw payload as a request on stream 1.
	frame := func(payload ...byte) []byte {
		return append([]byte{0, 0, 0, byte(v2FrameOverhead + len(payload)), frameRequest, 0, 0, 0, 0, 1}, payload...)
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
	f.Add(frame(0x80, 0x00, 0))                                     // non-canonical op length
	f.Add(frame(1, 'x', 9, 'y'))                                    // body length beyond the frame
	f.Add(frame(4, 'e', 'c', 'h', 'o')[:12])                        // truncated frame
	f.Add(append([]byte{0, 0, 0, 6, frameResponse, 0}, 0, 0, 0, 1)) // a response is not a request
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})                           // absurd length prefix
	f.Add([]byte("GD\xF2\x02"))                                     // a preamble is not a request
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
		if _, err := writeFramed(&buf, nil, v2Frame{Type: frameRequest, StreamID: fr.StreamID, Trace: fr.Trace}, appendRequestHead(nil, op, len(body)), body); err != nil {
			t.Fatalf("re-encoding accepted request: %v", err)
		}
		if consumed := data[:4+binary.BigEndian.Uint32(data[:4])]; !bytes.Equal(buf.Bytes(), consumed) {
			t.Fatalf("round-trip mismatch:\n in %x\nout %x", consumed, buf.Bytes())
		}
	})
}

// FuzzVersionNegotiation drives both halves of the handshake. The client
// half parses raw as a preamble and as an accept of proposed. The server
// half feeds a live serveConn, over an unbuffered pipe, the first flight
// preamble(proposed)‖raw — a preamble with whatever frame bytes
// behind it, or for a proposal of zero no preamble at all — written in
// pieces whose lengths cuts gives, so the server's bounded first read
// ends anywhere (see serveFirstFlight for the invariants). A flight that
// proposes version 1, or opens with a classic frame, must be refused.
func FuzzVersionNegotiation(f *testing.F) {
	req := func(id uint32, op string, body []byte, sc telemetry.SpanContext) []byte {
		var buf bytes.Buffer
		if _, err := writeFramed(&buf, nil, v2Frame{Type: frameRequest, StreamID: id, Trace: sc}, appendRequestHead(nil, op, len(body)), body); err != nil {
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
	f.Add([]byte{}, byte(1), []byte{})                    // a bare version-1 preamble
	f.Add([]byte("GD\xF2\x7F"), byte(2), []byte{1, 1, 1}) // accept above proposal
	f.Add(req(1, "echo", []byte("first"), traced), byte(2), []byte{})
	f.Add(req(1, "echo", []byte("first"), telemetry.SpanContext{}), byte(2), []byte{4, 3})
	f.Add(append(req(1, "echo", []byte("a"), traced), req(2, "echo", []byte("b"), traced)...), byte(2), []byte{9})
	f.Add(req(1, "echo", bytes.Repeat([]byte("x"), firstReadLen), traced), byte(2), []byte{})
	f.Add(req(1, "nope", nil, traced), byte(2), []byte{})
	f.Add(req(1, "echo", []byte("behind a version-1 preamble"), traced), byte(1), []byte{})
	classic := classicFrame(refEncodeRequest("echo", []byte("classic")))
	f.Add(classic, byte(1), []byte{6}) // a classic frame behind a version-1 preamble
	f.Add(classic, byte(0), []byte{})  // a classic frame with no preamble
	f.Add(classic, byte(2), []byte{})  // a classic frame behind a version-2 preamble

	f.Fuzz(func(t *testing.T, raw []byte, proposed byte, cuts []byte) {
		v, ok := parsePreamble(raw)
		if ok {
			if len(raw) != preambleLen || raw[0] != preambleMagic[0] || raw[1] != preambleMagic[1] || raw[2] != preambleMagic[2] {
				t.Fatalf("parsePreamble accepted non-preamble bytes %x", raw)
			}
			if v == 0 {
				t.Fatalf("parsePreamble accepted invalid version %d", v)
			}
			// Round-trip: re-encoding the parsed version reproduces raw.
			if !bytes.Equal(preamble(v), raw) {
				t.Fatalf("preamble round-trip mismatch: %x -> v%d -> %x", raw, v, preamble(v))
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
			if agreed == 0 {
				t.Fatalf("parseAccept agreed on invalid version %d", agreed)
			}
		} else if !errors.Is(err, ErrProtocol) {
			t.Fatalf("parseAccept(%x, %d) = unexpected error class %v", raw, proposed, err)
		}

		flight := raw
		if proposed != 0 {
			flight = append(preamble(proposed), raw...)
		}
		serveFirstFlight(t, flight, cuts)
	})
}

// serveFirstFlight writes flight into a live serveConn over net.Pipe,
// one piece per cut (a cut of n sends n bytes, zero counting as one; the
// rest goes last), closes the client end and checks that:
//   - serveConn returns, so no goroutine it started outlives the
//     connection (it waits for its handlers);
//   - a flight that does not open with a preamble proposing v2 or above
//     gets no byte back and runs no handler;
//   - otherwise the server's output is the v2 accept followed by
//     response frames, and the handler ran at most once per well-formed
//     request frame behind the preamble.
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
	var accept, rest []byte
	if len(flight) >= preambleLen {
		if v, ok := parsePreamble(flight[:preambleLen]); ok && v >= V2 {
			accept, rest = v2Preamble[:], flight[preambleLen:]
		}
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
	if accept == nil {
		if len(got) > 0 {
			t.Fatalf("server answered %x to a flight it must refuse (flight %x)", got, flight)
		}
		return
	}
	if !bytes.HasPrefix(got, accept) {
		if len(got) == 0 && runs.Load() == 0 {
			return // the accept write lost the race with the close
		}
		t.Fatalf("server output %x does not open with the accept %x", got, accept)
	}
	for r := bytes.NewReader(got[preambleLen:]); r.Len() > 0; {
		if _, _, err := readFramed(r, frameResponse, new([4]byte)); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
				break // a response cut off by the close
			}
			t.Fatalf("server output after the accept is not responses: %v (output %x)", err, out.Bytes())
		}
	}
}
