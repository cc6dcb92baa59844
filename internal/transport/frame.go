package transport

// The wire framing: negotiated, stream-multiplexed.
//
// A connection opens with a 4-byte client preamble — the 3-byte magic
// "GD\xF2" followed by the highest version the client speaks, V2 —
// answered by a server accept of the same shape carrying the agreed
// version (never above the proposal). The client's first request frame
// follows its preamble in the same write, ahead of the accept (conn.go).
// After the preamble, every frame is
//
//	uint32 length | type byte | flags byte | uint32 streamID | payload
//
// where length covers everything after itself. Requests and responses
// from many concurrent calls interleave on one connection, matched by
// stream ID; responses may arrive in any order. The flags byte is a bit
// set: bit 0x01 marks a trace-context extension (17 bytes — trace ID,
// parent span ID, trace flags) between the frame header and the
// payload; all other bits are reserved and must be zero.
//
// The server answers nothing else: a connection that opens with
// anything but a preamble proposing V2 or above is dropped before a
// frame is read.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"

	"globedoc/internal/telemetry"
)

// V2 is the protocol version this build speaks, the only one it
// accepts: the negotiated preamble and stream-multiplexed frames.
const V2 byte = 2

// Protocol-violation errors. ErrProtocol marks malformed v2 traffic (a
// peer breaking framing rules); ErrVersionMismatch means negotiation
// concluded the peer cannot speak a version the caller requires.
var (
	ErrProtocol        = errors.New("transport: protocol violation")
	ErrVersionMismatch = errors.New("transport: peer cannot speak required protocol version")
)

// preambleLen is the size of both the client preamble and the server
// accept: 3 magic bytes plus a version byte.
const preambleLen = 4

var preambleMagic = [3]byte{'G', 'D', 0xF2}

// v2Preamble is the client preamble proposing V2. The server accept has
// the same layout, so it is also the accept of V2. Both sides write it
// as it is, never modified, so sending it allocates nothing.
var v2Preamble = [preambleLen]byte{preambleMagic[0], preambleMagic[1], preambleMagic[2], V2}

// parsePreamble reports whether b is a well-formed negotiation preamble
// (or accept) and extracts its version byte. A version of zero is not
// well-formed.
func parsePreamble(b []byte) (version byte, ok bool) {
	if len(b) != preambleLen {
		return 0, false
	}
	if b[0] != preambleMagic[0] || b[1] != preambleMagic[1] || b[2] != preambleMagic[2] {
		return 0, false
	}
	if b[3] == 0 {
		return 0, false
	}
	return b[3], true
}

// parseAccept validates a server accept against the client's proposal:
// it must be a well-formed preamble whose version does not exceed what
// the client offered.
func parseAccept(b []byte, proposed byte) (byte, error) {
	v, ok := parsePreamble(b)
	if !ok {
		return 0, fmt.Errorf("%w: malformed negotiation accept % x", ErrProtocol, b)
	}
	if v > proposed {
		return 0, fmt.Errorf("%w: server accepted version %d above proposal %d", ErrProtocol, v, proposed)
	}
	return v, nil
}

// versionLabel renders a version byte as a telemetry label.
func versionLabel(v byte) string {
	if v == V2 {
		return "v2"
	}
	return strconv.Itoa(int(v))
}

// v2 frame types. Anything else is a protocol violation and drops the
// connection.
const (
	frameRequest  byte = 1
	frameResponse byte = 2
)

// v2FrameOverhead is the fixed header inside a v2 frame's length-
// delimited body: type, flags and stream ID.
const v2FrameOverhead = 6

// v2 frame flag bits. flagTrace marks the trace-context extension;
// every other bit is reserved and rejected.
const (
	flagTrace        byte = 0x01
	knownFlags            = flagTrace
	traceExtLen           = 17 // trace ID u64 | parent span ID u64 | trace flags byte
	traceFlagSampled      = 0x01
)

// v2Frame is one parsed multiplexed frame.
type v2Frame struct {
	Type     byte
	Flags    byte
	StreamID uint32
	Payload  []byte
	// Trace is the propagated span context when the frame carried the
	// flagTrace extension (requests only; the zero value means untraced).
	Trace telemetry.SpanContext
}

// wireLen is the size a parsed frame had on the wire: length prefix,
// fixed header, the trace extension when flagged, and the payload.
func (f v2Frame) wireLen() int {
	n := 4 + v2FrameOverhead + len(f.Payload)
	if f.Flags&flagTrace != 0 {
		n += traceExtLen
	}
	return n
}

// appendTraceExt encodes sc as the 17-byte trace-context extension.
func appendTraceExt(buf []byte, sc telemetry.SpanContext) []byte {
	var ext [traceExtLen]byte
	binary.BigEndian.PutUint64(ext[0:8], sc.TraceID)
	binary.BigEndian.PutUint64(ext[8:16], sc.SpanID)
	if sc.Sampled {
		ext[16] = traceFlagSampled
	}
	return append(buf, ext[:]...)
}

// parseTraceExt decodes the 17-byte trace-context extension.
func parseTraceExt(ext []byte) telemetry.SpanContext {
	return telemetry.SpanContext{
		TraceID: binary.BigEndian.Uint64(ext[0:8]),
		SpanID:  binary.BigEndian.Uint64(ext[8:16]),
		Sampled: ext[16]&traceFlagSampled != 0,
	}
}

// writeFramed sends pre‖frame, frame being head‖body framed with f's
// type, flags, stream and trace context (a valid f.Trace is written as
// the trace-context extension with flagTrace set), and returns the bytes
// it put on the wire, pre included. f's Payload, which the read side
// fills, is not written. pre, which may be nil, is a negotiation
// preamble riding in front of the frame (a client's first flight). It,
// the frame header and head, the short leading part of the payload (an
// envelope head), are copied into one pooled buffer, together with a
// body small enough to coalesce; a larger body's buffers are sent where
// they lie (see writeSplit). The buffer goes back to the pool when the
// write returns: an io.Writer must not retain what it is given.
func writeFramed(w io.Writer, pre []byte, f v2Frame, head []byte, body ...[]byte) (int, error) {
	n := len(head) + bufsLen(body)
	if n > MaxFrame {
		return 0, ErrFrameTooLarge
	}
	// fixed is what a frame holds between its length prefix and head:
	// type, flags, stream ID and, when traced, the trace extension.
	fixed, traced := v2FrameOverhead, f.Trace.Valid()
	if traced {
		f.Flags |= flagTrace
		fixed += traceExtLen
	}
	bp := writeBufs.Get().(*[]byte)
	buf := frameBuf(*bp, len(pre)+4+fixed+len(head), bufsLen(body))
	buf = append(buf, pre...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(fixed+n))
	buf = append(buf, f.Type, f.Flags)
	buf = binary.BigEndian.AppendUint32(buf, f.StreamID)
	if traced {
		buf = appendTraceExt(buf, f.Trace)
	}
	buf = append(buf, head...)
	sent, err := writeSplit(w, buf, body)
	putWriteBuf(bp, buf)
	return sent, err
}

// readFramed receives one frame of type want and reports its size on the
// wire. A frame of another type is a protocol violation. lenBuf is the
// connection's scratch for the frame's length prefix.
func readFramed(r io.Reader, want byte, lenBuf *[4]byte) (f v2Frame, wire int, err error) {
	f, err = readV2Frame(r, lenBuf)
	if err == nil && f.Type != want {
		err = fmt.Errorf("%w: unexpected frame type 0x%02x", ErrProtocol, f.Type)
	}
	return f, f.wireLen(), err
}

// readV2Frame receives and validates one frame, reading its length
// prefix into lenBuf, the connection's scratch.
//
// Ownership: the buffer a frame is read into is allocated for that
// frame, handed to exactly one call and never pooled or reused. That is
// what lets everything decoded from it — the frame's Payload,
// decodeRequest's and decodeResponse's body, the element
// object.DecodeElement cuts out of that — alias it instead of copying.
// Only the four length bytes, which nothing decoded aliases, are read
// into scratch.
func readV2Frame(r io.Reader, lenBuf *[4]byte) (v2Frame, error) {
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return v2Frame{}, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > MaxFrame+v2FrameOverhead+traceExtLen {
		return v2Frame{}, ErrFrameTooLarge
	}
	if n < v2FrameOverhead {
		return v2Frame{}, fmt.Errorf("%w: v2 frame length %d below header size", ErrProtocol, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return v2Frame{}, err
	}
	return parseV2Frame(body)
}

// parseV2Frame decodes a frame body (everything after the length
// prefix), enforcing the framing invariants an untrusted peer might
// break: known type, known flag bits only, complete header, a
// complete, canonical trace extension when flagged (reserved trace
// flag bits must be zero), and a payload within MaxFrame after the
// extension is stripped — the readV2Frame length prefilter budgets for
// the extension whether or not the frame carries one, so the exact
// bound is enforced here. Together these make decode∘encode the
// identity on every accepted frame.
func parseV2Frame(body []byte) (v2Frame, error) {
	if len(body) < v2FrameOverhead {
		return v2Frame{}, fmt.Errorf("%w: truncated v2 frame header (%d bytes)", ErrProtocol, len(body))
	}
	f := v2Frame{
		Type:     body[0],
		Flags:    body[1],
		StreamID: binary.BigEndian.Uint32(body[2:6]),
		Payload:  body[6:],
	}
	if f.Type != frameRequest && f.Type != frameResponse {
		return v2Frame{}, fmt.Errorf("%w: unknown v2 frame type 0x%02x", ErrProtocol, f.Type)
	}
	if f.Flags&^knownFlags != 0 {
		return v2Frame{}, fmt.Errorf("%w: reserved v2 flag bits 0x%02x set", ErrProtocol, f.Flags&^knownFlags)
	}
	if f.Flags&flagTrace != 0 {
		if len(f.Payload) < traceExtLen {
			return v2Frame{}, fmt.Errorf("%w: truncated trace-context extension (%d bytes)", ErrProtocol, len(f.Payload))
		}
		if tf := f.Payload[traceExtLen-1]; tf&^traceFlagSampled != 0 {
			return v2Frame{}, fmt.Errorf("%w: reserved trace flag bits 0x%02x set", ErrProtocol, tf&^traceFlagSampled)
		}
		f.Trace = parseTraceExt(f.Payload[:traceExtLen])
		f.Payload = f.Payload[traceExtLen:]
		if !f.Trace.Valid() {
			return v2Frame{}, fmt.Errorf("%w: trace-context extension with zero trace or span ID", ErrProtocol)
		}
	}
	if len(f.Payload) > MaxFrame {
		return v2Frame{}, ErrFrameTooLarge
	}
	return f, nil
}
