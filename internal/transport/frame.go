package transport

// Transport v2: negotiated, stream-multiplexed framing.
//
// A v2 connection opens with a 4-byte client preamble — the 3-byte magic
// "GD\xF2" followed by the highest version the client speaks — answered
// by a server accept of the same shape carrying the agreed version
// (never above the proposal). The client's first request frame follows
// its preamble in the same write, ahead of the accept (conn.go). After
// the preamble, every frame is
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
// The magic's first byte (0x47) makes the preamble, read as a v1 length
// header, decode to ~1.2 GiB — far above MaxFrame — so a pre-negotiation
// v1 server deterministically rejects it and hangs up instead of
// stalling. The client's fallback path keys on exactly that hangup.
//
// Trace context travels only in the v2 frame header. A v1 request is
// op‖body and nothing else, so on a v1 connection a trace ends at the
// process boundary.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"

	"globedoc/internal/telemetry"
)

// Protocol versions. V1 is the original length-prefixed one-call-per-
// connection protocol; V2 adds the negotiated preamble and stream-
// multiplexed frames.
const (
	V1 byte = 1
	V2 byte = 2
	// MaxSupportedVersion is the highest version this build speaks.
	MaxSupportedVersion = V2
)

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

// clientPreamble encodes the version-negotiation opener proposing
// version v. The server accept has the same layout, so it doubles as
// the accept encoder.
func clientPreamble(v byte) []byte {
	return []byte{preambleMagic[0], preambleMagic[1], preambleMagic[2], v}
}

// parsePreamble reports whether b is a well-formed negotiation preamble
// (or accept) and extracts its version byte. A version of zero is not a
// valid proposal, so such bytes fall through to v1 framing.
func parsePreamble(b []byte) (version byte, ok bool) {
	if len(b) != preambleLen {
		return 0, false
	}
	if b[0] != preambleMagic[0] || b[1] != preambleMagic[1] || b[2] != preambleMagic[2] {
		return 0, false
	}
	if b[3] < V1 {
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
	switch v {
	case V1:
		return "v1"
	case V2:
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

// writeFramed sends pre‖frame, frame being head‖body framed in the given
// framing, and returns the bytes it put on the wire, pre included. A v1
// frame is a length prefix covering head‖body and names nothing; a v2
// frame carries f's type, flags, stream and trace context (a valid
// f.Trace is written as the trace-context extension with flagTrace set).
// f's Payload, which the read side fills, is not written. pre, which may
// be nil, is a negotiation preamble riding in front of the frame (a
// client's first flight). It and head, the short leading part of the
// payload (an envelope header), are copied into the frame header's
// buffer; body's buffers are not (see writeSplit).
func writeFramed(w io.Writer, pre []byte, version byte, f v2Frame, head []byte, body ...[]byte) (int, error) {
	n := len(head) + bufsLen(body)
	if n > MaxFrame {
		return 0, ErrFrameTooLarge
	}
	// fixed is what a v2 frame holds between its length prefix and head:
	// type, flags, stream ID and, when traced, the trace extension.
	fixed, ext := 0, 0
	if version >= V2 {
		if f.Trace.Valid() {
			f.Flags |= flagTrace
			ext = traceExtLen
		}
		fixed = v2FrameOverhead + ext
	}
	buf := frameBuf(len(pre)+4+fixed+len(head), bufsLen(body))
	buf = append(buf, pre...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(fixed+n))
	if version >= V2 {
		buf = append(buf, f.Type, f.Flags)
		buf = binary.BigEndian.AppendUint32(buf, f.StreamID)
		if ext > 0 {
			buf = appendTraceExt(buf, f.Trace)
		}
	}
	buf = append(buf, head...)
	return writeSplit(w, buf, body)
}

// readFramed receives one frame of type want in the given framing and
// reports its size on the wire. A v1 frame is returned as a want frame on
// stream 0 with no trace context; a v2 frame of another type is a
// protocol violation.
func readFramed(r io.Reader, version, want byte) (f v2Frame, wire int, err error) {
	if version < V2 {
		var payload []byte
		payload, err = readFrame(r)
		return v2Frame{Type: want, Payload: payload}, 4 + len(payload), err
	}
	f, err = readV2Frame(r)
	if err == nil && f.Type != want {
		err = fmt.Errorf("%w: unexpected frame type 0x%02x", ErrProtocol, f.Type)
	}
	return f, f.wireLen(), err
}

// readV2Frame receives and validates one v2 frame. The frame's Payload
// aliases a buffer allocated for this frame alone (see readFrame).
func readV2Frame(r io.Reader) (v2Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return v2Frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
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
