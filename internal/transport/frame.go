package transport

// The wire framing: one fixed hello, then stream-multiplexed frames.
//
// A connection opens with the 4-byte hello "GD\xF2\x02", and the server
// answers with the same 4 bytes. Nothing is negotiated: each side
// compares what it reads with the hello for equality. The client's first
// request frame follows its hello in the same write, ahead of the answer
// (conn.go). After the hello, every frame is
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
// anything but the hello is dropped before a frame is read.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"globedoc/internal/telemetry"
)

// ErrProtocol marks traffic that breaks the framing rules: a wrong
// hello or answer, or a malformed frame.
var ErrProtocol = errors.New("transport: protocol violation")

// hello opens every connection, and the server answers with the same
// bytes. Both sides write it as it is, never modified, so sending it
// allocates nothing.
var hello = [4]byte{'G', 'D', 0xF2, 0x02}

// Frame types. Anything else is a protocol violation and drops the
// connection.
const (
	frameRequest  byte = 1
	frameResponse byte = 2
)

// frameOverhead is the fixed header inside a frame's length-delimited
// body: type, flags and stream ID.
const frameOverhead = 6

// Frame flag bits. flagTrace marks the trace-context extension;
// every other bit is reserved and rejected.
const (
	flagTrace        byte = 0x01
	knownFlags            = flagTrace
	traceExtLen           = 17 // trace ID u64 | parent span ID u64 | trace flags byte
	traceFlagSampled      = 0x01
)

// frame is one parsed multiplexed frame.
type frame struct {
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
func (f frame) wireLen() int {
	n := 4 + frameOverhead + len(f.Payload)
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
// fills, is not written. pre, which may be nil, is the hello riding in
// front of the frame (a client's first flight). It,
// the frame header and head, the short leading part of the payload (an
// envelope head), are copied into one pooled buffer, together with a
// body small enough to coalesce; a larger body's buffers are sent where
// they lie (see writeSplit). The buffer goes back to the pool when the
// write returns: an io.Writer must not retain what it is given.
func writeFramed(w io.Writer, pre []byte, f frame, head []byte, body ...[]byte) (int, error) {
	n := len(head) + bufsLen(body)
	if n > MaxFrame {
		return 0, ErrFrameTooLarge
	}
	// fixed is what a frame holds between its length prefix and head:
	// type, flags, stream ID and, when traced, the trace extension.
	fixed, traced := frameOverhead, f.Trace.Valid()
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
func readFramed(r io.Reader, want byte, lenBuf *[4]byte) (f frame, wire int, err error) {
	f, err = readFrame(r, lenBuf)
	if err == nil && f.Type != want {
		err = fmt.Errorf("%w: unexpected frame type 0x%02x", ErrProtocol, f.Type)
	}
	return f, f.wireLen(), err
}

// readFrame receives and validates one frame, reading its length
// prefix into lenBuf, the connection's scratch.
//
// Ownership: the buffer a frame is read into is allocated for that
// frame, handed to exactly one call and never pooled or reused. That is
// what lets everything decoded from it — the frame's Payload,
// decodeRequest's and decodeResponse's body, the element
// object.DecodeElement cuts out of that — alias it instead of copying.
// Only the four length bytes, which nothing decoded aliases, are read
// into scratch.
func readFrame(r io.Reader, lenBuf *[4]byte) (frame, error) {
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > MaxFrame+frameOverhead+traceExtLen {
		return frame{}, ErrFrameTooLarge
	}
	if n < frameOverhead {
		return frame{}, fmt.Errorf("%w: frame length %d below header size", ErrProtocol, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return frame{}, err
	}
	return parseFrame(body)
}

// parseFrame decodes a frame body (everything after the length
// prefix), enforcing the framing invariants an untrusted peer might
// break: known type, known flag bits only, complete header, a
// complete, canonical trace extension when flagged (reserved trace
// flag bits must be zero), and a payload within MaxFrame after the
// extension is stripped — the readFrame length prefilter budgets for
// the extension whether or not the frame carries one, so the exact
// bound is enforced here. Together these make decode∘encode the
// identity on every accepted frame.
func parseFrame(body []byte) (frame, error) {
	if len(body) < frameOverhead {
		return frame{}, fmt.Errorf("%w: truncated frame header (%d bytes)", ErrProtocol, len(body))
	}
	f := frame{
		Type:     body[0],
		Flags:    body[1],
		StreamID: binary.BigEndian.Uint32(body[2:6]),
		Payload:  body[6:],
	}
	if f.Type != frameRequest && f.Type != frameResponse {
		return frame{}, fmt.Errorf("%w: unknown frame type 0x%02x", ErrProtocol, f.Type)
	}
	if f.Flags&^knownFlags != 0 {
		return frame{}, fmt.Errorf("%w: reserved flag bits 0x%02x set", ErrProtocol, f.Flags&^knownFlags)
	}
	if f.Flags&flagTrace != 0 {
		if len(f.Payload) < traceExtLen {
			return frame{}, fmt.Errorf("%w: truncated trace-context extension (%d bytes)", ErrProtocol, len(f.Payload))
		}
		if tf := f.Payload[traceExtLen-1]; tf&^traceFlagSampled != 0 {
			return frame{}, fmt.Errorf("%w: reserved trace flag bits 0x%02x set", ErrProtocol, tf&^traceFlagSampled)
		}
		f.Trace = parseTraceExt(f.Payload[:traceExtLen])
		f.Payload = f.Payload[traceExtLen:]
		if !f.Trace.Valid() {
			return frame{}, fmt.Errorf("%w: trace-context extension with zero trace or span ID", ErrProtocol)
		}
	}
	if len(f.Payload) > MaxFrame {
		return frame{}, ErrFrameTooLarge
	}
	return f, nil
}
