package transport

// Unit tests for the v2 frame parser's size bound. The length prefilter
// in readV2Frame budgets for the optional trace extension whether or
// not the frame carries one, so an untraced frame can reach the parser
// with up to traceExtLen payload bytes above MaxFrame — the exact bound
// is parseV2Frame's job, keeping decode∘encode the identity (writeFramed
// refuses such payloads too).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"globedoc/internal/telemetry"
)

func TestParseV2FramePayloadBound(t *testing.T) {
	build := func(traced bool, payloadLen int) []byte {
		body := make([]byte, 0, v2FrameOverhead+traceExtLen+payloadLen)
		var flags byte
		if traced {
			flags = flagTrace
		}
		body = append(body, frameRequest, flags)
		body = binary.BigEndian.AppendUint32(body, 1)
		if traced {
			body = appendTraceExt(body, telemetry.SpanContext{TraceID: 1, SpanID: 2, Sampled: true})
		}
		return append(body, make([]byte, payloadLen)...)
	}
	for _, tc := range []struct {
		name    string
		traced  bool
		payload int
		wantErr error
	}{
		{"untraced at bound", false, MaxFrame, nil},
		{"untraced above bound", false, MaxFrame + 1, ErrFrameTooLarge},
		{"traced at bound", true, MaxFrame, nil},
		{"traced above bound", true, MaxFrame + 1, ErrFrameTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := parseV2Frame(build(tc.traced, tc.payload))
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseV2Frame: %v", err)
			}
			if len(f.Payload) != tc.payload {
				t.Fatalf("payload = %d bytes, want %d", len(f.Payload), tc.payload)
			}
			// Every accepted frame must re-encode.
			if _, err := writeFramed(io.Discard, nil, f, nil, f.Payload); err != nil {
				t.Fatalf("re-encoding accepted frame: %v", err)
			}
		})
	}

	// End to end: an untraced frame one byte over MaxFrame fits inside
	// readV2Frame's length prefilter but must still be rejected.
	body := build(false, MaxFrame+1)
	var wire bytes.Buffer
	binary.Write(&wire, binary.BigEndian, uint32(len(body)))
	wire.Write(body)
	if _, err := readV2Frame(&wire, new([4]byte)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("readV2Frame err = %v, want ErrFrameTooLarge", err)
	}
}
