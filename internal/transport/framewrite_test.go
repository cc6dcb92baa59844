package transport

// Wire compatibility of the frame writer. refEncodeRequest,
// refEncodeResponse and refWriteFrame are the concatenating encoders
// this package used before a frame was written as header + body without
// joining them; they stay here as the reference the writer must match
// byte for byte, on both sides of coalesceMax.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"globedoc/internal/enc"
	"globedoc/internal/telemetry"
)

// refEncodeRequest is the joined request envelope, op‖body, as an
// untraced client sent it before requests were written as head + body.
func refEncodeRequest(op string, body []byte) []byte {
	w := enc.NewWriter(16 + len(op) + len(body))
	w.String(op)
	w.BytesPrefixed(body)
	return w.Bytes()
}

func refEncodeResponse(body []byte, callErr error) []byte {
	w := enc.NewWriter(16 + len(body))
	if callErr != nil {
		w.Byte(1)
		w.String(callErr.Error())
		w.BytesPrefixed(nil)
	} else {
		w.Byte(0)
		w.String("")
		w.BytesPrefixed(body)
	}
	return w.Bytes()
}

func refWriteFrame(w io.Writer, f frame) error {
	ext := 0
	if f.Trace.Valid() {
		f.Flags |= flagTrace
		ext = traceExtLen
	}
	buf := make([]byte, 0, 4+frameOverhead+ext+len(f.Payload))
	buf = binary.BigEndian.AppendUint32(buf, uint32(frameOverhead+ext+len(f.Payload)))
	buf = append(buf, f.Type, f.Flags)
	buf = binary.BigEndian.AppendUint32(buf, f.StreamID)
	if ext > 0 {
		buf = appendTraceExt(buf, f.Trace)
	}
	buf = append(buf, f.Payload...)
	_, err := w.Write(buf)
	return err
}

// writeCounter records what was written and in how many Write calls.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// frameBodySizes straddle the coalescing threshold.
var frameBodySizes = []int{0, 1, 100, coalesceMax - 1, coalesceMax, coalesceMax + 1, 3*coalesceMax + 7}

// sameFrame runs a frame writer and its concatenating reference and
// fails unless they produced the same bytes, the writer reported their
// count, and a body of bodyLen bytes cost the Write calls it should: one
// when coalesced, header + body otherwise. It returns the frame for
// reading back.
func sameFrame(t *testing.T, name string, bodyLen int, write func(io.Writer) (int, error), ref func(io.Writer) error) *bytes.Buffer {
	t.Helper()
	var want bytes.Buffer
	if err := ref(&want); err != nil {
		t.Fatal(err)
	}
	var got writeCounter
	n, err := write(&got)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: frame differs from the reference", name)
	}
	writes := 1
	if bodyLen > coalesceMax {
		writes = 2
	}
	if n != want.Len() || got.writes != writes {
		t.Fatalf("%s: wrote %d bytes in %d writes, want %d in %d", name, n, got.writes, want.Len(), writes)
	}
	return &got.Buffer
}

func TestFrameWritersMatchConcatenatingReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20050404))
	for _, size := range frameBodySizes {
		body := make([]byte, size)
		rng.Read(body)
		for _, callErr := range []error{nil, errors.New("server: no such element")} {
			name := fmt.Sprintf("response, %d bytes, err=%v", size, callErr != nil)
			sent := body // what dispatch hands the writer: an error drops the body
			if callErr != nil {
				sent = nil
			}
			head, envelope := appendResponseHead(nil, len(sent), callErr), refEncodeResponse(body, callErr)

			wire := sameFrame(t, name, len(sent),
				func(w io.Writer) (int, error) {
					return writeFramed(w, nil, frame{Type: frameResponse, StreamID: 5}, head, sent)
				},
				func(w io.Writer) error {
					return refWriteFrame(w, frame{Type: frameResponse, StreamID: 5, Payload: envelope})
				})
			n := wire.Len()
			f, err := readFrame(wire, new([4]byte))
			if err != nil {
				t.Fatalf("%s: reading the frame back: %v", name, err)
			}
			if f.wireLen() != n {
				t.Fatalf("%s: wireLen = %d, the frame is %d bytes", name, f.wireLen(), n)
			}
			checkDecodedResponse(t, name, f.Payload, body, callErr)
		}

		// Requests: head (op + body length) and body, as the client
		// writes them, against the joined envelope.
		const op = "obj.getelement"
		head, envelope := appendRequestHead(nil, op, len(body)), refEncodeRequest(op, body)
		for _, sc := range []telemetry.SpanContext{{}, {TraceID: 7, SpanID: 9, Sampled: true}} {
			name := fmt.Sprintf("request, %d bytes, traced=%v", size, sc.Valid())
			wire := sameFrame(t, name, len(body),
				func(w io.Writer) (int, error) {
					return writeFramed(w, nil, frame{Type: frameRequest, StreamID: 3, Trace: sc}, head, body)
				},
				func(w io.Writer) error {
					return refWriteFrame(w, frame{Type: frameRequest, StreamID: 3, Payload: envelope, Trace: sc})
				})
			f, err := readFrame(wire, new([4]byte))
			if err != nil {
				t.Fatalf("%s: reading the frame back: %v", name, err)
			}
			if f.Trace != sc {
				t.Fatalf("%s: decoded trace %+v, want %+v", name, f.Trace, sc)
			}
			checkDecodedRequest(t, name, f.Payload, op, body)
		}

		// A first flight: the hello rides in front of the request, in
		// its header's write.
		name := fmt.Sprintf("first flight, %d bytes", size)
		pre := hello[:]
		wire := sameFrame(t, name, len(body),
			func(w io.Writer) (int, error) {
				return writeFramed(w, pre, frame{Type: frameRequest, StreamID: 1}, head, body)
			},
			func(w io.Writer) error {
				if _, err := w.Write(pre); err != nil {
					return err
				}
				return refWriteFrame(w, frame{Type: frameRequest, StreamID: 1, Payload: envelope})
			})
		if got := wire.Next(len(hello)); !bytes.Equal(got, pre) {
			t.Fatalf("%s: opens with %x, want the hello", name, got)
		}
		f, err := readFrame(wire, new([4]byte))
		if err != nil {
			t.Fatalf("%s: reading the frame back: %v", name, err)
		}
		checkDecodedRequest(t, name, f.Payload, op, body)
	}
}

// checkDecodedRequest asserts decode∘encode is the identity on a request
// envelope.
func checkDecodedRequest(t *testing.T, name string, payload []byte, op string, body []byte) {
	t.Helper()
	gotOp, got, err := decodeRequest(payload)
	if err != nil || gotOp != op || !bytes.Equal(got, body) {
		t.Fatalf("%s: decoded %q with %d bytes, err %v; want %q with the %d sent", name, gotOp, len(got), err, op, len(body))
	}
}

// checkDecodedResponse asserts decode∘encode is the identity on a
// response envelope.
func checkDecodedResponse(t *testing.T, name string, payload, body []byte, callErr error) {
	t.Helper()
	got, err := decodeResponse("op", payload)
	if callErr != nil {
		var re *RemoteError
		if !errors.As(err, &re) || re.Message != callErr.Error() {
			t.Fatalf("%s: decoded error %v, want remote %q", name, err, callErr)
		}
		return
	}
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("%s: decoded %d bytes, err %v; want the %d sent", name, len(got), err, len(body))
	}
}

// A request envelope is op‖body and nothing after it: a trace-context
// trailer behind the body is refused like any other trailing byte.
func TestDecodeRequestRejectsTrailingBytes(t *testing.T) {
	envelope := refEncodeRequest("obj.getelement", []byte("body"))
	trailer := appendTraceExt(nil, telemetry.SpanContext{TraceID: 7, SpanID: 9, Sampled: true})
	for _, extra := range [][]byte{{0}, trailer} {
		payload := append(append([]byte(nil), envelope...), extra...)
		if op, body, err := decodeRequest(payload); err == nil {
			t.Errorf("%d trailing bytes accepted as op %q, body %q", len(extra), op, body)
		}
	}
}

func TestWriteFrameRefusesOversizedPayload(t *testing.T) {
	body := make([]byte, MaxFrame)
	head := appendResponseHead(nil, len(body), nil)
	if n, err := writeFramed(io.Discard, nil, frame{Type: frameResponse, StreamID: 1}, head, body); !errors.Is(err, ErrFrameTooLarge) || n != 0 {
		t.Fatalf("n=%d err=%v, want ErrFrameTooLarge and nothing written", n, err)
	}
}

// burstRecorder is a buffersWriter: it records the lengths of the
// buffers each WriteBuffers call was handed.
type burstRecorder struct {
	bytes.Buffer
	bursts [][]int // per WriteBuffers call, the length of each buffer
}

func (b *burstRecorder) WriteBuffers(bufs ...[]byte) (int, error) {
	var lens []int
	n := 0
	for _, p := range bufs {
		lens = append(lens, len(p))
		m, _ := b.Buffer.Write(p)
		n += m
	}
	b.bursts = append(b.bursts, lens)
	return n, nil
}

// A connection that takes several buffers at once is handed a large
// frame whole, header and body in one call; a small frame still arrives
// as one plain Write.
func TestLargeFrameReachesABuffersWriterInOneCall(t *testing.T) {
	for _, size := range []int{coalesceMax, coalesceMax + 1} {
		body := bytes.Repeat([]byte{0xa5}, size)
		head := appendResponseHead(nil, len(body), nil)
		var want bytes.Buffer
		if err := refWriteFrame(&want, frame{Type: frameResponse, StreamID: 3, Payload: refEncodeResponse(body, nil)}); err != nil {
			t.Fatal(err)
		}
		var got burstRecorder
		n, err := writeFramed(&got, nil, frame{Type: frameResponse, StreamID: 3}, head, body)
		if err != nil || n != want.Len() || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%d-byte body: wrote %d bytes, err %v; want the reference's %d", size, n, err, want.Len())
		}
		if size <= coalesceMax {
			if len(got.bursts) != 0 {
				t.Errorf("%d-byte body: coalesced frame went through WriteBuffers %v", size, got.bursts)
			}
			continue
		}
		if len(got.bursts) != 1 || len(got.bursts[0]) != 2 || got.bursts[0][1] != size {
			t.Errorf("%d-byte body: WriteBuffers calls %v, want one of [header, %d]", size, got.bursts, size)
		}
	}
}

// yieldingWriter takes a frame only after yielding to other goroutines,
// so a write buffer another writer could still scribble on would show in
// what it recorded.
type yieldingWriter struct{ bytes.Buffer }

func (w *yieldingWriter) Write(p []byte) (int, error) {
	runtime.Gosched()
	return w.Buffer.Write(p)
}

// Frame writers on many connections at once draw their buffers from one
// pool: every frame each writes must still be the reference encoding of
// its own request or response, byte for byte, on both sides of
// coalesceMax.
func TestConcurrentFrameWritersMatchTheReference(t *testing.T) {
	const writers, frames = 8, 64
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var got yieldingWriter
			var want bytes.Buffer
			for i := 0; i < frames; i++ {
				body := make([]byte, frameBodySizes[rng.Intn(len(frameBodySizes))])
				rng.Read(body)
				id := uint32(g*frames + i)
				var err error
				if i%2 == 0 {
					const op = "obj.getelement"
					sc := telemetry.SpanContext{TraceID: uint64(g + 1), SpanID: uint64(i + 1), Sampled: true}
					_, err = writeFramed(&got, nil, frame{Type: frameRequest, StreamID: id, Trace: sc}, appendRequestHead(nil, op, len(body)), body)
					if err == nil {
						err = refWriteFrame(&want, frame{Type: frameRequest, StreamID: id, Trace: sc, Payload: refEncodeRequest(op, body)})
					}
				} else {
					_, err = writeFramed(&got, nil, frame{Type: frameResponse, StreamID: id}, appendResponseHead(nil, len(body), nil), body)
					if err == nil {
						err = refWriteFrame(&want, frame{Type: frameResponse, StreamID: id, Payload: refEncodeResponse(body, nil)})
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("writer %d: %d frames differ from the reference", g, frames)
			}
		}()
	}
	wg.Wait()
}
