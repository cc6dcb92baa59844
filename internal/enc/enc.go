// Package enc provides deterministic binary encoding helpers used across
// the GlobeDoc code base.
//
// Certificates and other signed structures must have a single canonical
// byte representation so that signatures are stable across processes and
// architectures. Package enc implements a small, explicit, length-prefixed
// format: unsigned integers are varint-encoded, byte strings and strings
// are length-prefixed, and times are encoded as Unix nanoseconds. The
// format has no reflection, no type metadata and no alignment: encoding
// the same logical value always produces the same bytes.
package enc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// ErrTruncated is returned when the decoder runs out of input bytes.
var ErrTruncated = errors.New("enc: truncated input")

// ErrTooLarge is returned when a length prefix exceeds the decoder's
// remaining input or the configured maximum.
var ErrTooLarge = errors.New("enc: length prefix too large")

// ErrNonCanonical is returned when a varint uses more bytes than the
// minimal encoding of its value, or a boolean byte is neither 0 nor 1.
// Accepting either would give one logical value many byte
// representations, breaking the one-encoding guarantee signatures depend
// on.
var ErrNonCanonical = errors.New("enc: non-canonical encoding")

// Writer accumulates a canonical binary encoding. The zero value is ready
// to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the given initial capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the accumulated encoding. The returned slice is owned by
// the Writer and must not be modified while the Writer is still in use.
func (w *Writer) Bytes() []byte { return w.buf }

// Len reports the number of bytes accumulated so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset discards the accumulated encoding, retaining the buffer.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Uvarint appends v in unsigned varint encoding.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Varint appends v in signed (zig-zag) varint encoding.
func (w *Writer) Varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// Uint64 appends v as 8 fixed big-endian bytes.
func (w *Writer) Uint64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// Uint32 appends v as 4 fixed big-endian bytes.
func (w *Writer) Uint32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

// Byte appends a single byte.
func (w *Writer) Byte(b byte) {
	w.buf = append(w.buf, b)
}

// Bool appends a boolean as one byte (0 or 1).
func (w *Writer) Bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Bytes8 appends b with a varint length prefix.
func (w *Writer) BytesPrefixed(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends s with a varint length prefix.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Raw appends b verbatim, with no length prefix. Use only for fixed-size
// fields whose length is known to the decoder.
func (w *Writer) Raw(b []byte) {
	w.buf = append(w.buf, b...)
}

// Time appends t as Unix nanoseconds (fixed 8 bytes). The zero time is
// encoded as math.MinInt64 so it round-trips distinguishably.
func (w *Writer) Time(t time.Time) {
	if t.IsZero() {
		w.Uint64(uint64(uint64(1) << 63)) // math.MinInt64 bit pattern
		return
	}
	w.Uint64(uint64(t.UnixNano()))
}

// Float64 appends v as its IEEE-754 bit pattern (fixed 8 bytes).
func (w *Writer) Float64(v float64) {
	w.Uint64(math.Float64bits(v))
}

// Reader decodes values written by Writer. Methods record the first error
// encountered; once an error occurs all subsequent reads return zero
// values. Check Err after decoding.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining reports the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Finish returns an error if decoding failed or input bytes remain.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("enc: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint decodes an unsigned varint, rejecting non-minimal encodings.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	// A multi-byte varint whose final (most-significant) group is zero
	// is padding: the same value encodes in fewer bytes.
	if n > 1 && r.buf[r.off+n-1] == 0 {
		r.fail(ErrNonCanonical)
		return 0
	}
	r.off += n
	return v
}

// Count decodes the item count of a list whose every item takes at
// least min bytes (min >= 1) of the input after it. A count whose items
// cannot fit in the bytes that remain is refused (ErrTooLarge) and read
// as 0, so a decoder that sizes a slice from a count never allocates
// more than its input could fill, whatever the count claims.
func (r *Reader) Count(min int) uint64 {
	n := r.Uvarint()
	if r.err == nil && n > uint64(r.Remaining()/max(min, 1)) {
		r.fail(ErrTooLarge)
		return 0
	}
	return n
}

// Uvarint32 decodes an unsigned varint that must fit in 32 bits. A wider
// value is rejected, not truncated: truncating would give one decoded
// value many encodings.
func (r *Reader) Uvarint32() uint32 {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.fail(ErrTooLarge)
		return 0
	}
	return uint32(v)
}

// Varint decodes a signed varint, rejecting non-minimal encodings.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	if n > 1 && r.buf[r.off+n-1] == 0 {
		r.fail(ErrNonCanonical)
		return 0
	}
	r.off += n
	return v
}

// Uint64 decodes 8 fixed big-endian bytes.
func (r *Reader) Uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// Uint32 decodes 4 fixed big-endian bytes.
func (r *Reader) Uint32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 4 {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// Byte decodes a single byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 1 {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Bool decodes a boolean byte, rejecting any value but 0 and 1.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if b > 1 {
		r.fail(ErrNonCanonical)
		return false
	}
	return b == 1
}

// BytesPrefixed decodes a varint-length-prefixed byte string. The returned
// slice aliases the Reader's input.
func (r *Reader) BytesPrefixed() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.fail(ErrTooLarge)
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// String decodes a varint-length-prefixed string.
func (r *Reader) String() string {
	return string(r.BytesPrefixed())
}

// Raw decodes n bytes with no length prefix. The returned slice aliases
// the Reader's input.
func (r *Reader) Raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Remaining() {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Time decodes a time written by Writer.Time.
func (r *Reader) Time() time.Time {
	v := int64(r.Uint64())
	if r.err != nil {
		return time.Time{}
	}
	if v == math.MinInt64 {
		return time.Time{}
	}
	return time.Unix(0, v)
}

// Float64 decodes an IEEE-754 float written by Writer.Float64.
func (r *Reader) Float64() float64 {
	return math.Float64frombits(r.Uint64())
}
