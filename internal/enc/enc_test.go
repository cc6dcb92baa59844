package enc

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTripScalars(t *testing.T) {
	w := NewWriter(64)
	w.Uvarint(0)
	w.Uvarint(1)
	w.Uvarint(math.MaxUint64)
	w.Varint(-1)
	w.Varint(math.MinInt64)
	w.Uint64(42)
	w.Uint32(7)
	w.Byte(0xab)
	w.Bool(true)
	w.Bool(false)
	w.Float64(3.5)

	r := NewReader(w.Bytes())
	if got := r.Uvarint(); got != 0 {
		t.Errorf("Uvarint = %d, want 0", got)
	}
	if got := r.Uvarint(); got != 1 {
		t.Errorf("Uvarint = %d, want 1", got)
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Errorf("Uvarint = %d, want MaxUint64", got)
	}
	if got := r.Varint(); got != -1 {
		t.Errorf("Varint = %d, want -1", got)
	}
	if got := r.Varint(); got != math.MinInt64 {
		t.Errorf("Varint = %d, want MinInt64", got)
	}
	if got := r.Uint64(); got != 42 {
		t.Errorf("Uint64 = %d, want 42", got)
	}
	if got := r.Uint32(); got != 7 {
		t.Errorf("Uint32 = %d, want 7", got)
	}
	if got := r.Byte(); got != 0xab {
		t.Errorf("Byte = %#x, want 0xab", got)
	}
	if got := r.Bool(); !got {
		t.Error("Bool = false, want true")
	}
	if got := r.Bool(); got {
		t.Error("Bool = true, want false")
	}
	if got := r.Float64(); got != 3.5 {
		t.Errorf("Float64 = %v, want 3.5", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestRoundTripBytesAndStrings(t *testing.T) {
	w := NewWriter(0)
	w.BytesPrefixed([]byte("hello"))
	w.BytesPrefixed(nil)
	w.String("wörld")
	w.String("")
	w.Raw([]byte{1, 2, 3})

	r := NewReader(w.Bytes())
	if got := r.BytesPrefixed(); !bytes.Equal(got, []byte("hello")) {
		t.Errorf("BytesPrefixed = %q", got)
	}
	if got := r.BytesPrefixed(); len(got) != 0 {
		t.Errorf("empty BytesPrefixed = %q", got)
	}
	if got := r.String(); got != "wörld" {
		t.Errorf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	if got := r.Raw(3); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Raw = %v", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestTimeRoundTrip(t *testing.T) {
	times := []time.Time{
		{},
		time.Unix(0, 0),
		time.Unix(1234567890, 987654321),
		time.Date(2005, 4, 4, 12, 0, 0, 0, time.UTC),
	}
	w := NewWriter(0)
	for _, tm := range times {
		w.Time(tm)
	}
	r := NewReader(w.Bytes())
	for i, want := range times {
		got := r.Time()
		if want.IsZero() {
			if !got.IsZero() {
				t.Errorf("time %d: got %v, want zero", i, got)
			}
			continue
		}
		if !got.Equal(want) {
			t.Errorf("time %d: got %v, want %v", i, got, want)
		}
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestTruncatedInputs(t *testing.T) {
	w := NewWriter(0)
	w.String("hello world")
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		_ = r.String()
		if r.Err() == nil && cut < len(full) {
			t.Errorf("cut=%d: expected decode error", cut)
		}
	}
}

func TestLengthPrefixTooLarge(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(1 << 40) // claims a huge payload
	r := NewReader(w.Bytes())
	if got := r.BytesPrefixed(); got != nil {
		t.Errorf("BytesPrefixed = %v, want nil", got)
	}
	if r.Err() == nil {
		t.Error("expected error for oversized length prefix")
	}
}

func TestUvarint32RejectsWiderValues(t *testing.T) {
	for _, v := range []uint64{0, 300, math.MaxUint32, math.MaxUint32 + 1, 1 << 63} {
		w := NewWriter(0)
		w.Uvarint(v)
		r := NewReader(w.Bytes())
		got := r.Uvarint32()
		if fits := v <= math.MaxUint32; fits != (r.Err() == nil) || (fits && uint64(got) != v) {
			t.Errorf("Uvarint32 of %d = %d, err %v", v, got, r.Err())
		}
	}
}

func TestTrailingBytesDetected(t *testing.T) {
	w := NewWriter(0)
	w.Byte(1)
	w.Byte(2)
	r := NewReader(w.Bytes())
	r.Byte()
	if err := r.Finish(); err == nil {
		t.Error("Finish should fail with trailing bytes")
	}
}

func TestErrorsSticky(t *testing.T) {
	r := NewReader(nil)
	r.Uint64() // fails
	if r.Err() == nil {
		t.Fatal("expected error")
	}
	// Subsequent reads return zero values without panicking.
	if got := r.String(); got != "" {
		t.Errorf("String after error = %q", got)
	}
	if got := r.Uvarint(); got != 0 {
		t.Errorf("Uvarint after error = %d", got)
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(s string, b []byte, u uint64, i int64) bool {
		w := NewWriter(0)
		w.String(s)
		w.BytesPrefixed(b)
		w.Uvarint(u)
		w.Varint(i)
		r := NewReader(w.Bytes())
		gs := r.String()
		gb := r.BytesPrefixed()
		gu := r.Uvarint()
		gi := r.Varint()
		if r.Finish() != nil {
			return false
		}
		return gs == s && bytes.Equal(gb, b) && gu == u && gi == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeterministicEncoding(t *testing.T) {
	f := func(s string, u uint64) bool {
		w1 := NewWriter(0)
		w1.String(s)
		w1.Uvarint(u)
		w2 := NewWriter(0)
		w2.String(s)
		w2.Uvarint(u)
		return bytes.Equal(w1.Bytes(), w2.Bytes())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(0)
	w.String("abc")
	w.Reset()
	if w.Len() != 0 {
		t.Errorf("Len after Reset = %d", w.Len())
	}
	w.Byte(9)
	if w.Len() != 1 {
		t.Errorf("Len = %d, want 1", w.Len())
	}
}

func TestUvarintRejectsNonMinimalEncoding(t *testing.T) {
	// 0xc8 0x00 decodes to 72 under binary.Uvarint, but 72's canonical
	// encoding is the single byte 0x48. Accepting the padded form would
	// give one value two byte representations, so the reader must reject
	// it — the fuzz corpus holds a name certificate exploiting exactly
	// this.
	cases := [][]byte{
		{0xc8, 0x00},             // 72, padded to two bytes
		{0x80, 0x00},             // 0, padded to two bytes
		{0xff, 0x80, 0x00},       // three-byte padding
		{0x80, 0x80, 0x80, 0x00}, // deep padding
	}
	for _, in := range cases {
		r := NewReader(in)
		r.Uvarint()
		if !errors.Is(r.Err(), ErrNonCanonical) {
			t.Errorf("Uvarint(% x) err = %v, want ErrNonCanonical", in, r.Err())
		}
		r = NewReader(in)
		r.Varint()
		if !errors.Is(r.Err(), ErrNonCanonical) {
			t.Errorf("Varint(% x) err = %v, want ErrNonCanonical", in, r.Err())
		}
	}
	// Minimal multi-byte encodings still decode.
	r := NewReader([]byte{0xc8, 0x01}) // 200
	if got := r.Uvarint(); got != 200 || r.Err() != nil {
		t.Errorf("Uvarint(c8 01) = %d, %v; want 200, nil", got, r.Err())
	}
}

func TestBoolRejectsNonCanonicalByte(t *testing.T) {
	// Writer.Bool writes only 0 and 1; reading 0x02 as true would give
	// true two encodings (the merkle proof fuzzer found this).
	for _, b := range []byte{0x02, 0x30, 0xff} {
		r := NewReader([]byte{b})
		if got := r.Bool(); got || !errors.Is(r.Err(), ErrNonCanonical) {
			t.Errorf("Bool(%#x) = %v, err %v; want false, ErrNonCanonical", b, got, r.Err())
		}
	}
}
