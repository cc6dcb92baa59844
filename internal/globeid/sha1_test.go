package globeid_test

import (
	"crypto/sha1"
	"fmt"
	"testing"

	"globedoc/internal/alloctest"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/keys/keytest"
)

// paths runs f once per way this machine can compute the digest: the SHA
// extensions kernel where the CPU has it, and always the crypto/sha1
// fallback, so both are held to crypto/sha1's bytes on one machine.
func paths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, kernel := range []bool{true, false} {
		name := "crypto-sha1"
		if kernel {
			name = "kernel"
		}
		t.Run(name, func(t *testing.T) {
			if kernel && !globeid.HasKernel {
				t.Skip("this CPU lacks the SHA extensions")
			}
			defer globeid.UseKernel(kernel)()
			f(t)
		})
	}
}

// pattern returns n deterministic, irregular bytes.
func pattern(n int) []byte {
	b := make([]byte, n)
	x := uint32(2463534242)
	for i := range b {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		b[i] = byte(x)
	}
	return b
}

// digests computes data's SHA-1 every way the package offers: one shot,
// and streamed in pieces cut at each of cuts.
func digests(data []byte, cuts ...int) map[string][globeid.Size]byte {
	got := map[string][globeid.Size]byte{"HashElement": globeid.HashElement(data)}
	for _, cut := range cuts {
		d := globeid.NewDigest()
		for rest := data; len(rest) > 0; {
			n := min(cut, len(rest))
			d.Write(rest[:n])
			rest = rest[n:]
		}
		got[fmt.Sprintf("Digest/%d-byte writes", cut)] = d.Sum()
	}
	return got
}

func checkDigests(t *testing.T, label string, data []byte, cuts ...int) {
	t.Helper()
	want := sha1.Sum(data)
	for how, got := range digests(data, cuts...) {
		if got != want {
			t.Fatalf("%s: %s = %x, crypto/sha1 = %x", label, how, got, want)
		}
	}
}

func TestSHA1MatchesCryptoSHA1(t *testing.T) {
	buf := pattern(1100 + 3)
	paths(t, func(t *testing.T) {
		for off := 0; off <= 3; off++ {
			for n := 0; n <= 1100; n++ {
				checkDigests(t, fmt.Sprintf("len %d at offset %d", n, off), buf[off:off+n])
			}
		}
	})
}

// TestSHA1PaddingEdges streams the lengths where the padding changes
// shape — the last one-block tail (55), the first that spills into a
// second padding block (56), and the block boundaries — in writes of
// every size that straddles them.
func TestSHA1PaddingEdges(t *testing.T) {
	buf := pattern(120)
	paths(t, func(t *testing.T) {
		for _, n := range []int{55, 56, 63, 64, 119, 120} {
			checkDigests(t, fmt.Sprintf("len %d", n), buf[:n], 1, 7, 55, 56, 63, 64, 65)
		}
	})
}

func TestSHA1MatchesCryptoSHA1OneMiB(t *testing.T) {
	data := pattern(1 << 20)
	paths(t, func(t *testing.T) {
		checkDigests(t, "1 MiB", data, 4096, 1000)
	})
}

func TestOIDMatchesCryptoSHA1(t *testing.T) {
	paths(t, func(t *testing.T) {
		for _, pk := range []keys.PublicKey{keytest.RSA().Public(), keytest.Ed().Public()} {
			if got, want := globeid.FromPublicKey(pk), sha1.Sum(pk.Marshal()); got != globeid.OID(want) {
				t.Fatalf("%s key: FromPublicKey = %x, crypto/sha1 = %x", pk.Algorithm(), got, want)
			}
		}
	})
}

// FuzzHashElement holds both digest paths to crypto/sha1 on fuzzed bytes,
// buffer offsets and streaming write sizes.
func FuzzHashElement(f *testing.F) {
	f.Add([]byte("abc"), uint8(0), uint8(1))
	f.Add(pattern(56), uint8(3), uint8(55))
	f.Add(pattern(300), uint8(1), uint8(64))
	f.Fuzz(func(t *testing.T, data []byte, off, cut uint8) {
		// An offset shifts the message against the allocation's alignment.
		buf := make([]byte, int(off%4)+len(data))
		msg := buf[off%4:]
		copy(msg, data)
		want := sha1.Sum(data)
		for _, kernel := range []bool{globeid.HasKernel, false} {
			restore := globeid.UseKernel(kernel)
			got := digests(msg, int(cut)+1)
			restore()
			for how, h := range got {
				if h != want {
					t.Fatalf("kernel=%v: %s(%x) = %x, crypto/sha1 = %x", kernel, how, data, h, want)
				}
			}
		}
	})
}

// TestHashElementAllocationBudget pins the digest at 0 heap objects per
// call: padding is done on the stack and the kernel allocates nothing.
func TestHashElementAllocationBudget(t *testing.T) {
	for _, n := range []int{0, 1 << 10, 1 << 20} {
		data := pattern(n)
		if got := alloctest.AllocsPerRun(t, 20, func() { _ = globeid.HashElement(data) }); got != 0 {
			t.Errorf("HashElement(%d bytes): %.1f allocations per call, budget 0", n, got)
		}
	}
	if !globeid.HasKernel {
		return // crypto/sha1's streaming hash is a heap object
	}
	parts := [][]byte{{0x00}, pattern(8), pattern(100)}
	if got := alloctest.AllocsPerRun(t, 20, func() {
		d := globeid.NewDigest()
		for _, p := range parts {
			d.Write(p)
		}
		_ = d.Sum()
	}); got != 0 {
		t.Errorf("Digest: %.1f allocations per digest, budget 0", got)
	}
}

var sink [globeid.Size]byte

// BenchmarkHashElement is the digest's layer number at the element sizes
// the benchmarks fetch; the crypto-sha1 rows are the fallback (and the
// code this kernel replaced) on the same machine.
func BenchmarkHashElement(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"1KiB", 1 << 10}, {"64KiB", 64 << 10}, {"1MiB", 1 << 20}} {
		data := pattern(size.n)
		for _, kernel := range []bool{true, false} {
			if kernel && !globeid.HasKernel {
				continue
			}
			name := size.name
			if !kernel {
				name += "/crypto-sha1"
			}
			b.Run(name, func(b *testing.B) {
				defer globeid.UseKernel(kernel)()
				b.SetBytes(int64(size.n))
				for i := 0; i < b.N; i++ {
					sink = globeid.HashElement(data)
				}
			})
		}
	}
}
