package globeid

import (
	"crypto/sha1"
	"encoding/binary"
	"hash"
)

// This file computes the one SHA-1 behind every OID, integrity-certificate
// entry and Merkle node (DESIGN.md §12.1). On an amd64 CPU with the SHA
// extensions the block function is the blockSHANI kernel; elsewhere, and
// when the CPU lacks them, crypto/sha1 computes the same bytes. The choice
// is made once, from CPUID, as the standard library makes its own.

const blockSize = 64

// useSHANI selects the kernel. Tests turn it off to run the crypto/sha1
// path on a machine that has the extensions.
var useSHANI = hasSHANI()

// iv is SHA-1's initial state (FIPS 180-4 §5.3.1).
var iv = [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}

// sum returns SHA-1(data).
func sum(data []byte) [Size]byte {
	if !useSHANI {
		return sha1.Sum(data)
	}
	d := Digest{h: iv}
	d.Write(data)
	return d.Sum()
}

// final pads the message's last partial block (shorter than 64 bytes) on
// a stack buffer, folds it into h and returns the big-endian digest.
func final(h *[5]uint32, tail []byte, total uint64) [Size]byte {
	var pad [2 * blockSize]byte
	n := copy(pad[:], tail)
	pad[n] = 0x80
	end := blockSize
	if n >= blockSize-8 {
		end = 2 * blockSize
	}
	binary.BigEndian.PutUint64(pad[end-8:end], total<<3)
	blockSHANI(h, pad[:end])
	var out [Size]byte
	for i, v := range h {
		binary.BigEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// Digest is the streaming form of the same SHA-1, for a digest over
// several pieces written in turn (the Merkle tree's domain-separated
// nodes). Where the kernel runs it allocates nothing. Use NewDigest; the
// zero Digest is not ready.
type Digest struct {
	h   [5]uint32
	buf [blockSize]byte
	n   int        // bytes of buf not yet folded into h
	len uint64     // bytes written
	std *stdDigest // where the kernel does not run
}

// stdDigest is crypto/sha1's streaming hash and a buffer p is copied
// through on its way in, so a Write never lets the caller's bytes escape
// into the interface call and a stack buffer stays on the stack.
type stdDigest struct {
	h   hash.Hash
	buf [blockSize]byte
}

// NewDigest returns a Digest over the empty message.
func NewDigest() Digest {
	if !useSHANI {
		return Digest{std: &stdDigest{h: sha1.New()}}
	}
	return Digest{h: iv}
}

// Write appends p to the message.
func (d *Digest) Write(p []byte) {
	if d.std != nil {
		for len(p) > 0 {
			n := copy(d.std.buf[:], p)
			_, _ = d.std.h.Write(d.std.buf[:n])
			p = p[n:]
		}
		return
	}
	d.len += uint64(len(p))
	if d.n > 0 {
		k := copy(d.buf[d.n:], p)
		d.n += k
		p = p[k:]
		if d.n < blockSize {
			return
		}
		blockSHANI(&d.h, d.buf[:])
		d.n = 0
	}
	full := len(p) &^ (blockSize - 1)
	blockSHANI(&d.h, p[:full])
	d.n = copy(d.buf[:], p[full:])
}

// Sum returns the SHA-1 of everything written so far; d may be written
// to again afterwards.
func (d *Digest) Sum() [Size]byte {
	if d.std != nil {
		return [Size]byte(d.std.h.Sum(nil))
	}
	h := d.h
	return final(&h, d.buf[:d.n], d.len)
}
