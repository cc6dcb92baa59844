// Package globeid implements GlobeDoc object identifiers.
//
// Every GlobeDoc object is identified by a unique 160-bit object ID (OID)
// that contains no location information and is not human readable (paper
// §2). The security architecture makes OIDs self-certifying (§3.1.2): the
// OID is the SHA-1 hash of the object's public key, so a client holding an
// OID can verify, with no trusted third party, that a public key offered
// by an (untrusted) replica really belongs to the object.
//
// SHA-1 is retained deliberately for fidelity with the paper; the OID
// derivation is isolated here so the digest could be swapped in one place.
// It is also where the digest is computed: sha1.go runs the SHA-1 block
// function on the CPU's SHA extensions where it has them and on
// crypto/sha1 elsewhere, with byte-identical results.
package globeid

import (
	"crypto/sha1"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"

	"globedoc/internal/keys"
)

// Size is the OID length in bytes (160 bits).
const Size = sha1.Size

// OID is a 160-bit GlobeDoc object identifier.
type OID [Size]byte

// Zero is the all-zero OID; it identifies no object.
var Zero OID

// ErrKeyMismatch is returned by Verify when a public key does not hash to
// the OID.
var ErrKeyMismatch = errors.New("globeid: public key does not match self-certifying OID")

// FromPublicKey derives the self-certifying OID for pk: the SHA-1 hash of
// the key's canonical encoding.
func FromPublicKey(pk keys.PublicKey) OID {
	return OID(sum(pk.Marshal()))
}

// HashElement computes the SHA-1 hash of element content, as stored in
// integrity-certificate entries (paper §3.2.2, Fig. 2).
func HashElement(data []byte) [Size]byte {
	return sum(data)
}

// Verify checks that pk hashes to oid. A nil return means pk is the
// authentic public key of the object identified by oid; no certificate
// authority is involved.
func (oid OID) Verify(pk keys.PublicKey) error {
	derived := FromPublicKey(pk)
	if subtle.ConstantTimeCompare(oid[:], derived[:]) != 1 {
		return ErrKeyMismatch
	}
	return nil
}

// IsZero reports whether oid is the zero OID.
func (oid OID) IsZero() bool { return oid == Zero }

// String returns the OID as 40 lowercase hex digits.
func (oid OID) String() string { return hex.EncodeToString(oid[:]) }

// Short returns the first 8 hex digits, for logs. It encodes only the
// four bytes they show, so the string is its one allocation.
func (oid OID) Short() string {
	var digits [8]byte
	hex.Encode(digits[:], oid[:4])
	return string(digits[:])
}

// Parse converts a 40-hex-digit string into an OID.
func Parse(s string) (OID, error) {
	var oid OID
	if len(s) != 2*Size {
		return Zero, fmt.Errorf("globeid: OID must be %d hex digits, got %d", 2*Size, len(s))
	}
	raw, err := hex.DecodeString(s)
	if err != nil {
		return Zero, fmt.Errorf("globeid: %w", err)
	}
	copy(oid[:], raw)
	return oid, nil
}

// FromBytes converts a 20-byte slice into an OID.
func FromBytes(b []byte) (OID, error) {
	var oid OID
	if len(b) != Size {
		return Zero, fmt.Errorf("globeid: OID must be %d bytes, got %d", Size, len(b))
	}
	copy(oid[:], b)
	return oid, nil
}
