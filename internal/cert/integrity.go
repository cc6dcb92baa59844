// Package cert implements the two certificate types of the GlobeDoc
// security architecture.
//
// An integrity certificate (paper §3.2.2, Fig. 2) is a table, signed with
// the object's private key, with one entry per page element: the element
// name, the SHA-1 hash of its content, and a validity interval. Every
// replica — trusted or not — must store the certificate alongside the
// elements; clients use it to check authenticity, freshness and
// consistency of anything they retrieve.
//
// A name certificate (§3.1.2) is issued by a certificate authority the
// user trusts and binds the object's self-certifying OID to the
// real-world entity behind the object ("Certified as: ...").
package cert

import (
	"bytes"
	"crypto/subtle"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"time"

	"globedoc/internal/enc"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
)

// Errors reported by certificate verification. The three security
// properties of paper §3.2.1 map onto the first three errors.
var (
	// ErrAuthenticity means the content or signature is not genuine:
	// the certificate signature does not verify under the object key,
	// or an element's hash does not match its certificate entry.
	ErrAuthenticity = errors.New("cert: authenticity check failed")
	// ErrFreshness means the content is genuine but its validity
	// interval has expired (or not yet begun).
	ErrFreshness = errors.New("cert: freshness check failed")
	// ErrConsistency means the replica returned a different (possibly
	// genuine and fresh) element than the one requested.
	ErrConsistency = errors.New("cert: consistency check failed")
	// ErrUnknownElement means the certificate has no entry for the
	// requested element name.
	ErrUnknownElement = errors.New("cert: element not listed in integrity certificate")
	// ErrBadEncoding is returned for malformed certificate bytes.
	ErrBadEncoding = errors.New("cert: malformed encoding")
)

// ElementEntry is one row of the integrity certificate's table: a page
// element name, the SHA-1 hash of the element content, and the interval
// during which the entry may be accepted as fresh.
type ElementEntry struct {
	Name      string
	Hash      [globeid.Size]byte
	NotBefore time.Time
	Expires   time.Time
}

// IntegrityCertificate is a signed table of element entries for one
// GlobeDoc object. Entries are kept sorted by name so that the canonical
// encoding — and therefore the signature — is deterministic.
type IntegrityCertificate struct {
	ObjectID globeid.OID
	Version  uint64 // higher on every issue; the one order of the object's states
	Issued   time.Time
	Entries  []ElementEntry
	Sig      []byte
}

// signedBytes returns the canonical encoding of everything covered by the
// signature (all fields except Sig itself).
func (c *IntegrityCertificate) signedBytes() []byte {
	w := enc.NewWriter(c.signedLen())
	c.writeSigned(w)
	return w.Bytes()
}

// writeSigned appends the signed body signedBytes returns to w.
func (c *IntegrityCertificate) writeSigned(w *enc.Writer) {
	w.Raw(c.ObjectID[:])
	w.Uvarint(c.Version)
	w.Time(c.Issued)
	w.Uvarint(uint64(len(c.Entries)))
	for _, e := range c.Entries {
		w.String(e.Name)
		w.Raw(e.Hash[:])
		w.Time(e.NotBefore)
		w.Time(e.Expires)
	}
}

// signedLen is the exact length of the signed body.
func (c *IntegrityCertificate) signedLen() int {
	n := globeid.Size + uvarintLen(c.Version) + timeLen + uvarintLen(uint64(len(c.Entries)))
	for _, e := range c.Entries {
		n += uvarintLen(uint64(len(e.Name))) + len(e.Name) + globeid.Size + 2*timeLen
	}
	return n
}

// timeLen is the length of an enc.Writer.Time field.
const timeLen = 8

// uvarintLen is the encoded length of v as a uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Encodes reports whether data is exactly c's canonical encoding, the
// bytes Marshal would return now. It compares field by field and encodes
// nothing.
func (c *IntegrityCertificate) Encodes(data []byte) bool { return c.signedPart(data) != nil }

// signedPart returns the signed body inside data if data is exactly c's
// canonical encoding — the bytes Marshal would write now — and nil
// otherwise. It compares field by field and encodes nothing.
func (c *IntegrityCertificate) signedPart(data []byte) []byte {
	outer := enc.NewReader(data)
	body := outer.BytesPrefixed()
	sig := outer.BytesPrefixed()
	if outer.Finish() != nil || !bytes.Equal(sig, c.Sig) {
		return nil
	}
	r := enc.NewReader(body)
	same := bytes.Equal(r.Raw(globeid.Size), c.ObjectID[:]) &&
		r.Uvarint() == c.Version &&
		r.Uint64() == timeBits(c.Issued) &&
		r.Uvarint() == uint64(len(c.Entries))
	for i := 0; same && i < len(c.Entries); i++ {
		e := &c.Entries[i]
		same = string(r.BytesPrefixed()) == e.Name &&
			bytes.Equal(r.Raw(globeid.Size), e.Hash[:]) &&
			r.Uint64() == timeBits(e.NotBefore) &&
			r.Uint64() == timeBits(e.Expires)
	}
	if !same || r.Finish() != nil {
		return nil
	}
	return body
}

// timeBits is the fixed eight bytes enc.Writer.Time writes for t.
func timeBits(t time.Time) uint64 {
	if t.IsZero() {
		return 1 << 63
	}
	return uint64(t.UnixNano())
}

// Sign canonicalizes the certificate (sorting entries by name), then signs
// it with the object's key pair. Duplicate element names are rejected.
func (c *IntegrityCertificate) Sign(owner *keys.KeyPair) error {
	sort.Slice(c.Entries, func(i, j int) bool { return c.Entries[i].Name < c.Entries[j].Name })
	for i := 1; i < len(c.Entries); i++ {
		if c.Entries[i].Name == c.Entries[i-1].Name {
			return fmt.Errorf("cert: duplicate element entry %q", c.Entries[i].Name)
		}
	}
	sig, err := owner.Sign(c.signedBytes())
	if err != nil {
		return fmt.Errorf("cert: sign integrity certificate: %w", err)
	}
	c.Sig = sig
	return nil
}

// VerifySignature checks that the certificate was signed by the holder of
// objectKey's private half and that it names the expected object. It does
// not check freshness of any entry; that is per-element (see VerifyElement).
// It encodes the certificate to check it; a caller holding the encoding
// checks that instead (VerifyEncoding).
func (c *IntegrityCertificate) VerifySignature(oid globeid.OID, objectKey keys.PublicKey) error {
	return c.VerifyEncoding(c.Marshal(), oid, objectKey, nil)
}

// VerifyEncoding is VerifySignature over data, an encoding of c the
// caller already holds — the bytes c was decoded from, or the ones it is
// about to serve — so the check encodes nothing and what was checked is
// what gets served. data must be exactly c's canonical encoding, field
// for field, or the check fails with ErrAuthenticity: the fields a caller
// goes on to read are then the ones the signature covers.
//
// The raw signature check is delegated to verify, which receives the
// object key, the signed bytes and the signature, so a caller can route
// it through a memoizing verifier (internal/vcache) without this package
// depending on it; any verify error is classified as ErrAuthenticity. A
// nil verify checks with objectKey.Verify.
func (c *IntegrityCertificate) VerifyEncoding(data []byte, oid globeid.OID, objectKey keys.PublicKey, verify func(keys.PublicKey, []byte, []byte) error) error {
	if c.ObjectID != oid {
		return fmt.Errorf("%w: certificate is for object %s, not %s",
			ErrConsistency, c.ObjectID.Short(), oid.Short())
	}
	body := c.signedPart(data)
	if body == nil {
		return fmt.Errorf("%w: integrity certificate does not match its encoding", ErrAuthenticity)
	}
	if verify == nil {
		verify = keys.PublicKey.Verify
	}
	if err := verify(objectKey, body, c.Sig); err != nil {
		return fmt.Errorf("%w: integrity certificate signature invalid", ErrAuthenticity)
	}
	return nil
}

// Supersedes reports whether c replaces held as the object's current
// signed state: a higher Version. The owner signs a higher Version on
// every issue, a refresh that changes no element included, so the signed
// number alone orders states. A replica that offers a certificate held
// supersedes is offering a rollback to state its owner has already
// replaced.
func (c *IntegrityCertificate) Supersedes(held *IntegrityCertificate) bool {
	return c.Version > held.Version
}

// MaxExpiry returns the latest entry expiry in the certificate — the end
// of the validity window after which no entry can pass CheckFreshness,
// and therefore the natural bound on how long a memoized verdict about
// this certificate is worth keeping. Zero if the table is empty.
func (c *IntegrityCertificate) MaxExpiry() time.Time {
	var max time.Time
	for _, e := range c.Entries {
		if e.Expires.After(max) {
			max = e.Expires
		}
	}
	return max
}

// Lookup returns the entry for the named element.
func (c *IntegrityCertificate) Lookup(name string) (ElementEntry, error) {
	i := sort.Search(len(c.Entries), func(i int) bool { return c.Entries[i].Name >= name })
	if i < len(c.Entries) && c.Entries[i].Name == name {
		return c.Entries[i], nil
	}
	return ElementEntry{}, fmt.Errorf("%w: %q", ErrUnknownElement, name)
}

// VerifyElement performs the paper's three client-side checks (§3.2.2) on
// content returned by a replica for the element named requested:
//
//  1. consistency — the certificate entry consulted is the entry for the
//     element the client asked for;
//  2. authenticity — SHA-1(content) equals the hash in that entry;
//  3. freshness — now falls inside the entry's validity interval.
//
// The certificate's own signature must have been verified beforehand with
// VerifySignature. The three checks are also exported individually
// (CheckConsistency / CheckAuthenticity / CheckFreshness) so the secure
// pipeline can time each as its own tracing span; this method is their
// composition and the single source of truth for their order.
func (c *IntegrityCertificate) VerifyElement(requested string, content []byte, now time.Time) error {
	entry, err := c.CheckConsistency(requested)
	if err != nil {
		return err
	}
	if err := entry.CheckAuthenticity(content); err != nil {
		return err
	}
	return entry.CheckFreshness(now)
}

// CheckConsistency performs the consistency half of VerifyElement: it
// returns the certificate entry for the requested element, failing if the
// certificate has no such entry or the entry names a different element.
func (c *IntegrityCertificate) CheckConsistency(requested string) (ElementEntry, error) {
	entry, err := c.Lookup(requested)
	if err != nil {
		return ElementEntry{}, err
	}
	// Lookup already keyed on the requested name; entry.Name is re-checked
	// defensively in case the certificate was mutated.
	if entry.Name != requested {
		return ElementEntry{}, fmt.Errorf("%w: certificate entry %q does not match request %q",
			ErrConsistency, entry.Name, requested)
	}
	return entry, nil
}

// CheckAuthenticity verifies that SHA-1(content) equals the hash signed
// into this entry.
func (e ElementEntry) CheckAuthenticity(content []byte) error {
	h := globeid.HashElement(content)
	if subtle.ConstantTimeCompare(h[:], e.Hash[:]) != 1 {
		return fmt.Errorf("%w: element %q content hash mismatch", ErrAuthenticity, e.Name)
	}
	return nil
}

// CheckFreshness verifies that now falls inside this entry's validity
// interval.
func (e ElementEntry) CheckFreshness(now time.Time) error {
	if !e.NotBefore.IsZero() && now.Before(e.NotBefore) {
		return fmt.Errorf("%w: element %q not valid before %s", ErrFreshness, e.Name, e.NotBefore)
	}
	if now.After(e.Expires) {
		return fmt.Errorf("%w: element %q expired at %s", ErrFreshness, e.Name, e.Expires)
	}
	return nil
}

// Marshal returns the canonical binary encoding of the certificate,
// including its signature: the signed body and the signature, each
// length-prefixed, written into one buffer of the exact size.
func (c *IntegrityCertificate) Marshal() []byte {
	body := c.signedLen()
	w := enc.NewWriter(uvarintLen(uint64(body)) + body + uvarintLen(uint64(len(c.Sig))) + len(c.Sig))
	w.Uvarint(uint64(body))
	c.writeSigned(w)
	w.BytesPrefixed(c.Sig)
	return w.Bytes()
}

// UnmarshalIntegrityCertificate parses an encoding from Marshal. The
// entries' names are decoded into one string, each name a substring of
// it, sized by a pass over the table first: a certificate costs the same
// few allocations however many entries it lists.
func UnmarshalIntegrityCertificate(data []byte) (*IntegrityCertificate, error) {
	outer := enc.NewReader(data)
	body := outer.BytesPrefixed()
	sig := outer.BytesPrefixed()
	if err := outer.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	r := enc.NewReader(body)
	var c IntegrityCertificate
	copy(c.ObjectID[:], r.Raw(globeid.Size))
	c.Version = r.Uvarint()
	c.Issued = r.Time()
	n := r.Uvarint()
	if n > 1<<20 {
		return nil, fmt.Errorf("%w: implausible entry count %d", ErrBadEncoding, n)
	}
	// The sizing pass reads a copy of r through the table, which is also
	// where a malformed one fails, before anything is allocated for it.
	size, sizing := 0, *r
	for i := uint64(0); i < n && sizing.Err() == nil; i++ {
		size += len(sizing.BytesPrefixed())
		sizing.Raw(globeid.Size + 2*timeLen)
	}
	if err := sizing.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	// The names go into one buffer grown to their exact size, so it is
	// allocated once, and each name is names.String() cut to what was
	// just written: no copy, as bytes once written are never rewritten.
	var names strings.Builder
	names.Grow(size)
	c.Entries = make([]ElementEntry, n)
	for i := range c.Entries {
		e := &c.Entries[i]
		start := names.Len()
		names.Write(r.BytesPrefixed())
		e.Name = names.String()[start:]
		copy(e.Hash[:], r.Raw(globeid.Size))
		e.NotBefore = r.Time()
		e.Expires = r.Time()
	}
	c.Sig = append([]byte(nil), sig...)
	return &c, nil
}
