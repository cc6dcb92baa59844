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
	"crypto/subtle"
	"errors"
	"fmt"
	"sort"
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
	w := enc.NewWriter(64 + len(c.Entries)*64)
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
	return w.Bytes()
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
func (c *IntegrityCertificate) VerifySignature(oid globeid.OID, objectKey keys.PublicKey) error {
	if c.ObjectID != oid {
		return fmt.Errorf("%w: certificate is for object %s, not %s",
			ErrConsistency, c.ObjectID.Short(), oid.Short())
	}
	if err := objectKey.Verify(c.signedBytes(), c.Sig); err != nil {
		return fmt.Errorf("%w: integrity certificate signature invalid", ErrAuthenticity)
	}
	return nil
}

// VerifySignatureUsing is VerifySignature with the raw signature check
// delegated to verify, which receives the object key, the certificate's
// canonical signed bytes and the signature. It exists so a caller can
// route the check through a memoizing verifier (internal/vcache) without
// this package depending on it; any verify error is classified as
// ErrAuthenticity exactly as in VerifySignature.
func (c *IntegrityCertificate) VerifySignatureUsing(oid globeid.OID, objectKey keys.PublicKey, verify func(keys.PublicKey, []byte, []byte) error) error {
	if c.ObjectID != oid {
		return fmt.Errorf("%w: certificate is for object %s, not %s",
			ErrConsistency, c.ObjectID.Short(), oid.Short())
	}
	if err := verify(objectKey, c.signedBytes(), c.Sig); err != nil {
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
// including its signature.
func (c *IntegrityCertificate) Marshal() []byte {
	w := enc.NewWriter(128 + len(c.Entries)*64)
	w.BytesPrefixed(c.signedBytes())
	w.BytesPrefixed(c.Sig)
	return w.Bytes()
}

// UnmarshalIntegrityCertificate parses an encoding from Marshal.
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
	c.Entries = make([]ElementEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		var e ElementEntry
		e.Name = r.String()
		copy(e.Hash[:], r.Raw(globeid.Size))
		e.NotBefore = r.Time()
		e.Expires = r.Time()
		c.Entries = append(c.Entries, e)
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	c.Sig = append([]byte(nil), sig...)
	return &c, nil
}
