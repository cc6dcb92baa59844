// Package server implements the Globe object server (paper §2.1.3, §4):
// the process that provides address space, contact points and runtime
// services to the replica local representatives it hosts.
//
// Every hosted replica is the full state a GlobeDoc replica must store
// (§3.2.2): all page elements, the object's public key, the integrity
// certificate, and any CA-issued name certificates. The server answers
// the anonymous read protocol of internal/object and an authenticated
// administrative protocol for replica lifecycle management.
//
// That state has one wire encoding, the obj.bind reply's (DESIGN.md §12,
// "Replica state layout"): an admin Bundle is its OID followed by it, and
// an obj.getdelta reply its version and status bytes followed by it, so
// both decode through object.DecodeBindReply.
//
// Access control follows §4: the administrator configures a keystore of
// public keys for the entities allowed to create replicas here — object
// owners and peer object servers (the latter enabling dynamic
// replication) — and each entity may manage only the replicas it created.
// The paper's prototype authenticated administrators over TLS; this
// implementation uses an equivalent challenge–response signature scheme
// over the same wire protocol, keeping the whole stack on one transport.
package server

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"globedoc/internal/cert"
	"globedoc/internal/document"
	"globedoc/internal/enc"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/merkle"
	"globedoc/internal/object"
)

// Bundle is the complete transferable state of one GlobeDoc replica:
// everything an object server needs to host it. Its version is its
// certificate's signed Version.
type Bundle struct {
	OID       globeid.OID
	Key       keys.PublicKey
	Elements  []document.Element
	Cert      *cert.IntegrityCertificate
	NameCerts []*cert.NameCertificate

	// certWire is the encoding Cert arrived as, when it arrived encoded
	// (UnmarshalBundle, a pulled delta reply), in a buffer that holds
	// nothing else. While it still encodes Cert, Validate verifies the
	// signature over it and the version built from the bundle serves it,
	// so the certificate is not encoded again.
	certWire []byte
}

// Validate performs the server's self-protection checks before hosting:
// the public key must hash to the OID, the integrity certificate must be
// signed by that key and name this object, every element must match its
// certificate entry, and every entry must have its element. A server
// that skips these checks would waste storage on garbage it can never
// serve convincingly.
func (b *Bundle) Validate() error {
	_, err := b.validate(nil)
	return err
}

// validated is what validate proved of a bundle, in the form the
// version built from it keeps.
type validated struct {
	// icert is the certificate's canonical encoding, the bytes its
	// signature was verified over and the ones the version serves.
	icert []byte
	// elems are the bundle's elements in name order, each name once, and
	// leaves their names with their certificate hashes, index for index.
	elems  []document.Element
	leaves []merkle.Leaf
	size   int64 // summed element bytes
	hashed int   // elements whose bytes were hashed; the rest were held's
}

// validate is Validate for a bundle that is to supersede held, the
// version its replica serves (nil when there is none). An element whose
// certificate hash is held's entry for it and whose bytes are held's
// bytes is not hashed again: held's bytes were hashed to that very entry
// when held was validated, and validated state stays validated even if
// held has been superseded since. Every other element is hashed. On a
// pulled delta the unchanged elements are held's own slices, so the
// comparison is a pointer check; on an owner's update it is a memcmp.
func (b *Bundle) validate(held *versionSnapshot) (*validated, error) {
	if err := b.OID.Verify(b.Key); err != nil {
		return nil, fmt.Errorf("server: bundle key: %w", err)
	}
	if b.Cert == nil {
		return nil, fmt.Errorf("server: bundle for %s has no integrity certificate", b.OID.Short())
	}
	icert := b.certWire
	if icert == nil || !b.Cert.Encodes(icert) {
		icert = b.Cert.Marshal()
	}
	if err := b.Cert.VerifyEncoding(icert, b.OID, b.Key, nil); err != nil {
		return nil, fmt.Errorf("server: bundle certificate: %w", err)
	}
	v := &validated{icert: icert, elems: byName(b.Elements)}
	v.leaves = make([]merkle.Leaf, len(v.elems))
	for i, e := range v.elems {
		if i > 0 && v.elems[i-1].Name == e.Name {
			return nil, fmt.Errorf("server: bundle lists element %q twice", e.Name)
		}
		entry, err := b.Cert.Lookup(e.Name)
		if err != nil {
			return nil, fmt.Errorf("server: bundle element %q not in certificate", e.Name)
		}
		v.leaves[i] = merkle.Leaf{Name: e.Name, Hash: entry.Hash}
		v.size += int64(len(e.Data))
		if held.holds(e.Name, entry.Hash, e.Data) {
			continue
		}
		v.hashed++
		if entry.Hash != e.Hash() {
			return nil, fmt.Errorf("server: bundle element %q does not match certificate hash", e.Name)
		}
	}
	// Every element is listed once, so a shorter list than the
	// certificate's lacks a listed element: a replica is the full state.
	if len(v.elems) != len(b.Cert.Entries) {
		return nil, fmt.Errorf("server: bundle lacks %d of the %d elements its certificate lists", len(b.Cert.Entries)-len(v.elems), len(b.Cert.Entries))
	}
	return v, nil
}

// byName returns elems in name order, sorting a copy only when they are
// not in order already, and everything an owner or an honest primary
// builds is.
func byName(elems []document.Element) []document.Element {
	order := func(a, b document.Element) int { return strings.Compare(a.Name, b.Name) }
	if slices.IsSortedFunc(elems, order) {
		return elems
	}
	sorted := slices.Clone(elems)
	slices.SortStableFunc(sorted, order)
	return sorted
}

// TotalBytes returns the summed element content size, the quantity
// counted against the server's storage limit.
func (b *Bundle) TotalBytes() int {
	total := 0
	for _, e := range b.Elements {
		total += len(e.Data)
	}
	return total
}

// Marshal encodes the bundle for the wire: its OID, then its state in
// the replica state layout (DESIGN.md §12) with every element carried.
func (b *Bundle) Marshal() []byte {
	items := make([]object.BatchWireItem, len(b.Elements))
	for i, e := range b.Elements {
		items[i] = object.BatchWireItem{Name: e.Name, Wire: object.EncodeElement(e)}
	}
	return append(b.OID[:], object.EncodeBindReply(b.Key.Marshal(), object.EncodeCertList(b.NameCerts), b.Cert.Marshal(), items)...)
}

// UnmarshalBundle decodes an encoding from Marshal. The elements' Data
// aliases data, as a decoded element's does (object.DecodeElement); the
// bundle keeps a copy of its certificate's encoding, which Validate
// verifies and the replica then serves.
func UnmarshalBundle(data []byte) (*Bundle, error) {
	var b Bundle
	r := enc.NewReader(data)
	copy(b.OID[:], r.Raw(globeid.Size))
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("server: bundle decode: %w", err)
	}
	items, err := b.unmarshalState("bundle", data[globeid.Size:], false)
	if err != nil {
		return nil, err
	}
	b.Elements = make([]document.Element, len(items))
	for i, it := range items {
		b.Elements[i] = it.Element
	}
	return &b, nil
}

// unmarshalState decodes the replica state layout (DESIGN.md §12) — an
// obj.bind reply's encoding — into b's key, certificate (with a copy of
// its encoding) and name certificates, and returns its items. Every item
// must carry its element under the item's name or, where held is
// allowed, be held; a declined item is refused. what names the encoding
// in errors.
func (b *Bundle) unmarshalState(what string, data []byte, held bool) ([]object.BatchItem, error) {
	state, err := object.DecodeBindReply(data)
	if err != nil {
		return nil, fmt.Errorf("server: %s decode: %w", what, err)
	}
	for _, it := range state.Items {
		switch {
		case it.Err != nil:
			return nil, fmt.Errorf("server: %s declines %q", what, it.Name)
		case it.Held && !held:
			return nil, fmt.Errorf("server: %s holds %q where it must carry it", what, it.Name)
		case !it.Held && it.Element.Name != it.Name:
			return nil, fmt.Errorf("server: %s item %q carries element %q", what, it.Name, it.Element.Name)
		}
	}
	if b.Key, err = keys.UnmarshalPublicKey(state.Key); err != nil {
		return nil, fmt.Errorf("server: %s key decode: %w", what, err)
	}
	if b.Cert, err = cert.UnmarshalIntegrityCertificate(state.Cert); err != nil {
		return nil, fmt.Errorf("server: %s cert decode: %w", what, err)
	}
	b.certWire = bytes.Clone(state.Cert)
	if b.NameCerts, err = object.DecodeCertList(state.NameCerts); err != nil {
		return nil, fmt.Errorf("server: %s name cert decode: %w", what, err)
	}
	return state.Items, nil
}

// BundleFromDocument snapshots a live document into a bundle. The
// elements' Data is the document's own bytes (see Document.Snapshot),
// shared and not copied: the bundle is read-only, which Update and
// Marshal, its consumers, respect — Update copies a changed element into
// its wire entry once and shares the unchanged ones.
func BundleFromDocument(oid globeid.OID, key keys.PublicKey, doc *document.Document, c *cert.IntegrityCertificate, nameCerts []*cert.NameCertificate) *Bundle {
	return &Bundle{
		OID:       oid,
		Key:       key,
		Elements:  doc.Snapshot(),
		Cert:      c,
		NameCerts: nameCerts,
	}
}
