package server

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"globedoc/internal/cert"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
)

// DefaultVersionRetention is how many versions of a hosted replica a
// server keeps. Retained versions are what obj.getdelta can diff
// against; a client whose have-version has been evicted gets the full
// state.
const DefaultVersionRetention = 8

// versionSnapshot is one immutable version of a hosted replica. Every
// retained version keeps its certificate's signed version and entries —
// all a delta needs of a base. Only the
// head, the version being served, also holds the certificates, the hash
// of the certificate's encoding, the summed element size counted against
// Limits.MaxBytes and the wire payloads (the element bytes);
// appendVersion drops them with the version it supersedes.
type versionSnapshot struct {
	version uint64
	// entries are the certificate's entries, in name order: the
	// version's one index, which the head's wire names and payloads
	// follow index for index.
	entries []cert.ElementEntry

	// certHash is the hash of the served certificate encoding, what a
	// warm obj.bind names as the certificate it holds.
	certHash  [globeid.Size]byte
	cert      *cert.IntegrityCertificate
	nameCerts []*cert.NameCertificate
	size      int64
	wire      wirePayloads
}

// bundle returns the version as a transferable bundle. Its element Data
// aliases the wire payloads: marshal it, or copy before handing it out.
func (v *versionSnapshot) bundle(key keys.PublicKey) *Bundle {
	b := &Bundle{
		OID:       v.cert.ObjectID,
		Key:       key,
		Elements:  make([]document.Element, 0, len(v.wire.names)),
		Cert:      v.cert,
		NameCerts: v.nameCerts,
	}
	for i, name := range v.wire.names {
		b.Elements = append(b.Elements, v.wire.elements[i].element(name))
	}
	return b
}

// freshAt reports whether the version's certificate lists name with an
// entry fresh at t.
func (v *versionSnapshot) freshAt(name string, t time.Time) bool {
	entry, err := v.cert.Lookup(name)
	return err == nil && entry.CheckFreshness(t) == nil
}

// payload returns the wire payload of the element name in v, a head
// version, when v lists it under the certificate hash hash.
func (v *versionSnapshot) payload(name string, hash [globeid.Size]byte) (elementPayload, bool) {
	if v == nil {
		return elementPayload{}, false
	}
	i, ok := slices.BinarySearch(v.wire.names, name)
	if !ok || v.entries[i].Hash != hash {
		return elementPayload{}, false
	}
	return v.wire.elements[i], true
}

// holds reports whether v, a validated head version (nil holds
// nothing), has the element name under the certificate hash hash with
// exactly the bytes data — bytes already proved to hash to hash.
func (v *versionSnapshot) holds(name string, hash [globeid.Size]byte, data []byte) bool {
	p, ok := v.payload(name, hash)
	return ok && bytes.Equal(p.content(), data)
}

// newSnapshot builds the version for a validated bundle, sharing with
// prev (the version it supersedes, nil on install) the payloads of the
// elements that did not change.
func newSnapshot(b *Bundle, v *validated, prev *versionSnapshot) *versionSnapshot {
	return &versionSnapshot{
		version:   b.Cert.Version,
		entries:   b.Cert.Entries,
		certHash:  globeid.HashElement(v.icert),
		cert:      b.Cert,
		nameCerts: b.NameCerts,
		size:      v.size,
		wire:      buildWire(b, v, prev),
	}
}

// appendVersion produces the retained versions that serve a bundle,
// which validate proved to be v, after old (empty on install): the old
// head is trimmed to its version and entries, and the versions are cut to
// DefaultVersionRetention. A bundle whose certificate does not supersede
// the head's is refused, so an update never rewinds or forks the served
// state. The result is a new slice: one cut out of the old backing array
// would pin the evicted versions.
func appendVersion(old []*versionSnapshot, b *Bundle, v *validated) ([]*versionSnapshot, error) {
	if len(old) == 0 {
		return []*versionSnapshot{newSnapshot(b, v, nil)}, nil
	}
	head := old[len(old)-1]
	if !b.Cert.Supersedes(head.cert) {
		return nil, fmt.Errorf("server: version not increasing: %d after %d", b.Cert.Version, head.version)
	}
	kept := old[max(0, len(old)-(DefaultVersionRetention-1)):]
	next := append(make([]*versionSnapshot, 0, len(kept)+1), kept...)
	next[len(kept)-1] = &versionSnapshot{version: head.version, entries: head.entries}
	return append(next, newSnapshot(b, v, head)), nil
}
