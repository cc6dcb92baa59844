package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"globedoc/internal/cert"
	"globedoc/internal/document"
	"globedoc/internal/enc"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/merkle"
)

// DefaultVersionRetention is how many versions of a hosted replica a
// server keeps. Retained versions are what obj.getdelta can diff
// against; a client whose have-version has been evicted gets the full
// state.
const DefaultVersionRetention = 8

// VersionHeader commits one replica version to the hash chain
// (DESIGN.md §16). Version is a copy of the version certificate's signed
// Version, written only from the certificate and checked against it by a
// delta client. CertHash and ElemRoot commit to the version's *content*
// (the integrity certificate and the element-hash set it lists); Prev
// commits to the entire history by naming the previous header's hash.
// Two servers that applied the same bundle always agree on
// CertHash/ElemRoot even when their local histories differ, which is what
// lets a delta client match a remote chain against its own state.
type VersionHeader struct {
	OID     globeid.OID
	Version uint64
	// CertHash is the hash of the version's marshalled integrity
	// certificate.
	CertHash [globeid.Size]byte
	// ElemRoot is merkle.RootOfSorted over the version's present
	// elements' cert-listed content hashes.
	ElemRoot [globeid.Size]byte
	// Prev is the previous header's Hash (zero for a chain genesis).
	Prev [globeid.Size]byte
}

// maxHeaderLen bounds a VersionHeader's encoding: four hashes and the
// version's varint.
const maxHeaderLen = 4*globeid.Size + binary.MaxVarintLen64

// Marshal encodes the header canonically.
func (h *VersionHeader) Marshal() []byte {
	w := enc.NewWriter(maxHeaderLen)
	w.Raw(h.OID[:])
	w.Uvarint(h.Version)
	w.Raw(h.CertHash[:])
	w.Raw(h.ElemRoot[:])
	w.Raw(h.Prev[:])
	return w.Bytes()
}

// UnmarshalVersionHeader decodes an encoding from Marshal.
func UnmarshalVersionHeader(data []byte) (*VersionHeader, error) {
	r := enc.NewReader(data)
	var h VersionHeader
	copy(h.OID[:], r.Raw(globeid.Size))
	h.Version = r.Uvarint()
	copy(h.CertHash[:], r.Raw(globeid.Size))
	copy(h.ElemRoot[:], r.Raw(globeid.Size))
	copy(h.Prev[:], r.Raw(globeid.Size))
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("server: version header decode: %w", err)
	}
	return &h, nil
}

// Hash returns the header's chain hash: the content hash of its
// canonical encoding.
func (h *VersionHeader) Hash() [globeid.Size]byte {
	return globeid.HashElement(h.Marshal())
}

// versionSnapshot is one immutable version of a hosted replica. Every
// retained version keeps its chain header and the leaf set the header's
// ElemRoot commits to — all a delta needs of a base. Only the head, the
// version being served, also holds the certificates, the summed element
// size counted against Limits.MaxBytes and the wire payloads (the element
// bytes); appendVersion drops them with the version it supersedes.
type versionSnapshot struct {
	header *VersionHeader
	// leaves are the present elements' names and certificate hashes in
	// name order, the certificate's own: the version's one index, which
	// the head's wire names and payloads follow index for index.
	leaves []merkle.Leaf

	cert      *cert.IntegrityCertificate
	nameCerts []*cert.NameCertificate
	size      int64
	wire      wirePayloads
}

// bundle returns the version as a transferable bundle. Its element Data
// aliases the wire payloads: marshal it, or copy before handing it out.
func (v *versionSnapshot) bundle(key keys.PublicKey) *Bundle {
	b := &Bundle{
		OID:       v.header.OID,
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
	if !ok || v.leaves[i].Hash != hash {
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

// newSnapshot builds the version for a validated bundle as a chain
// genesis at its certificate's version, sharing with prev (the version it
// supersedes, nil on install) the payloads of the elements that did not
// change.
func newSnapshot(b *Bundle, v *validated, prev *versionSnapshot) *versionSnapshot {
	return &versionSnapshot{
		header: &VersionHeader{
			OID:      b.OID,
			Version:  b.Cert.Version,
			CertHash: globeid.HashElement(v.icert),
			ElemRoot: merkle.RootOfSorted(v.leaves),
		},
		leaves:    v.leaves,
		cert:      b.Cert,
		nameCerts: b.NameCerts,
		size:      v.size,
		wire:      buildWire(b, v, prev),
	}
}

// verifyChain walks a replica's retained chain and checks the hash-chain
// invariants: one OID throughout, strictly increasing versions, and
// every header's Prev equal to its predecessor's hash. The oldest
// retained header may point at an evicted predecessor (or be a genesis);
// only the links between retained headers are checkable. Install and
// update run this before committing, so a broken chain can never become
// the served state.
func verifyChain(chain []*versionSnapshot) error {
	if len(chain) == 0 {
		return fmt.Errorf("server: empty version chain")
	}
	for i, snap := range chain {
		if snap.header.OID != chain[0].header.OID {
			return fmt.Errorf("server: version chain mixes OIDs at index %d", i)
		}
		if i == 0 {
			continue
		}
		prev := chain[i-1].header
		if snap.header.Version <= prev.Version {
			return fmt.Errorf("server: version chain not increasing: %d after %d", snap.header.Version, prev.Version)
		}
		if snap.header.Prev != prev.Hash() {
			return fmt.Errorf("server: version chain broken between %d and %d", prev.Version, snap.header.Version)
		}
	}
	return nil
}

// appendVersion produces the retained chain that serves a bundle, which
// validate proved to be v, after chain (empty on install): the new head
// links to the old one, which is trimmed, and the chain is cut to
// DefaultVersionRetention.
// verifyChain refuses a bundle whose certificate version does not advance
// past the head's, so an update never rewinds or forks the served state.
// The result is a new slice: one cut out of the old backing array would
// pin the evicted versions.
func appendVersion(chain []*versionSnapshot, b *Bundle, v *validated) ([]*versionSnapshot, error) {
	if len(chain) == 0 {
		return []*versionSnapshot{newSnapshot(b, v, nil)}, nil
	}
	head := chain[len(chain)-1]
	snap := newSnapshot(b, v, head)
	snap.header.Prev = head.header.Hash()
	kept := chain[max(0, len(chain)-(DefaultVersionRetention-1)):]
	next := append(make([]*versionSnapshot, 0, len(kept)+1), kept...)
	next[len(kept)-1] = &versionSnapshot{header: head.header, leaves: head.leaves}
	next = append(next, snap)
	if err := verifyChain(next); err != nil {
		return nil, err
	}
	return next, nil
}

// VersionChain returns copies of the retained version headers for a
// hosted replica, oldest first. The head entry describes the currently
// served state.
func (s *Server) VersionChain(oid globeid.OID) ([]VersionHeader, error) {
	h, err := s.replica(oid)
	if err != nil {
		return nil, err
	}
	chain := h.versions()
	out := make([]VersionHeader, len(chain))
	for i, snap := range chain {
		out[i] = *snap.header
	}
	return out, nil
}
