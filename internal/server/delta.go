package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"

	"globedoc/internal/cert"
	"globedoc/internal/document"
	"globedoc/internal/enc"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/merkle"
	"globedoc/internal/object"
)

// OpGetDelta is the one consistency transfer (DESIGN.md §16): the
// request carries (OID, have-version), and the reply is one of three.
// "Current" carries only the primary's version, when have is its head or
// later. A delta carries the new version's key and certificate tables
// and — per element, tagged with a status byte — either nothing
// (cert-listed hash unchanged since have) or the new element bytes. When
// have is not among the primary's retained versions (0 included) the
// reply is the full state: the same tables and every element. The reply
// is UNTRUSTED input: the puller composes a candidate bundle from it and
// installs it only through Update's validation, which requires every
// element the certificate lists, and only if its certificate supersedes
// the one held, so a lying primary can at worst deny service, never
// install a byte that does not verify, a partial replica or a rollback.
const OpGetDelta = "obj.getdelta"

// deltaWireVersion versions both the request and reply encodings, so the
// format can evolve the way the transport's frame version does.
const deltaWireVersion = 4

// Reply status bytes.
const (
	deltaStatusDelta   byte = 1
	deltaStatusCurrent byte = 2
	deltaStatusFull    byte = 3
)

// Per-item status bytes.
const (
	deltaItemUnchanged byte = 0
	deltaItemChanged   byte = 1
)

// maxDeltaItems bounds the decoder's item count, as UnmarshalBundle's.
const maxDeltaItems = 1 << 16

// DeltaItem is one element's entry in a delta reply. Unchanged items
// carry only the name: the client already holds bytes with the
// cert-listed hash. Changed items carry the new element.
type DeltaItem struct {
	Name    string
	Changed bool
	Element document.Element // set only when Changed
}

// DeltaReply is the decoded obj.getdelta reply.
type DeltaReply struct {
	// Current reports that the have-version is the primary's head or
	// later. Only NewVersion is populated.
	Current bool
	// FullRequired reports that have was not retained, so the full state
	// follows: every item is Changed.
	FullRequired bool
	// NewVersion is the primary's current version, carried only by a
	// current reply. A delta or full reply's version is its certificate's.
	NewVersion uint64
	Key        keys.PublicKey
	Cert       *cert.IntegrityCertificate
	NameCerts  []*cert.NameCertificate
	// Items lists every element of the new version, sorted by name.
	Items []DeltaItem

	// tables, when set, holds Key, Cert and NameCerts already encoded —
	// the head's wire payloads (see deltaSince) — and Marshal writes
	// those bytes instead of encoding the three again.
	tables *wirePayloads
	// certWire, set by UnmarshalDeltaReply, is the encoding Cert arrived
	// as, copied out of the reply: what the puller compares with the
	// encoding it serves, and what the replica verifies and then serves.
	certWire []byte
}

// EncodeDeltaRequest encodes an obj.getdelta request.
func EncodeDeltaRequest(oid globeid.OID, have uint64) []byte {
	w := enc.NewWriter(globeid.Size + 16)
	w.Byte(deltaWireVersion)
	w.Raw(oid[:])
	w.Uvarint(have)
	return w.Bytes()
}

// DecodeDeltaRequest decodes an encoding from EncodeDeltaRequest.
func DecodeDeltaRequest(body []byte) (globeid.OID, uint64, error) {
	r := enc.NewReader(body)
	var oid globeid.OID
	if v := r.Byte(); r.Err() == nil && v != deltaWireVersion {
		return oid, 0, fmt.Errorf("server: unsupported delta request version %d", v)
	}
	copy(oid[:], r.Raw(globeid.Size))
	have := r.Uvarint()
	if err := r.Finish(); err != nil {
		return oid, 0, fmt.Errorf("server: delta request decode: %w", err)
	}
	return oid, have, nil
}

// Marshal encodes the reply for the wire, into one buffer sized to fit.
func (d *DeltaReply) Marshal() []byte {
	if d.Current {
		w := enc.NewWriter(2 + binary.MaxVarintLen64)
		w.Byte(deltaWireVersion)
		w.Byte(deltaStatusCurrent)
		w.Uvarint(d.NewVersion)
		return w.Bytes()
	}
	var key, icert, nameCerts []byte
	if t := d.tables; t != nil {
		key, icert, nameCerts = t.key[0], t.icert[0], t.nameCerts[0]
	} else {
		key, icert, nameCerts = d.Key.Marshal(), d.Cert.Marshal(), object.EncodeCertList(d.NameCerts)
	}
	w := enc.NewWriter(d.size(len(key) + len(icert) + len(nameCerts)))
	w.Byte(deltaWireVersion)
	if d.FullRequired {
		w.Byte(deltaStatusFull)
	} else {
		w.Byte(deltaStatusDelta)
	}
	w.BytesPrefixed(key)
	w.BytesPrefixed(icert)
	w.Raw(nameCerts) // the count, then each certificate length-prefixed
	w.Uvarint(uint64(len(d.Items)))
	for _, it := range d.Items {
		w.String(it.Name)
		if !it.Changed {
			w.Byte(deltaItemUnchanged)
			continue
		}
		w.Byte(deltaItemChanged)
		w.String(it.Element.ContentType)
		w.BytesPrefixed(it.Element.Data)
	}
	return w.Bytes()
}

// size bounds the encoding of a delta or full reply whose three encoded
// tables sum to tables bytes.
func (d *DeltaReply) size(tables int) int {
	n := 2 + 3*binary.MaxVarintLen64 + tables
	for _, it := range d.Items {
		n += prefixedLen(len(it.Name)) + 1
		if it.Changed {
			n += prefixedLen(len(it.Element.ContentType)) + prefixedLen(len(it.Element.Data))
		}
	}
	return n
}

// prefixedLen is the encoded length of an n-byte field with its uvarint
// length prefix.
func prefixedLen(n int) int { return (bits.Len64(uint64(n)|1)+6)/7 + n }

// UnmarshalDeltaReply decodes an encoding from Marshal. The result is
// untrusted: callers must route any state composed from it through
// Bundle.Validate (via Server.Update) before trusting a byte of it. A
// changed item's Data aliases data — Update copies what it keeps — while
// the certificate's encoding is copied out, so a replica that serves it
// pins no reply frame. The items' names are substrings of one string,
// sized by a pass over the items first, and the items one slice.
func UnmarshalDeltaReply(data []byte) (*DeltaReply, error) {
	r := enc.NewReader(data)
	if v := r.Byte(); r.Err() == nil && v != deltaWireVersion {
		return nil, fmt.Errorf("server: unsupported delta reply version %d", v)
	}
	status := r.Byte()
	d := DeltaReply{Current: status == deltaStatusCurrent, FullRequired: status == deltaStatusFull}
	if r.Err() == nil && status != deltaStatusDelta && !d.Current && !d.FullRequired {
		return nil, fmt.Errorf("server: unknown delta reply status %d", status)
	}
	if d.Current {
		d.NewVersion = r.Uvarint()
		if err := r.Finish(); err != nil {
			return nil, fmt.Errorf("server: delta reply decode: %w", err)
		}
		return &d, nil
	}
	rawKey := r.BytesPrefixed()
	rawCert := r.BytesPrefixed()
	nc := r.Uvarint()
	if r.Err() == nil && nc > 1024 {
		return nil, fmt.Errorf("server: implausible delta name-cert count %d", nc)
	}
	rawNameCerts := make([][]byte, 0, nc)
	for i := uint64(0); i < nc && r.Err() == nil; i++ {
		rawNameCerts = append(rawNameCerts, r.BytesPrefixed())
	}
	ni := r.Uvarint()
	if r.Err() == nil && ni > maxDeltaItems {
		return nil, fmt.Errorf("server: implausible delta item count %d", ni)
	}
	// The sizing pass reads a copy of r through the items, and is where a
	// malformed item fails, before anything is allocated for them.
	size, sizing := 0, *r
	for i := uint64(0); i < ni && sizing.Err() == nil; i++ {
		name := sizing.BytesPrefixed()
		size += len(name)
		switch st := sizing.Byte(); st {
		case deltaItemUnchanged:
			if d.FullRequired && sizing.Err() == nil {
				return nil, fmt.Errorf("server: full delta reply marks %q unchanged", name)
			}
		case deltaItemChanged:
			sizing.BytesPrefixed()
			sizing.BytesPrefixed()
		default:
			if sizing.Err() == nil {
				return nil, fmt.Errorf("server: unknown delta item status %d", st)
			}
		}
	}
	if err := sizing.Finish(); err != nil {
		return nil, fmt.Errorf("server: delta reply decode: %w", err)
	}
	// The names go into one buffer grown to their exact size, so it is
	// allocated once, and each name is names.String() cut to what was
	// just written: no copy, as bytes once written are never rewritten.
	var names strings.Builder
	names.Grow(size)
	d.Items = make([]DeltaItem, ni)
	for i := range d.Items {
		it := &d.Items[i]
		start := names.Len()
		names.Write(r.BytesPrefixed())
		it.Name = names.String()[start:]
		if r.Byte() == deltaItemChanged {
			it.Changed = true
			it.Element.Name = it.Name
			it.Element.ContentType = r.String()
			it.Element.Data = r.BytesPrefixed()
		}
	}
	key, err := keys.UnmarshalPublicKey(rawKey)
	if err != nil {
		return nil, fmt.Errorf("server: delta key decode: %w", err)
	}
	d.Key = key
	c, err := cert.UnmarshalIntegrityCertificate(rawCert)
	if err != nil {
		return nil, fmt.Errorf("server: delta cert decode: %w", err)
	}
	d.Cert, d.certWire = c, bytes.Clone(rawCert)
	for _, raw := range rawNameCerts {
		ncert, err := cert.UnmarshalNameCertificate(raw)
		if err != nil {
			return nil, fmt.Errorf("server: delta name cert decode: %w", err)
		}
		d.NameCerts = append(d.NameCerts, ncert)
	}
	return &d, nil
}

// DeltaSince computes the obj.getdelta reply for a hosted replica from
// the client's have-version: "current" when have is the head or later, a
// delta to the head when have is retained, and otherwise (0, evicted or
// never existed) the full state. The reply's element bytes are the
// caller's own copies, and its Marshal encodes the key and certificates
// it carries.
func (s *Server) DeltaSince(oid globeid.OID, have uint64) (*DeltaReply, error) {
	d, err := s.deltaSince(oid, have)
	if err != nil {
		return nil, err
	}
	d.tables = nil
	for i := range d.Items {
		d.Items[i].Element.Data = append([]byte(nil), d.Items[i].Element.Data...)
	}
	return d, nil
}

// deltaSince is DeltaSince with the changed elements' Data aliasing the
// head's wire payloads and the head's encoded key and certificates
// attached — for marshalling only.
func (s *Server) deltaSince(oid globeid.OID, have uint64) (*DeltaReply, error) {
	h, err := s.replica(oid)
	if err != nil {
		return nil, err
	}
	versions := h.versions()
	head := versions[len(versions)-1]
	if have != 0 && have >= head.version {
		return &DeltaReply{Current: true, NewVersion: head.version}, nil
	}
	var base *versionSnapshot
	for _, snap := range versions {
		if have != 0 && snap.version == have {
			base = snap
			break
		}
	}
	d := &DeltaReply{
		Key:       h.key,
		Cert:      head.cert,
		NameCerts: head.nameCerts,
		Items:     make([]DeltaItem, 0, len(head.wire.names)),
		tables:    &head.wire,
	}
	var changed []string // the names whose elements the reply carries, sorted
	if base == nil {
		d.FullRequired = true
		changed = head.wire.names
	} else {
		changed, _ = merkle.DiffSorted(base.leaves, head.leaves)
	}
	for i, name := range head.wire.names {
		it := DeltaItem{Name: name}
		if len(changed) > 0 && changed[0] == name {
			changed = changed[1:]
			it.Changed, it.Element = true, head.wire.elements[i].element(name)
		}
		d.Items = append(d.Items, it)
	}
	return d, nil
}

// handleGetDelta serves obj.getdelta. Everything in the reply is public
// data the anonymous read protocol already exposes piecewise.
func (s *Server) handleGetDelta(body []byte) ([]byte, error) {
	oid, have, err := DecodeDeltaRequest(body)
	if err != nil {
		return nil, err
	}
	d, err := s.deltaSince(oid, have)
	if err != nil {
		return nil, err
	}
	return d.Marshal(), nil
}
