package server

import (
	"fmt"

	"globedoc/internal/cert"
	"globedoc/internal/document"
	"globedoc/internal/enc"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/merkle"
)

// OpGetDelta is the one consistency transfer (DESIGN.md §16): the
// request carries (OID, have-version), and the reply is one of three.
// "Current" carries only the primary's version, when have is its head or
// later. A delta carries the chain headers linking have to the current
// version, the new version's key and certificate tables, and — per
// element, tagged with a status byte — either nothing (cert-listed hash
// unchanged since have) or the new element bytes. When have is not in
// the primary's retained chain (0 included) the reply is the full state:
// the same tables, only the head's header, and every element. The reply
// is UNTRUSTED input: the puller composes a candidate bundle from it and
// installs it only through Update's validation and only if its
// certificate supersedes the one held, so a lying primary can at worst
// deny service, never install a byte that does not verify or roll the
// replica back.
const OpGetDelta = "obj.getdelta"

// deltaWireVersion versions both the request and reply encodings, so the
// format can evolve the way the transport's frame version does.
const deltaWireVersion = 3

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

// Decoder bounds, mirroring UnmarshalBundle's.
const (
	maxDeltaHeaders = 1024
	maxDeltaItems   = 1 << 16
)

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
	// follows: every item is Changed and Headers holds only the head.
	FullRequired bool
	// NewVersion is the primary's current version, carried only by a
	// current reply. A delta or full reply's version is its certificate's.
	NewVersion uint64
	// Headers is the retained chain from the have-version to the current
	// version inclusive, oldest first.
	Headers   []*VersionHeader
	Key       keys.PublicKey
	Cert      *cert.IntegrityCertificate
	NameCerts []*cert.NameCertificate
	// Items lists every element of the new version, sorted by name.
	Items []DeltaItem
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

// Marshal encodes the reply for the wire.
func (d *DeltaReply) Marshal() []byte {
	w := enc.NewWriter(1024)
	w.Byte(deltaWireVersion)
	if d.Current {
		w.Byte(deltaStatusCurrent)
		w.Uvarint(d.NewVersion)
		return w.Bytes()
	}
	if d.FullRequired {
		w.Byte(deltaStatusFull)
	} else {
		w.Byte(deltaStatusDelta)
	}
	w.Uvarint(uint64(len(d.Headers)))
	for _, h := range d.Headers {
		w.BytesPrefixed(h.Marshal())
	}
	w.BytesPrefixed(d.Key.Marshal())
	w.BytesPrefixed(d.Cert.Marshal())
	w.Uvarint(uint64(len(d.NameCerts)))
	for _, nc := range d.NameCerts {
		w.BytesPrefixed(nc.Marshal())
	}
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

// UnmarshalDeltaReply decodes an encoding from Marshal. The result is
// untrusted: callers must route any state composed from it through
// Bundle.Validate (via Server.Update) before trusting a byte of it.
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
	nh := r.Uvarint()
	if r.Err() == nil && nh > maxDeltaHeaders {
		return nil, fmt.Errorf("server: implausible delta header count %d", nh)
	}
	rawHeaders := make([][]byte, 0, nh)
	for i := uint64(0); i < nh && r.Err() == nil; i++ {
		rawHeaders = append(rawHeaders, r.BytesPrefixed())
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
	for i := uint64(0); i < ni && r.Err() == nil; i++ {
		var it DeltaItem
		it.Name = r.String()
		switch st := r.Byte(); st {
		case deltaItemUnchanged:
			if d.FullRequired && r.Err() == nil {
				return nil, fmt.Errorf("server: full delta reply marks %q unchanged", it.Name)
			}
		case deltaItemChanged:
			it.Changed = true
			it.Element.Name = it.Name
			it.Element.ContentType = r.String()
			it.Element.Data = append([]byte(nil), r.BytesPrefixed()...)
		default:
			if r.Err() == nil {
				return nil, fmt.Errorf("server: unknown delta item status %d", st)
			}
		}
		d.Items = append(d.Items, it)
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("server: delta reply decode: %w", err)
	}
	for _, raw := range rawHeaders {
		h, err := UnmarshalVersionHeader(raw)
		if err != nil {
			return nil, err
		}
		d.Headers = append(d.Headers, h)
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
	d.Cert = c
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
// caller's own copies.
func (s *Server) DeltaSince(oid globeid.OID, have uint64) (*DeltaReply, error) {
	d, err := s.deltaSince(oid, have)
	if err != nil {
		return nil, err
	}
	for i := range d.Items {
		d.Items[i].Element.Data = append([]byte(nil), d.Items[i].Element.Data...)
	}
	return d, nil
}

// deltaSince is DeltaSince with the changed elements' Data aliasing the
// head's wire payloads — for marshalling only.
func (s *Server) deltaSince(oid globeid.OID, have uint64) (*DeltaReply, error) {
	h, err := s.replica(oid)
	if err != nil {
		return nil, err
	}
	chain := h.versions()
	head := chain[len(chain)-1]
	if have != 0 && have >= head.header.Version {
		return &DeltaReply{Current: true, NewVersion: head.header.Version}, nil
	}
	base := -1
	for i, snap := range chain {
		if have != 0 && snap.header.Version == have {
			base = i
			break
		}
	}
	d := &DeltaReply{Key: h.key, Cert: head.cert, NameCerts: head.nameCerts}
	var changedSet map[string]bool // nil: the full state, every element sent
	if base < 0 {
		d.FullRequired = true
		d.Headers = []*VersionHeader{head.header}
	} else {
		for _, snap := range chain[base:] {
			d.Headers = append(d.Headers, snap.header)
		}
		changed, _ := merkle.DiffLeaves(chain[base].hashes, head.hashes)
		changedSet = make(map[string]bool, len(changed))
		for _, name := range changed {
			changedSet[name] = true
		}
	}
	for _, name := range head.wire.names {
		it := DeltaItem{Name: name}
		if changedSet == nil || changedSet[name] {
			it.Changed = true
			it.Element = head.wire.elements[name].element(name)
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
