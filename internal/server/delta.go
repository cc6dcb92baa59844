package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"

	"globedoc/internal/cert"
	"globedoc/internal/enc"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/merkle"
	"globedoc/internal/object"
)

// OpGetDelta is the one consistency transfer (DESIGN.md §16): the
// request carries (OID, have-version), and the reply is one of three.
// "Current" carries only the primary's version, when have is its head or
// later. A delta carries the new version's state in the replica state
// layout (DESIGN.md §12): its key, name and integrity certificates, and
// every element in name order — held, when its cert-listed hash is
// unchanged since have, and carried otherwise. When have is not among
// the primary's retained versions (0 included) the reply is the full
// state: the same layout with every element carried. The reply is
// UNTRUSTED input: the puller composes a candidate bundle from it and
// installs it only through Update's validation, which requires every
// element the certificate lists, and only if its certificate supersedes
// the one held, so a lying primary can at worst deny service, never
// install a byte that does not verify, a partial replica or a rollback.
const OpGetDelta = "obj.getdelta"

// deltaWireVersion versions both the request and reply encodings, so the
// format can evolve the way the transport's frame version does.
const deltaWireVersion = 5

// Reply status bytes.
const (
	deltaStatusDelta   byte = 1
	deltaStatusCurrent byte = 2
	deltaStatusFull    byte = 3
)

// DeltaReply is the decoded obj.getdelta reply.
type DeltaReply struct {
	// Current reports that the have-version is the primary's head or
	// later. Only NewVersion is populated.
	Current bool
	// FullRequired reports that have was not retained, so the full state
	// follows: every item is carried.
	FullRequired bool
	// NewVersion is the primary's current version, carried only by a
	// current reply. A delta or full reply's version is its certificate's.
	NewVersion uint64
	Key        keys.PublicKey
	Cert       *cert.IntegrityCertificate
	NameCerts  []*cert.NameCertificate
	// Items lists every element of the new version, sorted by name: an
	// element whose bytes the requester holds is Held and carries
	// nothing, and every other carries its Element.
	Items []object.BatchItem

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

// currentReply encodes the reply that the primary's head is version.
func currentReply(version uint64) []byte {
	w := enc.NewWriter(2 + binary.MaxVarintLen64)
	w.Byte(deltaWireVersion)
	w.Byte(deltaStatusCurrent)
	w.Uvarint(version)
	return w.Bytes()
}

// Marshal encodes the reply for the wire, the key and certificates it
// carries included.
func (d *DeltaReply) Marshal() []byte {
	if d.Current {
		return currentReply(d.NewVersion)
	}
	status := deltaStatusDelta
	if d.FullRequired {
		status = deltaStatusFull
	}
	return append([]byte{deltaWireVersion, status},
		object.EncodeBindReply(d.Key.Marshal(), object.EncodeCertList(d.NameCerts), d.Cert.Marshal(), wireItems(d.Items))...)
}

// wireItems encodes decoded items for the replica state layout: a held
// item stays held, a declined one is declined with its error's text, and
// any other carries its element.
func wireItems(items []object.BatchItem) []object.BatchWireItem {
	out := make([]object.BatchWireItem, len(items))
	for i, it := range items {
		out[i] = object.BatchWireItem{Name: it.Name, Held: it.Held}
		switch {
		case it.Held:
		case it.Err != nil:
			out[i].ErrMsg = it.Err.Error()
		default:
			out[i].Wire = object.EncodeElement(it.Element)
		}
	}
	return out
}

// UnmarshalDeltaReply decodes an encoding from Marshal. The result is
// untrusted: callers must route any state composed from it through
// Bundle.Validate (via Server.Update) before trusting a byte of it. A
// carried item's Data aliases data — Update copies what it keeps — while
// the certificate's encoding is copied out, so a replica that serves it
// pins no reply frame. No honest primary declines an item, or holds one
// in a full reply, so a reply that does is refused.
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
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("server: delta reply decode: %w", err)
	}
	var state Bundle
	items, err := state.unmarshalState("delta reply", data[2:], !d.FullRequired)
	if err != nil {
		return nil, err
	}
	d.Key, d.Cert, d.NameCerts, d.certWire, d.Items = state.Key, state.Cert, state.NameCerts, state.certWire, items
	return &d, nil
}

// DeltaSince computes the obj.getdelta reply for a hosted replica from
// the client's have-version: "current" when have is the head or later, a
// delta to the head when have is retained, and otherwise (0, evicted or
// never existed) the full state. The reply's element bytes are the
// caller's own copies, and its Marshal encodes the key and certificates
// it carries.
func (s *Server) DeltaSince(oid globeid.OID, have uint64) (*DeltaReply, error) {
	h, head, status, items, err := s.deltaSince(oid, have)
	if err != nil {
		return nil, err
	}
	if status == deltaStatusCurrent {
		return &DeltaReply{Current: true, NewVersion: head.version}, nil
	}
	d := &DeltaReply{
		FullRequired: status == deltaStatusFull,
		Key:          h.key,
		Cert:         head.cert,
		NameCerts:    head.nameCerts,
		Items:        make([]object.BatchItem, len(items)),
	}
	for i, it := range items {
		d.Items[i] = object.BatchItem{Name: it.Name, Held: it.Held}
		if !it.Held {
			e := head.wire.elements[i].element(it.Name)
			e.Data = bytes.Clone(e.Data)
			d.Items[i].Element = e
		}
	}
	return d, nil
}

// deltaSince finds the obj.getdelta reply to have in oid's replica h: its
// head and the reply status and, unless the head is current, the items,
// index for index with the head's elements — each held, or carried as
// its precomputed wire payload.
func (s *Server) deltaSince(oid globeid.OID, have uint64) (h *hostedReplica, head *versionSnapshot, status byte, items []object.BatchWireItem, err error) {
	if h, err = s.replica(oid); err != nil {
		return nil, nil, 0, nil, err
	}
	versions := h.versions()
	head = versions[len(versions)-1]
	if have != 0 && have >= head.version {
		return h, head, deltaStatusCurrent, nil, nil
	}
	status, changed := deltaStatusFull, head.wire.names // the names whose elements the reply carries, sorted
	for _, snap := range versions {
		if have != 0 && snap.version == have {
			status = deltaStatusDelta
			changed, _ = merkle.DiffSorted(snap.leaves, head.leaves)
			break
		}
	}
	items = make([]object.BatchWireItem, len(head.wire.names))
	for i, name := range head.wire.names {
		items[i].Name = name
		if len(changed) > 0 && changed[0] == name {
			changed = changed[1:]
			items[i].Wire = head.wire.elements[i].wire
		} else {
			items[i].Held = true
		}
	}
	return h, head, status, items, nil
}

// handleGetDelta serves obj.getdelta. Everything in the reply is public
// data the anonymous read protocol already exposes piecewise, and the
// reply references the head's precomputed payloads where they lie, as
// obj.bind's does: serving a delta copies no element byte.
func (s *Server) handleGetDelta(ctx context.Context, body []byte) ([][]byte, error) {
	oid, have, err := DecodeDeltaRequest(body)
	if err != nil {
		return nil, err
	}
	_, head, status, items, err := s.deltaSince(oid, have)
	if err != nil {
		return nil, err
	}
	if status == deltaStatusCurrent {
		return [][]byte{currentReply(head.version)}, nil
	}
	w := &head.wire
	return object.BindReplyBuffers([]byte{deltaWireVersion, status}, w.key[0], w.nameCerts[0], w.icert[0], items), nil
}
