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
// Access control follows §4: the administrator configures a keystore of
// public keys for the entities allowed to create replicas here — object
// owners and peer object servers (the latter enabling dynamic
// replication) — and each entity may manage only the replicas it created.
// The paper's prototype authenticated administrators over TLS; this
// implementation uses an equivalent challenge–response signature scheme
// over the same wire protocol, keeping the whole stack on one transport.
package server

import (
	"fmt"

	"globedoc/internal/cert"
	"globedoc/internal/document"
	"globedoc/internal/enc"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
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
}

// Validate performs the server's self-protection checks before hosting:
// the public key must hash to the OID, the integrity certificate must be
// signed by that key and name this object, and every element must match
// its certificate entry. A server that skips these checks would waste
// storage on garbage it can never serve convincingly.
func (b *Bundle) Validate() error {
	if err := b.OID.Verify(b.Key); err != nil {
		return fmt.Errorf("server: bundle key: %w", err)
	}
	if b.Cert == nil {
		return fmt.Errorf("server: bundle for %s has no integrity certificate", b.OID.Short())
	}
	if err := b.Cert.VerifySignature(b.OID, b.Key); err != nil {
		return fmt.Errorf("server: bundle certificate: %w", err)
	}
	for _, e := range b.Elements {
		entry, err := b.Cert.Lookup(e.Name)
		if err != nil {
			return fmt.Errorf("server: bundle element %q not in certificate", e.Name)
		}
		if entry.Hash != e.Hash() {
			return fmt.Errorf("server: bundle element %q does not match certificate hash", e.Name)
		}
	}
	return nil
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

// Marshal encodes the bundle for the wire.
func (b *Bundle) Marshal() []byte {
	w := enc.NewWriter(1024 + b.TotalBytes())
	w.Raw(b.OID[:])
	w.BytesPrefixed(b.Key.Marshal())
	w.Uvarint(uint64(len(b.Elements)))
	for _, e := range b.Elements {
		w.String(e.Name)
		w.String(e.ContentType)
		w.BytesPrefixed(e.Data)
	}
	w.BytesPrefixed(b.Cert.Marshal())
	w.Uvarint(uint64(len(b.NameCerts)))
	for _, nc := range b.NameCerts {
		w.BytesPrefixed(nc.Marshal())
	}
	return w.Bytes()
}

// UnmarshalBundle decodes an encoding from Marshal.
func UnmarshalBundle(data []byte) (*Bundle, error) {
	r := enc.NewReader(data)
	var b Bundle
	copy(b.OID[:], r.Raw(globeid.Size))
	rawKey := r.BytesPrefixed()
	n := r.Uvarint()
	if n > 1<<16 {
		return nil, fmt.Errorf("server: implausible element count %d", n)
	}
	for i := uint64(0); i < n; i++ {
		var e document.Element
		e.Name = r.String()
		e.ContentType = r.String()
		e.Data = append([]byte(nil), r.BytesPrefixed()...)
		b.Elements = append(b.Elements, e)
	}
	rawCert := r.BytesPrefixed()
	nc := r.Uvarint()
	if nc > 1024 {
		return nil, fmt.Errorf("server: implausible name-cert count %d", nc)
	}
	rawNameCerts := make([][]byte, 0, nc)
	for i := uint64(0); i < nc; i++ {
		rawNameCerts = append(rawNameCerts, r.BytesPrefixed())
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("server: bundle decode: %w", err)
	}
	key, err := keys.UnmarshalPublicKey(rawKey)
	if err != nil {
		return nil, fmt.Errorf("server: bundle key decode: %w", err)
	}
	b.Key = key
	c, err := cert.UnmarshalIntegrityCertificate(rawCert)
	if err != nil {
		return nil, fmt.Errorf("server: bundle cert decode: %w", err)
	}
	b.Cert = c
	for _, raw := range rawNameCerts {
		ncert, err := cert.UnmarshalNameCertificate(raw)
		if err != nil {
			return nil, fmt.Errorf("server: bundle name cert decode: %w", err)
		}
		b.NameCerts = append(b.NameCerts, ncert)
	}
	return &b, nil
}

// BundleFromDocument snapshots a live document into a bundle.
func BundleFromDocument(oid globeid.OID, key keys.PublicKey, doc *document.Document, c *cert.IntegrityCertificate, nameCerts []*cert.NameCertificate) *Bundle {
	return &Bundle{
		OID:       oid,
		Key:       key,
		Elements:  doc.Snapshot(),
		Cert:      c,
		NameCerts: nameCerts,
	}
}
