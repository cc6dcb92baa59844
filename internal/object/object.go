// Package object implements the client-side half of Globe distributed
// shared objects for GlobeDoc (paper §2).
//
// A process accesses a GlobeDoc object by binding to it: (1) resolve the
// object name to an OID via the naming service, (2) resolve the OID to
// contact addresses via the location service, (3) install a local
// representative (LR) in the binding process's address space. The LR
// installed here is an object proxy — it forwards method invocations over
// the GlobeDoc wire protocol to a replica LR hosted on some object
// server. (Full replica LRs live in object servers; see internal/server.)
//
// This package deliberately performs NO security checks: it is the plain
// Globe machinery. The GlobeDoc security architecture (internal/core)
// wraps a bound Client with the self-certification, integrity and
// freshness pipeline of paper §3.
//
// A client takes bytes from a replica only through obj.bind: cold, for
// everything a secure binding checks with the wanted elements, from one
// version; warm, naming the certificate it holds — and, for a refresh,
// the bytes it holds — for the elements and the replica's certificate
// only if it has moved on. The step operations
// stay served for tools that time the layers one by one.
//
// The obj.bind reply's layout — key, name certificates, integrity
// certificate, then the element batch — is the one encoding of a
// replica's state: internal/server's delta replies and admin bundles
// carry it too (DESIGN.md §12, "Replica state layout"). Every decoder
// here that sizes a slice from a count first checks that the count's
// items fit in the bytes that follow it, so a peer cannot make it
// allocate more than it sent.
package object

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"time"

	"globedoc/internal/cert"
	"globedoc/internal/document"
	"globedoc/internal/enc"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/transport"
)

// Protocol is the protocol tag recorded in location-service contact
// addresses for GlobeDoc object servers.
const Protocol = "globedoc/1"

// Public wire operations served by every object replica. These are
// answerable to ANYONE — clients are anonymous in GlobeDoc's read path —
// and therefore return only signed or self-certifying data.
const (
	OpGetKey     = "obj.getkey"
	OpGetCert    = "obj.getcert"
	OpGetElement = "obj.getelement"
	// OpGetElements returns many elements in one exchange.
	OpGetElements = "obj.getelements"
	// OpBind returns, in one exchange and from one version, the element
	// batch a client asks for with what it needs to verify them: for a
	// cold bind the object key, the integrity certificate and, when asked,
	// the name certificates; for a warm one, which names the certificate
	// it holds, the replica's certificate only when it differs, and for
	// an element the request names the hash of its held bytes, a held
	// item instead of bytes that hash the same.
	OpBind = "obj.bind"
	OpPing = "obj.ping"
)

// Errors reported during binding and invocation.
var (
	ErrNoReplica  = errors.New("object: no reachable replica")
	ErrNotHosted  = errors.New("object: replica does not host this object")
	ErrBadPayload = errors.New("object: malformed payload")
)

// EncodeOIDRequest encodes a request carrying just an OID.
func EncodeOIDRequest(oid globeid.OID) []byte {
	w := enc.NewWriter(globeid.Size)
	w.Raw(oid[:])
	return w.Bytes()
}

// DecodeOIDRequest decodes a request carrying just an OID.
func DecodeOIDRequest(body []byte) (globeid.OID, error) {
	r := enc.NewReader(body)
	var oid globeid.OID
	copy(oid[:], r.Raw(globeid.Size))
	if err := r.Finish(); err != nil {
		return globeid.Zero, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return oid, nil
}

// EncodeElementRequest encodes an (OID, element-name) request. fromSite
// is an advisory hint naming the client's site; the replication subobject
// on the server side uses it to detect flash crowds and place replicas
// near demand (paper §2). It carries no security weight — lying about it
// only mis-steers replica placement.
func EncodeElementRequest(oid globeid.OID, name, fromSite string) []byte {
	w := enc.NewWriter(globeid.Size + len(name) + len(fromSite) + 12)
	w.Raw(oid[:])
	w.String(name)
	w.String(fromSite)
	return w.Bytes()
}

// DecodeElementRequest decodes an (OID, element-name, site-hint) request.
func DecodeElementRequest(body []byte) (globeid.OID, string, string, error) {
	r := enc.NewReader(body)
	var oid globeid.OID
	copy(oid[:], r.Raw(globeid.Size))
	name := r.String()
	fromSite := r.String()
	if err := r.Finish(); err != nil {
		return globeid.Zero, "", "", fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return oid, name, fromSite, nil
}

// EncodeElement encodes an element for the wire.
func EncodeElement(e document.Element) []byte {
	w := enc.NewWriter(32 + len(e.Name) + len(e.Data))
	w.String(e.Name)
	w.String(e.ContentType)
	w.BytesPrefixed(e.Data)
	return w.Bytes()
}

// DecodeElement decodes an element from the wire. The element's Data
// aliases body: a response body handed out by transport.Client.Call is
// the caller's alone (received frame buffers are never reused), so the
// payload is not copied to be decoded. A caller decoding from a buffer
// it will reuse or mutate must copy first.
func DecodeElement(body []byte) (document.Element, error) {
	name, contentType, data, err := elementFields(body)
	if err != nil {
		return document.Element{}, err
	}
	return document.Element{Name: string(name), ContentType: document.InternContentType(contentType), Data: data}, nil
}

// elementFields reads an element's wire fields, each aliasing body.
func elementFields(body []byte) (name, contentType, data []byte, err error) {
	r := enc.NewReader(body)
	name, contentType, data = r.BytesPrefixed(), r.BytesPrefixed(), r.BytesPrefixed()
	if err := r.Finish(); err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return name, contentType, data, nil
}

// maxBatchNames bounds how many element names one batch request may
// carry — a defence against a malicious peer inflating allocations.
const maxBatchNames = 1 << 16

// EncodeElementsRequest encodes an (OID, element-name list, site-hint)
// batch request.
func EncodeElementsRequest(oid globeid.OID, names []string, fromSite string) []byte {
	w := enc.NewWriter(globeid.Size + len(fromSite) + 16*(len(names)+1))
	w.Raw(oid[:])
	w.String(fromSite)
	w.Uvarint(uint64(len(names)))
	for _, n := range names {
		w.String(n)
	}
	return w.Bytes()
}

// DecodeElementsRequest decodes an (OID, element-name list, site-hint)
// batch request.
func DecodeElementsRequest(body []byte) (globeid.OID, []string, string, error) {
	r := enc.NewReader(body)
	var oid globeid.OID
	copy(oid[:], r.Raw(globeid.Size))
	fromSite := r.String()
	n := r.Count(1)
	if n > maxBatchNames {
		return globeid.Zero, nil, "", fmt.Errorf("%w: implausible batch size %d", ErrBadPayload, n)
	}
	names := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		names = append(names, r.String())
	}
	if err := r.Finish(); err != nil {
		return globeid.Zero, nil, "", fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return oid, names, fromSite, nil
}

// BatchWireItem is one slot of an encoded batch response: the element's
// already-encoded wire bytes, the reason it could not be served, or — in
// answer to a bind slot naming the hash its bytes are held under — that
// the held bytes are still the served ones. Servers build these from
// their precomputed per-element payloads.
type BatchWireItem struct {
	Name   string
	Wire   []byte // EncodeElement output; meaningful only when ErrMsg == "" and !Held
	ErrMsg string
	Held   bool // the requester's held bytes are current: no payload, no message
}

// BatchItem is one decoded slot of a batch response. Err is non-nil
// when the server declined this element (unknown name, or the batch
// overflowed the frame budget). Held reports the replica's claim that
// the bytes the request named as held are current; it carries nothing
// and is no decline.
type BatchItem struct {
	Name    string
	Element document.Element
	Err     error
	Held    bool
}

// Batch item status bytes. Any other non-zero byte is a decline too.
const (
	itemElement  byte = 0
	itemDeclined byte = 1
	itemHeld     byte = 2
)

// EncodeElementsResponse encodes a batch response. Items must be in
// request order — clients verify the echo.
func EncodeElementsResponse(items []BatchWireItem) []byte {
	return joined(ElementsResponseBuffers(items))
}

// ElementsResponseBuffers is EncodeElementsResponse's encoding as
// buffers, whose concatenation it is (see appendItems).
func ElementsResponseBuffers(items []BatchWireItem) [][]byte {
	return appendItems(enc.NewWriter(itemsSize(items)), items)
}

// joined is bufs' concatenation, in one buffer sized to fit (not
// bytes.Join: DESIGN.md §12.1).
func joined(bufs [][]byte) []byte {
	size := 0
	for _, b := range bufs {
		size += len(b)
	}
	out := make([]byte, 0, size)
	for _, b := range bufs {
		out = append(out, b...)
	}
	return out
}

// itemsSize bounds a batch's framing — all of it but the elements' wire
// bytes — so it is written into one buffer without growing it.
func itemsSize(items []BatchWireItem) int {
	size := 16
	for _, it := range items {
		size += 16 + len(it.Name) + len(it.ErrMsg)
	}
	return size
}

// appendItems writes a batch after what w holds — the item count, then
// per item its name, a status byte and the element's wire bytes, the
// decline reason or, for a held item, nothing — and returns the whole
// encoding as buffers: w's framing interleaved with the elements' wire
// bytes, referenced where they lie. A reply assembled from a server's
// precomputed payloads thus copies no element byte.
func appendItems(w *enc.Writer, items []BatchWireItem) [][]byte {
	carried := 0
	for _, it := range items {
		if !it.Held && it.ErrMsg == "" {
			carried++
		}
	}
	bufs := make([][]byte, 0, 2*carried+1)
	cut := 0
	w.Uvarint(uint64(len(items)))
	for _, it := range items {
		w.String(it.Name)
		switch {
		case it.Held:
			w.Byte(itemHeld)
			continue
		case it.ErrMsg != "":
			w.Byte(itemDeclined)
			w.String(it.ErrMsg)
			continue
		}
		w.Byte(itemElement)
		w.Uvarint(uint64(len(it.Wire)))
		b := w.Bytes()
		bufs = append(bufs, b[cut:len(b):len(b)], it.Wire)
		cut = len(b)
	}
	return append(bufs, w.Bytes()[cut:])
}

// DecodeElementsResponse decodes a batch response. Every item's element
// Data aliases body (see DecodeElement), so one retained element keeps
// the whole reply's buffer reachable until it is released.
func DecodeElementsResponse(body []byte) ([]BatchItem, error) {
	r := enc.NewReader(body)
	items, err := readItems(r)
	if err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return items, nil
}

// readItems reads a batch written by appendItems. A sizing pass over a
// copy of r checks every item first, so a malformed batch fails before
// anything is allocated for it. The items are then one slice, and their
// names substrings of one string grown to their exact size; an element
// named as its item shares the item's name. Every other string has its
// own allocation, so a cache that keeps an element's content type pins
// no field a replica chose to pad.
func readItems(r *enc.Reader) ([]BatchItem, error) {
	n := r.Count(2) // an item is at least its name's length and a status byte
	if n > maxBatchNames {
		return nil, fmt.Errorf("%w: implausible batch size %d", ErrBadPayload, n)
	}
	size, sizing := 0, *r
	for i := uint64(0); i < n && sizing.Err() == nil; i++ {
		size += len(sizing.BytesPrefixed())
		switch sizing.Byte() {
		case itemElement:
			if _, _, _, err := elementFields(sizing.BytesPrefixed()); err != nil && sizing.Err() == nil {
				return nil, err
			}
		case itemHeld:
		default:
			sizing.BytesPrefixed()
		}
	}
	if err := sizing.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	// The names go into one buffer grown to their exact size, so it is
	// allocated once, and each name is names.String() cut to what was
	// just written: no copy, as bytes once written are never rewritten.
	var names strings.Builder
	names.Grow(size)
	items := make([]BatchItem, n)
	for i := range items {
		it := &items[i]
		start := names.Len()
		names.Write(r.BytesPrefixed())
		it.Name = names.String()[start:]
		switch r.Byte() {
		case itemElement:
			name, contentType, data, _ := elementFields(r.BytesPrefixed())
			it.Element = document.Element{Name: it.Name, ContentType: document.InternContentType(contentType), Data: data}
			if string(name) != it.Name {
				it.Element.Name = string(name)
			}
		case itemHeld:
			it.Held = true
		default:
			it.Err = fmt.Errorf("object: batch element %q: %s", it.Name, r.BytesPrefixed())
		}
	}
	return items, nil
}

// echoes checks that a batch answers names slot by slot, in order, and
// answers held only a slot held names a hash for (held is nil, or index
// for index with names).
func echoes(items []BatchItem, names []string, held [][globeid.Size]byte) error {
	if len(items) != len(names) {
		return fmt.Errorf("%w: batch returned %d items for %d names", ErrBadPayload, len(items), len(names))
	}
	for i, it := range items {
		if it.Name != names[i] {
			return fmt.Errorf("%w: batch item %d answers %q, want %q", ErrBadPayload, i, it.Name, names[i])
		}
		if it.Held && (held == nil || held[i] == [globeid.Size]byte{}) {
			return fmt.Errorf("%w: batch item %q claims bytes the request did not hold", ErrBadPayload, it.Name)
		}
	}
	return nil
}

// BindRequest is one obj.bind request: the object, the client's advisory
// site hint, the certificate the client holds, and what the reply
// carries besides.
type BindRequest struct {
	OID      globeid.OID
	FromSite string
	// Have names by its encoding's hash the integrity certificate the
	// client holds; zero for a cold bind. The
	// reply then carries no key and the replica's certificate only when it
	// is not the one held.
	Have [globeid.Size]byte
	// NameCerts asks for the object's identity certificates; a request
	// that has a certificate cannot.
	NameCerts bool
	// All asks for every element the replica holds. Otherwise Names lists
	// the elements wanted; none asks for the certificates alone.
	All   bool
	Names []string
	// Held, on a request that has a certificate and lists Names, is nil
	// or index for index with Names: the certificate hash the client
	// holds that element's bytes under, or zero for an element it holds
	// no bytes of. The replica answers a slot whose hash is its own
	// entry's with a held item and no bytes — the per-element conditional
	// request of an HTTP If-None-Match — and carries the element
	// otherwise. nil, or all zero, holds nothing.
	Held [][globeid.Size]byte
	// At is the client's clock reading. The reply carries only elements
	// whose certificate entry is fresh at At, so a certificate that has
	// lapsed for the client moves no element bytes; the zero time carries
	// them whatever their validity.
	At time.Time
}

// Bind request flags.
const (
	bindNameCerts = 1 << iota
	bindAll
	bindHave
	bindHeld
)

// EncodeBindRequest encodes an obj.bind request.
func EncodeBindRequest(req BindRequest) []byte {
	holds := holdsAny(req.Held)
	size := 2*globeid.Size + len(req.FromSite) + 24 + 16*len(req.Names)
	if holds {
		size += globeid.Size * len(req.Names)
	}
	w := enc.NewWriter(size)
	w.Raw(req.OID[:])
	w.String(req.FromSite)
	var flags byte
	if req.NameCerts {
		flags |= bindNameCerts
	}
	if req.All {
		flags |= bindAll
	}
	if req.Have != ([globeid.Size]byte{}) {
		flags |= bindHave
	}
	if holds {
		flags |= bindHeld
	}
	w.Byte(flags)
	if flags&bindHave != 0 {
		w.Raw(req.Have[:])
	}
	w.Time(req.At)
	w.Uvarint(uint64(len(req.Names)))
	for i, n := range req.Names {
		w.String(n)
		if holds {
			w.Raw(req.Held[i][:])
		}
	}
	return w.Bytes()
}

// holdsAny reports whether held names any hash.
func holdsAny(held [][globeid.Size]byte) bool {
	for _, h := range held {
		if h != ([globeid.Size]byte{}) {
			return true
		}
	}
	return false
}

// DecodeBindRequest decodes an obj.bind request. It refuses unknown flag
// bits, a request for all elements that also lists names, a held
// certificate named by the zero hash and one with a request for name
// certificates, and held element hashes on a request that has no
// certificate or holds no element (a request for all elements lists
// none), so every accepted request has one encoding.
func DecodeBindRequest(body []byte) (BindRequest, error) {
	r := enc.NewReader(body)
	var req BindRequest
	copy(req.OID[:], r.Raw(globeid.Size))
	req.FromSite = r.String()
	flags := r.Byte()
	if flags&bindHave != 0 {
		copy(req.Have[:], r.Raw(globeid.Size))
	}
	req.At = r.Time()
	itemLen := 1 // a name's length
	if flags&bindHeld != 0 {
		itemLen += globeid.Size
	}
	n := r.Count(itemLen)
	switch {
	case flags&^(bindNameCerts|bindAll|bindHave|bindHeld) != 0:
		return BindRequest{}, fmt.Errorf("%w: unknown bind flags %#x", ErrBadPayload, flags)
	case n > maxBatchNames:
		return BindRequest{}, fmt.Errorf("%w: implausible batch size %d", ErrBadPayload, n)
	case flags&bindAll != 0 && n > 0:
		return BindRequest{}, fmt.Errorf("%w: bind asks for all elements and lists %d", ErrBadPayload, n)
	case flags&bindHave != 0 && (req.Have == [globeid.Size]byte{} || flags&bindNameCerts != 0):
		return BindRequest{}, fmt.Errorf("%w: bind holds a certificate with flags %#x", ErrBadPayload, flags)
	case flags&bindHeld != 0 && flags&bindHave == 0:
		return BindRequest{}, fmt.Errorf("%w: bind holds elements with flags %#x", ErrBadPayload, flags)
	}
	req.NameCerts, req.All = flags&bindNameCerts != 0, flags&bindAll != 0
	if n > 0 {
		req.Names = make([]string, 0, n)
	}
	if flags&bindHeld != 0 {
		req.Held = make([][globeid.Size]byte, n)
	}
	for i := uint64(0); i < n; i++ {
		req.Names = append(req.Names, r.String())
		if req.Held != nil {
			copy(req.Held[i][:], r.Raw(globeid.Size))
		}
	}
	if err := r.Finish(); err != nil {
		return BindRequest{}, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	if req.Held != nil && !holdsAny(req.Held) {
		return BindRequest{}, fmt.Errorf("%w: bind holds elements under no hash", ErrBadPayload)
	}
	return req, nil
}

// BindReply is a decoded obj.bind reply. Every section is the replica's
// unverified claim and aliases the reply body, as batch elements do (see
// DecodeElementsResponse).
type BindReply struct {
	Key       []byte      // the object key, as keys.PublicKey.Marshal encodes it; empty when the request had a certificate
	NameCerts []byte      // the identity certificates, as EncodeCertList encodes them; empty unless asked for
	Cert      []byte      // the integrity certificate, as its Marshal encodes it; empty when it is the one the request had
	Items     []BatchItem // the element batch, as in a GetElements reply
	// Size is the length of the reply body, which every section and
	// element keeps alive: against the element bytes the reply carried
	// it tells whether the elements fill the frame, and so whether a
	// cache may keep them where they lie, once per reply.
	Size int
}

// EncodeBindReply encodes an obj.bind reply from already-encoded
// sections: the key, name-certificate list and integrity certificate
// first, then the batch in EncodeElementsResponse's item format. The
// layout is also the one encoding of a replica's state (DESIGN.md §12,
// "Replica state layout"), which obj.getdelta and the admin bundle carry.
func EncodeBindReply(key, nameCerts, icert []byte, items []BatchWireItem) []byte {
	return joined(BindReplyBuffers(nil, key, nameCerts, icert, items))
}

// BindReplyBuffers is EncodeBindReply's encoding after head, as buffers
// whose concatenation is head followed by the reply: head and the
// sections are copied, the elements referenced (see appendItems).
func BindReplyBuffers(head, key, nameCerts, icert []byte, items []BatchWireItem) [][]byte {
	w := enc.NewWriter(len(head) + 3*binary.MaxVarintLen64 + len(key) + len(nameCerts) + len(icert) + itemsSize(items))
	w.Raw(head)
	w.BytesPrefixed(key)
	w.BytesPrefixed(nameCerts)
	w.BytesPrefixed(icert)
	return appendItems(w, items)
}

// DecodeBindReply decodes an obj.bind reply. It checks the encoding only;
// whether the sections are what the request asked for is the caller's
// check (Client.Bind makes it).
func DecodeBindReply(body []byte) (BindReply, error) {
	r := enc.NewReader(body)
	reply := BindReply{Key: r.BytesPrefixed(), NameCerts: r.BytesPrefixed(), Cert: r.BytesPrefixed()}
	items, err := readItems(r)
	if err != nil {
		return BindReply{}, err
	}
	if err := r.Finish(); err != nil {
		return BindReply{}, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	reply.Items, reply.Size = items, len(body)
	return reply, nil
}

// EncodeCertList encodes a list of name certificates.
func EncodeCertList(certs []*cert.NameCertificate) []byte {
	w := enc.NewWriter(256)
	w.Uvarint(uint64(len(certs)))
	for _, nc := range certs {
		w.BytesPrefixed(nc.Marshal())
	}
	return w.Bytes()
}

// DecodeCertList decodes a list of name certificates.
func DecodeCertList(body []byte) ([]*cert.NameCertificate, error) {
	r := enc.NewReader(body)
	n := r.Count(1)
	if n > 1024 {
		return nil, fmt.Errorf("%w: implausible certificate count %d", ErrBadPayload, n)
	}
	out := make([]*cert.NameCertificate, 0, n)
	for i := uint64(0); i < n; i++ {
		nc, err := cert.UnmarshalNameCertificate(r.BytesPrefixed())
		if err != nil {
			return nil, err
		}
		out = append(out, nc)
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return out, nil
}

// Client is an object-proxy local representative: the in-process stand-in
// for one GlobeDoc object, forwarding invocations to a replica at a fixed
// contact address.
type Client struct {
	oid  globeid.OID
	addr string
	c    *transport.Client
	// Site, when set, is sent as the placement hint on element reads.
	Site string
}

// NewClient creates a proxy LR for oid talking to the replica at addr,
// connecting with dial. The transport client is labelled with addr so
// every call attempt feeds the per-address replica-health tracker.
func NewClient(oid globeid.OID, addr string, dial transport.DialFunc) *Client {
	tc := transport.NewClient(dial)
	tc.Addr = addr
	return &Client{oid: oid, addr: addr, c: tc}
}

// OID returns the object the proxy is bound to.
func (c *Client) OID() globeid.OID { return c.oid }

// Addr returns the replica contact address the proxy forwards to.
func (c *Client) Addr() string { return c.addr }

// Transport exposes the underlying transport client (for byte counters).
func (c *Client) Transport() *transport.Client { return c.c }

// Close releases the connection.
func (c *Client) Close() { c.c.Close() }

// GetPublicKey fetches the object's public key from the replica. The
// caller MUST verify it against the self-certifying OID.
func (c *Client) GetPublicKey(ctx context.Context) (keys.PublicKey, error) {
	body, err := c.c.Call(ctx, OpGetKey, EncodeOIDRequest(c.oid))
	if err != nil {
		return keys.PublicKey{}, err
	}
	return keys.UnmarshalPublicKey(body)
}

// GetIntegrityCert fetches the object's integrity certificate. The caller
// MUST verify its signature under the (verified) object key.
func (c *Client) GetIntegrityCert(ctx context.Context) (*cert.IntegrityCertificate, error) {
	body, err := c.c.Call(ctx, OpGetCert, EncodeOIDRequest(c.oid))
	if err != nil {
		return nil, err
	}
	return cert.UnmarshalIntegrityCertificate(body)
}

// GetElement fetches one page element's raw content.
func (c *Client) GetElement(ctx context.Context, name string) (document.Element, error) {
	body, err := c.c.Call(ctx, OpGetElement, EncodeElementRequest(c.oid, name, c.Site))
	if err != nil {
		return document.Element{}, err
	}
	return DecodeElement(body)
}

// GetElements fetches many elements' raw content in one exchange,
// returned in request order. A per-item error means the server declined
// that element (unknown name, or the batch outgrew the frame budget).
func (c *Client) GetElements(ctx context.Context, names []string) ([]BatchItem, error) {
	body, err := c.c.Call(ctx, OpGetElements, EncodeElementsRequest(c.oid, names, c.Site))
	if err != nil {
		return nil, err
	}
	items, err := DecodeElementsResponse(body)
	if err != nil {
		return nil, err
	}
	if err := echoes(items, names, nil); err != nil {
		return nil, err
	}
	return items, nil
}

// Bind fetches in one exchange the element batch req asks for with what
// verifies it (see OpBind); req's OID and site hint are the client's own.
// The batch answers req.Names slot by slot, or for req.All every element
// the replica offers, in name order; a per-item error is a decline, as in
// GetElements, and a held item is accepted only on a slot req.Held names
// a hash for. Nothing is verified.
func (c *Client) Bind(ctx context.Context, req BindRequest) (BindReply, error) {
	req.OID, req.FromSite = c.oid, c.Site
	body, err := c.c.Call(ctx, OpBind, EncodeBindRequest(req))
	if err != nil {
		return BindReply{}, err
	}
	reply, err := DecodeBindReply(body)
	if err != nil {
		return BindReply{}, err
	}
	switch {
	case req.Have != [globeid.Size]byte{} && len(reply.Key)+len(reply.NameCerts) > 0:
		err = fmt.Errorf("%w: bind reply to a held certificate carries a key", ErrBadPayload)
	case req.All:
		err = ascending(reply.Items)
	default:
		err = echoes(reply.Items, req.Names, req.Held)
	}
	if err != nil {
		return BindReply{}, err
	}
	return reply, nil
}

// ascending checks that a batch names each element once, in name order,
// and holds none: a request for all elements holds no bytes.
func ascending(items []BatchItem) error {
	for i, it := range items {
		switch {
		case it.Held:
			return fmt.Errorf("%w: batch item %q claims bytes the request did not hold", ErrBadPayload, it.Name)
		case i > 0 && it.Name <= items[i-1].Name:
			return fmt.Errorf("%w: batch item %q follows %q", ErrBadPayload, it.Name, items[i-1].Name)
		}
	}
	return nil
}

// Ping checks liveness of the replica endpoint.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.c.Call(ctx, OpPing, nil)
	return err
}
