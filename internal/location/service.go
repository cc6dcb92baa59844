package location

import (
	"context"
	"fmt"
	"net"

	"globedoc/internal/enc"
	"globedoc/internal/globeid"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// Wire operation names of the location service.
//
// OpLookup2 is the one lookup: its response carries each address with
// its metadata (zone label, advertised weight). OpInsert carries the
// plain address encoding (ContactAddress.Marshal); the tree fills in the
// zone at insert.
const (
	OpInsert  = "loc.insert"
	OpLookup2 = "loc.lookup2"
)

// Resolver is the client-side view of the location service: anything that
// can turn an OID into contact addresses. The in-process Tree, the remote
// Client, and the adversarial wrappers in internal/attack all implement it.
type Resolver interface {
	// Lookup returns contact addresses for oid, nearest-first relative
	// to fromSite. Implementations that do no I/O may ignore ctx.
	Lookup(ctx context.Context, fromSite string, oid globeid.OID) (LookupResult, error)
}

var (
	_ Resolver = (*Tree)(nil)
	_ Resolver = (*Client)(nil)
)

// Service exposes a Tree over the GlobeDoc wire protocol.
type Service struct {
	tree *Tree
	srv  *transport.Server
}

// NewService wraps tree in a transport server.
func NewService(tree *Tree) *Service {
	s := &Service{tree: tree, srv: transport.NewServer()}
	s.srv.Handle(OpInsert, s.handleInsert)
	s.srv.Handle(OpLookup2, s.handleLookup2)
	return s
}

// Serve accepts connections on l until closed.
func (s *Service) Serve(l net.Listener) error { return s.srv.Serve(l) }

// Start serves on a background goroutine.
func (s *Service) Start(l net.Listener) { s.srv.Start(l) }

// Close shuts the service down.
func (s *Service) Close() { s.srv.Close() }

// SetTelemetry wires the transport layer's per-RPC spans and
// rpc_served_total counters to tel. Call before Start/Serve.
func (s *Service) SetTelemetry(tel *telemetry.Telemetry) { s.srv.Telemetry = tel }

// Tree returns the underlying search tree (used by administrative tools
// co-located with the service).
func (s *Service) Tree() *Tree { return s.tree }

func encodeSiteOIDAddr(site string, oid globeid.OID, addr ContactAddress) []byte {
	w := enc.NewWriter(64)
	w.String(site)
	w.Raw(oid[:])
	addr.Marshal(w)
	return w.Bytes()
}

func decodeSiteOIDAddr(body []byte) (string, globeid.OID, ContactAddress, error) {
	r := enc.NewReader(body)
	site := r.String()
	var oid globeid.OID
	copy(oid[:], r.Raw(globeid.Size))
	addr := UnmarshalContactAddress(r)
	if err := r.Finish(); err != nil {
		return "", globeid.Zero, ContactAddress{}, err
	}
	return site, oid, addr, nil
}

func (s *Service) handleInsert(body []byte) ([]byte, error) {
	site, oid, addr, err := decodeSiteOIDAddr(body)
	if err != nil {
		return nil, err
	}
	return nil, s.tree.Insert(site, oid, addr)
}

// encodeLookupResultExt is the OpLookup2 response body: the rings the
// lookup climbed, then each address with its metadata.
func encodeLookupResultExt(res LookupResult) []byte {
	w := enc.NewWriter(64)
	w.Uvarint(uint64(res.Rings))
	w.Uvarint(uint64(len(res.Addresses)))
	for _, a := range res.Addresses {
		a.MarshalExt(w)
	}
	return w.Bytes()
}

func decodeLookupResultExt(body []byte) (LookupResult, error) {
	r := enc.NewReader(body)
	var res LookupResult
	res.Rings = int(r.Uvarint())
	n := r.Count(4) // an address is at least three string lengths and a weight
	if n > 1<<16 {
		return LookupResult{}, fmt.Errorf("location: implausible address count %d", n)
	}
	if n > 0 {
		res.Addresses = make([]ContactAddress, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		res.Addresses = append(res.Addresses, UnmarshalContactAddressExt(r))
	}
	if err := r.Finish(); err != nil {
		return LookupResult{}, err
	}
	return res, nil
}

func (s *Service) lookup(body []byte) (LookupResult, error) {
	r := enc.NewReader(body)
	site := r.String()
	var oid globeid.OID
	copy(oid[:], r.Raw(globeid.Size))
	if err := r.Finish(); err != nil {
		return LookupResult{}, err
	}
	//lint:ignore ctxfirst the transport handler boundary carries no request context; per-request cancellation would need a wire protocol change
	return s.tree.Lookup(context.Background(), site, oid)
}

func (s *Service) handleLookup2(body []byte) ([]byte, error) {
	res, err := s.lookup(body)
	if err != nil {
		return nil, err
	}
	return encodeLookupResultExt(res), nil
}

// Client is a typed client for a remote location service.
type Client struct {
	c *transport.Client
}

// NewClient returns a client that dials the service with dial.
func NewClient(dial transport.DialFunc) *Client {
	return &Client{c: transport.NewClient(dial)}
}

// Close releases the pooled connection.
func (c *Client) Close() { c.c.Close() }

// Configure applies transport timeouts and retry policy to the
// underlying RPC client and returns c for chaining.
func (c *Client) Configure(cfg transport.Config) *Client {
	c.c.Configure(cfg)
	return c
}

// Transport exposes the underlying RPC client so callers can inspect
// retry counters or tune it directly.
func (c *Client) Transport() *transport.Client { return c.c }

// Insert records addr for oid at site.
func (c *Client) Insert(ctx context.Context, site string, oid globeid.OID, addr ContactAddress) error {
	_, err := c.c.Call(ctx, OpInsert, encodeSiteOIDAddr(site, oid, addr))
	return err
}

// Lookup finds contact addresses for oid, nearest-first from fromSite,
// each with its zone and weight metadata.
func (c *Client) Lookup(ctx context.Context, fromSite string, oid globeid.OID) (LookupResult, error) {
	w := enc.NewWriter(64)
	w.String(fromSite)
	w.Raw(oid[:])
	body, err := c.c.Call(ctx, OpLookup2, w.Bytes())
	if err != nil {
		return LookupResult{}, err
	}
	return decodeLookupResultExt(body)
}
