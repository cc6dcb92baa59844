package object

import (
	"context"
	"fmt"

	"globedoc/internal/globeid"
	"globedoc/internal/location"
	"globedoc/internal/naming"
	"globedoc/internal/transport"
)

// DialTo opens a connection to a named address. The network simulator's
// Dialer and plain TCP dialing both adapt to this shape.
type DialTo func(addr string) transport.DialFunc

// Binder implements Globe's two-phase binding (paper §2.1, Fig. 1):
// finding the object (name lookup then location lookup) and installing a
// local representative (selecting a contact address and connecting a
// proxy to it).
type Binder struct {
	// Names resolves object names to OIDs.
	Names naming.OIDResolver
	// Locator resolves OIDs to contact addresses.
	Locator location.Resolver
	// Dial connects to a contact address.
	Dial DialTo
	// Site is the client's site, the origin of expanding-ring lookups.
	Site string
	// MaxCandidates bounds how many returned addresses are tried before
	// giving up (0 = try all).
	MaxCandidates int
	// Transport carries dial/call timeouts and the retry policy applied
	// to every replica connection this binder installs. The zero value
	// keeps the historical no-deadline behaviour.
	Transport transport.Config
}

// Binding is the outcome of a successful bind: the resolved identity and
// an installed proxy LR.
type Binding struct {
	Name   string
	OID    globeid.OID
	Addr   string
	Client *Client
	// Rings is the locality of the location lookup (0 = local site).
	Rings int
}

// Close releases the binding's connection.
func (b *Binding) Close() {
	if b.Client != nil {
		b.Client.Close()
	}
}

// Bind resolves name and installs a proxy LR connected to the nearest
// reachable replica.
func (b *Binder) Bind(ctx context.Context, name string) (*Binding, error) {
	oid, err := b.Names.Resolve(ctx, name)
	if err != nil {
		return nil, fmt.Errorf("object: resolving name %q: %w", name, err)
	}
	binding, err := b.BindOID(ctx, oid)
	if err != nil {
		return nil, err
	}
	binding.Name = name
	return binding, nil
}

// Candidates returns the contact addresses for oid, nearest-first and
// filtered to the GlobeDoc protocol, capped at MaxCandidates.
func (b *Binder) Candidates(ctx context.Context, oid globeid.OID) ([]location.ContactAddress, int, error) {
	res, err := b.Locator.Lookup(ctx, b.Site, oid)
	if err != nil {
		return nil, 0, fmt.Errorf("object: locating %s: %w", oid.Short(), err)
	}
	candidates := make([]location.ContactAddress, 0, len(res.Addresses))
	for _, ca := range res.Addresses {
		if ca.Protocol == Protocol {
			candidates = append(candidates, ca)
		}
	}
	if b.MaxCandidates > 0 && len(candidates) > b.MaxCandidates {
		candidates = candidates[:b.MaxCandidates]
	}
	if len(candidates) == 0 {
		return nil, 0, fmt.Errorf("object: no usable replica for %s: %w", oid.Short(), ErrNoReplica)
	}
	return candidates, res.Rings, nil
}

// Connect installs a proxy LR talking to the replica at addr: it dials
// and negotiates the connection the proxy's calls will use, and sends no
// request. A v2 accept already proves the replica alive; a peer that
// speaks only v1 is proved by its first call.
func (b *Binder) Connect(ctx context.Context, oid globeid.OID, addr string) (*Client, error) {
	client := NewClient(oid, addr, b.Dial(addr))
	client.Transport().Configure(b.Transport)
	if err := client.Transport().Open(ctx); err != nil {
		client.Close()
		return nil, err
	}
	return client, nil
}

// BindOID installs a proxy LR for an already-known OID. Addresses are
// tried nearest-first; unreachable replicas are skipped.
func (b *Binder) BindOID(ctx context.Context, oid globeid.OID) (*Binding, error) {
	candidates, rings, err := b.Candidates(ctx, oid)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for _, ca := range candidates {
		client, err := b.Connect(ctx, oid, ca.Address)
		if err != nil {
			lastErr = err
			continue
		}
		return &Binding{OID: oid, Addr: ca.Address, Client: client, Rings: rings}, nil
	}
	if lastErr == nil {
		lastErr = ErrNoReplica
	}
	return nil, fmt.Errorf("object: no usable replica for %s: %w", oid.Short(), lastErr)
}
