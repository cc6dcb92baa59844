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
// the connection the proxy's calls will use and writes nothing on it.
// The proxy's first call negotiates the protocol version on that
// connection, its request riding behind the preamble, so a replica is
// proved alive by its first answer — the only exchange a cold bind has.
func (b *Binder) Connect(ctx context.Context, oid globeid.OID, addr string) (*Client, error) {
	client := NewClient(oid, addr, b.Dial(addr))
	client.Transport().Configure(b.Transport)
	if err := client.Transport().Open(ctx); err != nil {
		client.Close()
		return nil, err
	}
	return client, nil
}
