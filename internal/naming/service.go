package naming

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"globedoc/internal/enc"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// Wire operation names of the naming service.
const (
	OpResolve  = "name.resolve"
	OpRegister = "name.register"
)

// Service exposes an Authority over the GlobeDoc wire protocol.
type Service struct {
	auth *Authority
	srv  *transport.Server
}

// NewService wraps auth in a transport server.
func NewService(auth *Authority) *Service {
	s := &Service{auth: auth, srv: transport.NewServer()}
	s.srv.Handle(OpResolve, s.handleResolve)
	s.srv.Handle(OpRegister, s.handleRegister)
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

// Authority returns the wrapped authority.
func (s *Service) Authority() *Authority { return s.auth }

func marshalDelegation(w *enc.Writer, d *Delegation) {
	w.String(d.Parent)
	w.String(d.Child)
	w.BytesPrefixed(d.ChildKey.Marshal())
	w.Time(d.Issued)
	w.Time(d.Expires)
	w.BytesPrefixed(d.Sig)
}

func unmarshalDelegation(r *enc.Reader) (Delegation, error) {
	var d Delegation
	d.Parent = r.String()
	d.Child = r.String()
	rawKey := r.BytesPrefixed()
	d.Issued = r.Time()
	d.Expires = r.Time()
	d.Sig = append([]byte(nil), r.BytesPrefixed()...)
	if r.Err() != nil {
		return Delegation{}, r.Err()
	}
	pk, err := keys.UnmarshalPublicKey(rawKey)
	if err != nil {
		return Delegation{}, err
	}
	d.ChildKey = pk
	return d, nil
}

func marshalRecord(w *enc.Writer, rec *Record) {
	w.String(rec.Name)
	w.Raw(rec.OID[:])
	w.Time(rec.Issued)
	w.Time(rec.Expires)
	w.BytesPrefixed(rec.Sig)
}

func unmarshalRecord(r *enc.Reader) Record {
	var rec Record
	rec.Name = r.String()
	copy(rec.OID[:], r.Raw(globeid.Size))
	rec.Issued = r.Time()
	rec.Expires = r.Time()
	rec.Sig = append([]byte(nil), r.BytesPrefixed()...)
	return rec
}

// MarshalChain encodes a chain for the wire.
func MarshalChain(chain Chain) []byte {
	w := enc.NewWriter(256)
	w.Uvarint(uint64(len(chain.Delegations)))
	for i := range chain.Delegations {
		marshalDelegation(w, &chain.Delegations[i])
	}
	marshalRecord(w, &chain.Record)
	return w.Bytes()
}

// UnmarshalChain decodes a chain from the wire.
func UnmarshalChain(data []byte) (Chain, error) {
	r := enc.NewReader(data)
	n := r.Uvarint()
	if n > 64 {
		return Chain{}, fmt.Errorf("naming: implausible delegation count %d", n)
	}
	var chain Chain
	for i := uint64(0); i < n; i++ {
		d, err := unmarshalDelegation(r)
		if err != nil {
			return Chain{}, err
		}
		chain.Delegations = append(chain.Delegations, d)
	}
	chain.Record = unmarshalRecord(r)
	if err := r.Finish(); err != nil {
		return Chain{}, err
	}
	return chain, nil
}

func (s *Service) handleResolve(body []byte) ([]byte, error) {
	r := enc.NewReader(body)
	name := r.String()
	if err := r.Finish(); err != nil {
		return nil, err
	}
	chain, err := s.auth.ResolveChain(name)
	if err != nil {
		return nil, err
	}
	return MarshalChain(chain), nil
}

// Register binds name to oid at the naming service c calls. This is the
// administrative path, and nothing authenticates it yet: whoever reaches
// the service can bind any name in a zone it serves.
func Register(ctx context.Context, c *transport.Client, name string, oid globeid.OID) error {
	w := enc.NewWriter(len(name) + globeid.Size + 8)
	w.String(name)
	w.Raw(oid[:])
	_, err := c.Call(ctx, OpRegister, w.Bytes())
	return err
}

func (s *Service) handleRegister(body []byte) ([]byte, error) {
	r := enc.NewReader(body)
	name := r.String()
	var oid globeid.OID
	copy(oid[:], r.Raw(globeid.Size))
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return nil, s.auth.Register(name, oid)
}

// OIDResolver is the client-side view of secure name resolution: anything
// that can turn an object name into a verified OID.
type OIDResolver interface {
	Resolve(ctx context.Context, name string) (globeid.OID, error)
}

// Resolver is a verifying, caching naming-service client. It trusts only
// the root zone key given at construction: every response is validated
// with VerifyChain before being returned or cached, so a malicious naming
// server (or network) can at worst deny service.
type Resolver struct {
	client  *transport.Client
	rootKey keys.PublicKey
	// Now is the clock used for validity checks; tests may replace it.
	Now func() time.Time

	mu    sync.Mutex
	cache map[string]cacheEntry
}

type cacheEntry struct {
	oid     globeid.OID
	expires time.Time
}

// NewResolver returns a resolver that dials the naming service with dial
// and trusts rootKey.
func NewResolver(dial transport.DialFunc, rootKey keys.PublicKey) *Resolver {
	return &Resolver{
		client:  transport.NewClient(dial),
		rootKey: rootKey,
		Now:     time.Now,
		cache:   make(map[string]cacheEntry),
	}
}

// Close releases the pooled connection.
func (r *Resolver) Close() { r.client.Close() }

// Configure applies transport timeouts and retry policy to the
// underlying RPC client and returns r for chaining.
func (r *Resolver) Configure(cfg transport.Config) *Resolver {
	r.client.Configure(cfg)
	return r
}

// Transport exposes the underlying RPC client, for callers that issue
// naming operations other than Resolve over it.
func (r *Resolver) Transport() *transport.Client { return r.client }

// Resolve returns the verified OID bound to name, consulting the cache
// first.
func (r *Resolver) Resolve(ctx context.Context, name string) (globeid.OID, error) {
	now := r.Now()
	r.mu.Lock()
	if e, ok := r.cache[name]; ok && now.Before(e.expires) {
		r.mu.Unlock()
		return e.oid, nil
	}
	r.mu.Unlock()

	w := enc.NewWriter(len(name) + 8)
	w.String(name)
	body, err := r.client.Call(ctx, OpResolve, w.Bytes())
	if err != nil {
		return globeid.Zero, err
	}
	chain, err := UnmarshalChain(body)
	if err != nil {
		return globeid.Zero, err
	}
	oid, err := VerifyChain(chain, name, r.rootKey, now)
	if err != nil {
		return globeid.Zero, err
	}
	r.mu.Lock()
	r.cache[name] = cacheEntry{oid: oid, expires: chain.Record.Expires}
	r.mu.Unlock()
	return oid, nil
}

// FlushCache empties the resolver cache (used by cold-path benchmarks).
func (r *Resolver) FlushCache() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cache = make(map[string]cacheEntry)
}

var _ OIDResolver = (*Resolver)(nil)
