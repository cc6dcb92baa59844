package server

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"fmt"

	"globedoc/internal/enc"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/transport"
)

// Administrative wire operations. All admin verbs travel inside a signed
// envelope carried by OpAdmin; OpChallenge hands out the nonce the
// envelope must sign.
const (
	OpChallenge = "adm.challenge"
	OpAdmin     = "adm.exec"
)

// Admin verbs carried inside the signed envelope.
const (
	VerbCreate = "create"
	VerbUpdate = "update"
	VerbDelete = "delete"
	VerbList   = "list"
)

const nonceSize = 32

// handleChallenge issues a single-use nonce for the named principal.
// Anyone may request a challenge; only a principal whose key is in the
// server keystore can turn it into an accepted admin call.
func (s *Server) handleChallenge(body []byte) ([]byte, error) {
	r := enc.NewReader(body)
	principal := r.String()
	if err := r.Finish(); err != nil {
		return nil, err
	}
	if principal == "" {
		return nil, fmt.Errorf("server: empty principal")
	}
	nonce := make([]byte, nonceSize)
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("server: nonce generation: %w", err)
	}
	s.nonceMu.Lock()
	s.nonces[principal] = nonce
	s.nonceMu.Unlock()
	return nonce, nil
}

// adminSignedBytes is the exact byte string an admin envelope signs:
// domain tag, principal, verb, nonce, and a hash of the payload.
func adminSignedBytes(principal, verb string, nonce []byte, payload []byte) []byte {
	digest := sha256.Sum256(payload)
	w := enc.NewWriter(128)
	w.String("globedoc-admin-request")
	w.String(principal)
	w.String(verb)
	w.BytesPrefixed(nonce)
	w.Raw(digest[:])
	return w.Bytes()
}

func encodeAdminEnvelope(principal, verb string, nonce, sig, payload []byte) []byte {
	w := enc.NewWriter(128 + len(payload))
	w.String(principal)
	w.String(verb)
	w.BytesPrefixed(nonce)
	w.BytesPrefixed(sig)
	w.BytesPrefixed(payload)
	return w.Bytes()
}

func decodeAdminEnvelope(body []byte) (principal, verb string, nonce, sig, payload []byte, err error) {
	r := enc.NewReader(body)
	principal = r.String()
	verb = r.String()
	nonce = r.BytesPrefixed()
	sig = r.BytesPrefixed()
	payload = r.BytesPrefixed()
	if ferr := r.Finish(); ferr != nil {
		return "", "", nil, nil, nil, ferr
	}
	return principal, verb, nonce, sig, payload, nil
}

// handleAdmin validates the signed envelope and dispatches the verb.
func (s *Server) handleAdmin(body []byte) ([]byte, error) {
	principal, verb, nonce, sig, payload, err := decodeAdminEnvelope(body)
	if err != nil {
		return nil, err
	}
	pk, ok := s.keystore.Get(principal)
	if !ok {
		return nil, fmt.Errorf("%w: unknown principal %q", ErrAccessDenied, principal)
	}
	s.nonceMu.Lock()
	expected, ok := s.nonces[principal]
	if ok {
		delete(s.nonces, principal) // single use
	}
	s.nonceMu.Unlock()
	if !ok || subtle.ConstantTimeCompare(expected, nonce) != 1 {
		return nil, fmt.Errorf("%w: stale or missing challenge for %q", ErrAccessDenied, principal)
	}
	if err := pk.Verify(adminSignedBytes(principal, verb, nonce, payload), sig); err != nil {
		return nil, fmt.Errorf("%w: bad request signature from %q", ErrAccessDenied, principal)
	}
	switch verb {
	case VerbCreate:
		b, err := UnmarshalBundle(payload)
		if err != nil {
			return nil, err
		}
		return nil, s.Install(b, principal)
	case VerbUpdate:
		b, err := UnmarshalBundle(payload)
		if err != nil {
			return nil, err
		}
		return nil, s.Update(b, principal)
	case VerbDelete:
		oid, err := globeid.FromBytes(payload)
		if err != nil {
			return nil, err
		}
		return nil, s.remove(oid, principal)
	case VerbList:
		oids := s.Hosted()
		w := enc.NewWriter(len(oids)*globeid.Size + 8)
		w.Uvarint(uint64(len(oids)))
		for _, oid := range oids {
			w.Raw(oid[:])
		}
		return w.Bytes(), nil
	default:
		return nil, fmt.Errorf("server: unknown admin verb %q", verb)
	}
}

// AdminClient manages replicas on a remote object server on behalf of a
// principal (an object owner or a peer object server).
type AdminClient struct {
	principal string
	key       *keys.KeyPair
	c         *transport.Client
}

// NewAdminClient returns an admin client authenticating as principal with
// key, connecting via dial.
func NewAdminClient(principal string, key *keys.KeyPair, dial transport.DialFunc) *AdminClient {
	return &AdminClient{principal: principal, key: key, c: transport.NewClient(dial)}
}

// Close releases the connection.
func (a *AdminClient) Close() { a.c.Close() }

// exec performs one challenge–response authenticated verb.
func (a *AdminClient) exec(ctx context.Context, verb string, payload []byte) ([]byte, error) {
	w := enc.NewWriter(len(a.principal) + 8)
	w.String(a.principal)
	nonce, err := a.c.Call(ctx, OpChallenge, w.Bytes())
	if err != nil {
		return nil, fmt.Errorf("server: challenge: %w", err)
	}
	sig, err := a.key.Sign(adminSignedBytes(a.principal, verb, nonce, payload))
	if err != nil {
		return nil, fmt.Errorf("server: signing admin request: %w", err)
	}
	return a.c.Call(ctx, OpAdmin, encodeAdminEnvelope(a.principal, verb, nonce, sig, payload))
}

// CreateReplica installs a bundle on the remote server.
func (a *AdminClient) CreateReplica(ctx context.Context, b *Bundle) error {
	_, err := a.exec(ctx, VerbCreate, b.Marshal())
	return err
}

// UpdateReplica replaces the remote replica's state.
func (a *AdminClient) UpdateReplica(ctx context.Context, b *Bundle) error {
	_, err := a.exec(ctx, VerbUpdate, b.Marshal())
	return err
}

// DeleteReplica destroys the remote replica.
func (a *AdminClient) DeleteReplica(ctx context.Context, oid globeid.OID) error {
	_, err := a.exec(ctx, VerbDelete, oid[:])
	return err
}

// ListReplicas returns the OIDs hosted on the remote server.
func (a *AdminClient) ListReplicas(ctx context.Context) ([]globeid.OID, error) {
	body, err := a.exec(ctx, VerbList, nil)
	if err != nil {
		return nil, err
	}
	r := enc.NewReader(body)
	n := r.Uvarint()
	if n > 1<<20 {
		return nil, fmt.Errorf("server: implausible replica count %d", n)
	}
	oids := make([]globeid.OID, 0, n)
	for i := uint64(0); i < n; i++ {
		var oid globeid.OID
		copy(oid[:], r.Raw(globeid.Size))
		oids = append(oids, oid)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return oids, nil
}
