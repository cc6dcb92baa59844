package cert

import (
	"errors"
	"fmt"
	"time"

	"globedoc/internal/enc"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
)

// Errors reported by name-certificate verification.
var (
	// ErrUntrustedCA means the certificate's issuer is not in the
	// user's trusted-CA keystore.
	ErrUntrustedCA = errors.New("cert: issuing CA not trusted by user")
	// ErrNameCertInvalid means the certificate signature or contents
	// failed verification.
	ErrNameCertInvalid = errors.New("cert: name certificate invalid")
)

// NameCertificate binds a GlobeDoc object's self-certifying OID to the
// real-world entity in charge of the object, vouched for by a certificate
// authority (paper §3.1.2). The proxy displays Subject to the user in a
// "Certified as:" window when the issuing CA is in the user's trust list.
type NameCertificate struct {
	ObjectID  globeid.OID
	Subject   string // real-world entity, e.g. "Vrije Universiteit Amsterdam"
	Issuer    string // CA name, e.g. "ExampleRoot CA"
	NotBefore time.Time
	Expires   time.Time
	Sig       []byte
}

// nameCertRoom is stack room for a name certificate's signed encoding:
// 38 bytes plus the subject and the issuer.
const nameCertRoom = 192

// appendSigned appends the encoding nc's signature covers to dst: the
// one encoder for signing, checking and marshalling a certificate.
func (nc *NameCertificate) appendSigned(dst []byte) []byte {
	dst = append(dst, nc.ObjectID[:]...)
	dst = enc.AppendString(dst, nc.Subject)
	dst = enc.AppendString(dst, nc.Issuer)
	dst = enc.AppendTime(dst, nc.NotBefore)
	return enc.AppendTime(dst, nc.Expires)
}

// Marshal returns the canonical binary encoding, including the signature.
func (nc *NameCertificate) Marshal() []byte {
	var room [nameCertRoom]byte
	w := enc.NewWriter(256)
	w.BytesPrefixed(nc.appendSigned(room[:0]))
	w.BytesPrefixed(nc.Sig)
	return w.Bytes()
}

// UnmarshalNameCertificate parses an encoding from Marshal.
func UnmarshalNameCertificate(data []byte) (*NameCertificate, error) {
	outer := enc.NewReader(data)
	body := outer.BytesPrefixed()
	sig := outer.BytesPrefixed()
	if err := outer.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	r := enc.NewReader(body)
	var nc NameCertificate
	copy(nc.ObjectID[:], r.Raw(globeid.Size))
	nc.Subject = r.String()
	nc.Issuer = r.String()
	nc.NotBefore = r.Time()
	nc.Expires = r.Time()
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	nc.Sig = append([]byte(nil), sig...)
	return &nc, nil
}

// CA is a certificate authority: a name and a signing key pair. The
// GlobeDoc design deliberately keeps CAs out of the critical integrity
// path — they only vouch for real-world identity, never for content.
type CA struct {
	Name string
	Key  *keys.KeyPair
}

// NewCA creates a CA with a fresh key pair of the given algorithm.
func NewCA(name string, alg keys.Algorithm) (*CA, error) {
	kp, err := keys.Generate(alg)
	if err != nil {
		return nil, err
	}
	return &CA{Name: name, Key: kp}, nil
}

// IssueNameCertificate signs a binding between oid and subject, valid for
// the given interval.
func (ca *CA) IssueNameCertificate(oid globeid.OID, subject string, notBefore, expires time.Time) (*NameCertificate, error) {
	nc := &NameCertificate{
		ObjectID:  oid,
		Subject:   subject,
		Issuer:    ca.Name,
		NotBefore: notBefore,
		Expires:   expires,
	}
	var room [nameCertRoom]byte
	sig, err := ca.Key.Sign(nc.appendSigned(room[:0]))
	if err != nil {
		return nil, fmt.Errorf("cert: CA %q signing: %w", ca.Name, err)
	}
	nc.Sig = sig
	return nc, nil
}

// TrustStore is the set of CAs a user trusts, keyed by CA name. It wraps
// a keystore and implements the user-controlled trust decision of §3.1.2:
// the user, not the system, decides which CAs may vouch for identities.
type TrustStore struct {
	cas *keys.Keystore
}

// NewTrustStore returns an empty trust store.
func NewTrustStore() *TrustStore {
	return &TrustStore{cas: keys.NewKeystore()}
}

// TrustCA adds a CA's public key under its name.
func (ts *TrustStore) TrustCA(name string, pk keys.PublicKey) {
	ts.cas.Add(name, pk)
}

// RevokeCA removes a CA from the trust list.
func (ts *TrustStore) RevokeCA(name string) {
	ts.cas.Remove(name)
}

// TrustedCAs returns the names of all trusted CAs, sorted.
func (ts *TrustStore) TrustedCAs() []string { return ts.cas.Names() }

// Verify checks a name certificate for object oid at time now: the issuer
// must be a trusted CA, the signature must verify under that CA's key,
// the certificate must name oid, and now must be inside the validity
// interval. On success it returns the certified subject name.
func (ts *TrustStore) Verify(nc *NameCertificate, oid globeid.OID, now time.Time) (string, error) {
	caKey, ok := ts.cas.Get(nc.Issuer)
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUntrustedCA, nc.Issuer)
	}
	if nc.ObjectID != oid {
		return "", fmt.Errorf("%w: certificate is for object %s, not %s",
			ErrNameCertInvalid, nc.ObjectID.Short(), oid.Short())
	}
	var room [nameCertRoom]byte
	if err := caKey.Verify(nc.appendSigned(room[:0]), nc.Sig); err != nil {
		return "", fmt.Errorf("%w: bad signature from CA %q", ErrNameCertInvalid, nc.Issuer)
	}
	if !nc.NotBefore.IsZero() && now.Before(nc.NotBefore) {
		return "", fmt.Errorf("%w: not valid before %s", ErrNameCertInvalid, nc.NotBefore)
	}
	if now.After(nc.Expires) {
		return "", fmt.Errorf("%w: expired at %s", ErrNameCertInvalid, nc.Expires)
	}
	return nc.Subject, nil
}

// FirstTrusted scans certificates in order and returns the subject of the
// first one that verifies against the trust store, mirroring the proxy
// behaviour in §3.1.2 ("for the first match found, the proxy displays the
// naming information"). It returns ErrUntrustedCA if none verify.
func (ts *TrustStore) FirstTrusted(certs []*NameCertificate, oid globeid.OID, now time.Time) (string, error) {
	var lastErr error = ErrUntrustedCA
	for _, nc := range certs {
		subject, err := ts.Verify(nc, oid, now)
		if err == nil {
			return subject, nil
		}
		lastErr = err
	}
	return "", fmt.Errorf("cert: no acceptable identity certificate: %w", lastErr)
}
