// Package naming implements the GlobeDoc secure naming service (paper
// §2.1.1 and §3.1.2).
//
// The naming service maps human-readable object names onto OIDs. Because
// GlobeDoc OIDs are self-certifying (SHA-1 of the object public key) and
// contain no location information, the naming service stores only
// location-independent data — exactly the property that lets a
// DNSsec-like design track massively replicated objects whose replica
// addresses change frequently (the location-dependent step is delegated
// to the location service).
//
// The design mirrors DNSsec: names are dot-separated
// ("home.science.vu.nl"); authority over a name space is divided into
// zones, each holding a key pair; a parent zone signs delegations of
// child zones (name + child zone key), and the owning zone signs resource
// records binding a name to an OID. A resolver that knows only the root
// zone's public key verifies the whole chain, so a compromised naming
// server can at worst deny service — it cannot forge a binding.
package naming

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"globedoc/internal/enc"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
)

// Errors reported by the naming service.
var (
	ErrNoSuchName    = errors.New("naming: name not registered")
	ErrNoSuchZone    = errors.New("naming: zone does not exist")
	ErrZoneExists    = errors.New("naming: zone already exists")
	ErrBadName       = errors.New("naming: malformed name")
	ErrChainInvalid  = errors.New("naming: delegation chain does not verify")
	ErrRecordInvalid = errors.New("naming: resource record does not verify")
	ErrExpired       = errors.New("naming: record or delegation expired")
)

// Root is the name of the root zone.
const Root = "."

// Record binds an object name to its self-certifying OID, signed by the
// owning zone's key. It is the DNSsec resource record of §3.1.2 with the
// OID stored "instead of IP-addresses".
type Record struct {
	Name    string
	OID     globeid.OID
	Issued  time.Time
	Expires time.Time
	Sig     []byte
}

// recordRoom is stack room for a record's signed encoding: 58 bytes
// plus the name.
const recordRoom = 128

// appendSigned appends the encoding rec's signature covers to dst: the
// one encoder for signing and checking a record.
func (rec *Record) appendSigned(dst []byte) []byte {
	dst = enc.AppendString(dst, "globedoc-name-record")
	dst = enc.AppendString(dst, rec.Name)
	dst = append(dst, rec.OID[:]...)
	dst = enc.AppendTime(dst, rec.Issued)
	return enc.AppendTime(dst, rec.Expires)
}

// Delegation transfers authority over child from parent: the parent
// zone's key signs the child zone's name and public key.
type Delegation struct {
	Parent   string
	Child    string
	ChildKey keys.PublicKey
	Issued   time.Time
	Expires  time.Time
	Sig      []byte
}

// delegationRoom is stack room for a delegation's signed encoding: 43
// bytes plus the zone names and the child's prefixed key, under 300
// bytes for RSA-2048.
const delegationRoom = 512

// appendSigned appends the encoding d's signature covers to dst: the one
// encoder for signing and checking a delegation.
func (d *Delegation) appendSigned(dst []byte) []byte {
	dst = enc.AppendString(dst, "globedoc-name-delegation")
	dst = enc.AppendString(dst, d.Parent)
	dst = enc.AppendString(dst, d.Child)
	dst = enc.AppendBytesPrefixed(dst, d.ChildKey.Marshal())
	dst = enc.AppendTime(dst, d.Issued)
	return enc.AppendTime(dst, d.Expires)
}

// Chain is everything a resolver needs to validate one name binding:
// the delegations from the root zone down to the owning zone, in order,
// followed by the signed record itself.
type Chain struct {
	Delegations []Delegation
	Record      Record
}

// zone is one unit of naming authority.
type zone struct {
	name       string
	key        *keys.KeyPair
	parent     *zone
	delegation *Delegation // signed by parent; nil for the root
	records    map[string]*Record
	children   map[string]*zone
}

// Authority is the authoritative store of zones and records — the server
// side of the naming service. It is safe for concurrent use.
type Authority struct {
	mu    sync.RWMutex
	root  *zone
	zones map[string]*zone
	alg   keys.Algorithm
	// Now is the clock used when issuing records; tests may replace it.
	Now func() time.Time
	// DelegationTTL and RecordTTL bound the validity of issued
	// signatures.
	DelegationTTL time.Duration
	RecordTTL     time.Duration
}

// NewAuthority creates an authority with a fresh root zone key of the
// given algorithm.
func NewAuthority(alg keys.Algorithm) (*Authority, error) {
	rootKey, err := keys.Generate(alg)
	if err != nil {
		return nil, err
	}
	root := &zone{
		name:     Root,
		key:      rootKey,
		records:  make(map[string]*Record),
		children: make(map[string]*zone),
	}
	return &Authority{
		root:          root,
		zones:         map[string]*zone{Root: root},
		alg:           alg,
		Now:           time.Now,
		DelegationTTL: 30 * 24 * time.Hour,
		RecordTTL:     24 * time.Hour,
	}, nil
}

// RootKey returns the root zone's public key — the resolver's single
// trust anchor.
func (a *Authority) RootKey() keys.PublicKey {
	return a.root.key.Public()
}

// ValidateName checks that name is a well-formed dot-separated name.
func ValidateName(name string) error {
	if name == "" || name == Root {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	for _, label := range strings.Split(name, ".") {
		if label == "" {
			return fmt.Errorf("%w: empty label in %q", ErrBadName, name)
		}
	}
	return nil
}

// CreateZone carves the name space zoneName out of parentZone, generating
// a fresh zone key and a delegation signed by the parent. parentZone must
// already exist (use naming.Root for top-level zones), and zoneName must
// be a strict dot-suffix extension of the parent (e.g. parent "nl", child
// "vu.nl") unless the parent is the root.
func (a *Authority) CreateZone(parentZone, zoneName string) error {
	if err := ValidateName(zoneName); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	parent, ok := a.zones[parentZone]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchZone, parentZone)
	}
	if _, exists := a.zones[zoneName]; exists {
		return fmt.Errorf("%w: %q", ErrZoneExists, zoneName)
	}
	if parent.name != Root && !strings.HasSuffix(zoneName, "."+parent.name) {
		return fmt.Errorf("%w: %q is not inside zone %q", ErrBadName, zoneName, parent.name)
	}
	key, err := keys.Generate(a.alg)
	if err != nil {
		return err
	}
	now := a.Now()
	d := &Delegation{
		Parent:   parent.name,
		Child:    zoneName,
		ChildKey: key.Public(),
		Issued:   now,
		Expires:  now.Add(a.DelegationTTL),
	}
	var room [delegationRoom]byte
	sig, err := parent.key.Sign(d.appendSigned(room[:0]))
	if err != nil {
		return err
	}
	d.Sig = sig
	z := &zone{
		name:       zoneName,
		key:        key,
		parent:     parent,
		delegation: d,
		records:    make(map[string]*Record),
		children:   make(map[string]*zone),
	}
	parent.children[zoneName] = z
	a.zones[zoneName] = z
	return nil
}

// Zones returns the sorted names of all zones, including the root.
func (a *Authority) Zones() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	names := make([]string, 0, len(a.zones))
	for name := range a.zones {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// owningZoneLocked returns the registered zone with the longest dot-suffix
// match for name, falling back to the root.
func (a *Authority) owningZoneLocked(name string) *zone {
	best := a.root
	for zoneName, z := range a.zones {
		if zoneName == Root {
			continue
		}
		if name == zoneName || strings.HasSuffix(name, "."+zoneName) {
			if best == a.root || len(zoneName) > len(best.name) {
				best = z
			}
		}
	}
	return best
}

// Register binds name to oid in its owning zone, signing a fresh record.
// Re-registering a name replaces its record (and can change the OID —
// names are mutable bindings; OIDs are the immutable identities).
func (a *Authority) Register(name string, oid globeid.OID) error {
	if err := ValidateName(name); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	z := a.owningZoneLocked(name)
	now := a.Now()
	rec := &Record{Name: name, OID: oid, Issued: now, Expires: now.Add(a.RecordTTL)}
	var room [recordRoom]byte
	sig, err := z.key.Sign(rec.appendSigned(room[:0]))
	if err != nil {
		return err
	}
	rec.Sig = sig
	z.records[name] = rec
	return nil
}

// Unregister removes the binding for name.
func (a *Authority) Unregister(name string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	z := a.owningZoneLocked(name)
	if _, ok := z.records[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchName, name)
	}
	delete(z.records, name)
	return nil
}

// ResolveChain returns the verifiable chain for name: delegations from
// the root to the owning zone, then the signed record.
func (a *Authority) ResolveChain(name string) (Chain, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	z := a.owningZoneLocked(name)
	rec, ok := z.records[name]
	if !ok {
		return Chain{}, fmt.Errorf("%w: %q", ErrNoSuchName, name)
	}
	var dels []Delegation
	for cur := z; cur.delegation != nil; cur = cur.parent {
		dels = append(dels, *cur.delegation)
	}
	// Reverse into root-first order.
	for i, j := 0, len(dels)-1; i < j; i, j = i+1, j-1 {
		dels[i], dels[j] = dels[j], dels[i]
	}
	return Chain{Delegations: dels, Record: *rec}, nil
}

// VerifyChain validates a chain against the root trust anchor at time
// now, returning the bound OID. This is the client-side check: it
// succeeds only if every delegation signature, the record signature, the
// zone nesting, the queried name, and all validity intervals are good.
func VerifyChain(chain Chain, name string, rootKey keys.PublicKey, now time.Time) (globeid.OID, error) {
	key := rootKey
	zoneName := Root
	for i := range chain.Delegations {
		d := &chain.Delegations[i]
		if d.Parent != zoneName {
			return globeid.Zero, fmt.Errorf("%w: delegation parent %q, expected %q",
				ErrChainInvalid, d.Parent, zoneName)
		}
		if zoneName != Root && d.Child != zoneName && !strings.HasSuffix(d.Child, "."+zoneName) {
			return globeid.Zero, fmt.Errorf("%w: zone %q not inside %q",
				ErrChainInvalid, d.Child, zoneName)
		}
		var room [delegationRoom]byte
		if err := key.Verify(d.appendSigned(room[:0]), d.Sig); err != nil {
			return globeid.Zero, fmt.Errorf("%w: bad signature on delegation of %q",
				ErrChainInvalid, d.Child)
		}
		if now.After(d.Expires) || now.Before(d.Issued) {
			return globeid.Zero, fmt.Errorf("%w: delegation of %q", ErrExpired, d.Child)
		}
		key = d.ChildKey
		zoneName = d.Child
	}
	rec := &chain.Record
	if rec.Name != name {
		return globeid.Zero, fmt.Errorf("%w: record is for %q, asked for %q",
			ErrRecordInvalid, rec.Name, name)
	}
	if zoneName != Root && rec.Name != zoneName && !strings.HasSuffix(rec.Name, "."+zoneName) {
		return globeid.Zero, fmt.Errorf("%w: record %q outside zone %q",
			ErrRecordInvalid, rec.Name, zoneName)
	}
	var room [recordRoom]byte
	if err := key.Verify(rec.appendSigned(room[:0]), rec.Sig); err != nil {
		return globeid.Zero, fmt.Errorf("%w: bad signature on record %q", ErrRecordInvalid, name)
	}
	if now.After(rec.Expires) || now.Before(rec.Issued) {
		return globeid.Zero, fmt.Errorf("%w: record %q", ErrExpired, name)
	}
	return rec.OID, nil
}
