// Package attack implements the adversaries of the paper's threat model
// (§3.2.1): malicious replica servers that tamper with content, replay
// stale versions, or substitute elements, and a malicious location
// service that directs clients to rogue replicas.
//
// Each adversary is a wire-compatible wrapper: it speaks the genuine
// GlobeDoc protocol, holds genuine (or once-genuine) object state, and
// lies in a specific way. The integration tests and the attacks example
// drive the real security pipeline against them and assert the paper's
// claim: every attack is detected, so untrusted infrastructure can cause
// at most denial of service, never undetected corruption.
package attack

import (
	"context"
	"net"
	"sync"

	"globedoc/internal/cert"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/location"
	"globedoc/internal/object"
	"globedoc/internal/transport"
)

// Mode selects how a malicious replica lies.
type Mode int

// Attack modes.
const (
	// Honest serves genuine state (control case).
	Honest Mode = iota
	// TamperContent flips bytes in every element served.
	TamperContent
	// SubstituteElement answers every element request with a different
	// (genuine, fresh) element of the same object.
	SubstituteElement
	// StaleReplay serves an old version of the state with its old (but
	// genuinely signed) integrity certificate.
	StaleReplay
	// ForgeCertificate rewrites the integrity certificate to match
	// tampered content, re-signing with the attacker's own key.
	ForgeCertificate
	// WrongObject serves a completely different object's state and key
	// (content masquerading).
	WrongObject
)

// String names the mode for logs and reports.
func (m Mode) String() string {
	switch m {
	case Honest:
		return "honest"
	case TamperContent:
		return "tamper-content"
	case SubstituteElement:
		return "substitute-element"
	case StaleReplay:
		return "stale-replay"
	case ForgeCertificate:
		return "forge-certificate"
	case WrongObject:
		return "wrong-object"
	default:
		return "unknown"
	}
}

// AllModes lists every adversarial mode (excluding Honest).
var AllModes = []Mode{TamperContent, SubstituteElement, StaleReplay, ForgeCertificate, WrongObject}

// ReplicaState is the (possibly stale) object state a malicious replica
// serves from.
type ReplicaState struct {
	OID       globeid.OID
	Key       keys.PublicKey
	Doc       *document.Document
	Cert      *cert.IntegrityCertificate
	NameCerts []*cert.NameCertificate
}

// MaliciousServer is a wire-compatible object server that lies according
// to its Mode.
type MaliciousServer struct {
	Mode Mode

	mu     sync.RWMutex
	state  ReplicaState
	stale  *ReplicaState // old state for StaleReplay
	forged *forgedState  // for ForgeCertificate
	decoy  *ReplicaState // for WrongObject
	srv    *transport.Server
	// tamperTarget, when non-empty, restricts TamperContent to that one
	// element: every other element is served genuine. This models the
	// batched-fetch adversary that interleaves a single corrupted element
	// among honest ones inside one bind reply.
	tamperTarget string
}

type forgedState struct {
	key  *keys.KeyPair
	cert *cert.IntegrityCertificate
}

// NewMaliciousServer builds an adversarial replica around genuine state.
func NewMaliciousServer(mode Mode, state ReplicaState) *MaliciousServer {
	m := &MaliciousServer{Mode: mode, state: state, srv: transport.NewServer()}
	m.srv.Handle(object.OpPing, func([]byte) ([]byte, error) { return nil, nil })
	m.srv.Handle(object.OpBind, m.handleBind)
	return m
}

// SetStale gives a StaleReplay server the old state to replay.
func (m *MaliciousServer) SetStale(old ReplicaState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stale = &old
}

// SetTamperTarget restricts TamperContent to one element name; all other
// elements are served genuine. Used to hide a single corrupted element
// inside an otherwise-honest batch response.
func (m *MaliciousServer) SetTamperTarget(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tamperTarget = name
}

// SetDecoy gives a WrongObject server the foreign object to masquerade
// with.
func (m *MaliciousServer) SetDecoy(decoy ReplicaState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.decoy = &decoy
}

// SetForgery equips a ForgeCertificate server with the attacker's key and
// a certificate covering the tampered content, signed by that key.
func (m *MaliciousServer) SetForgery(attackerKey *keys.KeyPair, forgedCert *cert.IntegrityCertificate) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.forged = &forgedState{key: attackerKey, cert: forgedCert}
}

// Serve accepts connections on l.
func (m *MaliciousServer) Serve(l net.Listener) error { return m.srv.Serve(l) }

// Start serves on a background goroutine.
func (m *MaliciousServer) Start(l net.Listener) { m.srv.Start(l) }

// Close shuts the server down.
func (m *MaliciousServer) Close() { m.srv.Close() }

func (m *MaliciousServer) current() ReplicaState {
	m.mu.RLock()
	defer m.mu.RUnlock()
	switch m.Mode {
	case StaleReplay:
		if m.stale != nil {
			return *m.stale
		}
	case WrongObject:
		if m.decoy != nil {
			return *m.decoy
		}
	}
	return m.state
}

// elementWire serves one element through the mode's lie, so every
// element a batch carries is corrupted as it would be alone.
func (m *MaliciousServer) elementWire(name string) ([]byte, error) {
	st := m.current()
	m.mu.RLock()
	target := m.tamperTarget
	m.mu.RUnlock()
	switch m.Mode {
	case TamperContent, ForgeCertificate:
		e, err := st.Doc.Get(name)
		if err != nil {
			return nil, err
		}
		if target == "" || target == name {
			e.Data = tamper(e.Data)
		}
		return object.EncodeElement(e), nil
	case SubstituteElement:
		// Serve some OTHER genuine element under the requested name.
		for _, other := range st.Doc.Names() {
			if other != name {
				e, err := st.Doc.Get(other)
				if err != nil {
					return nil, err
				}
				e.Name = name // lie about which element this is
				return object.EncodeElement(e), nil
			}
		}
		fallthrough
	default:
		e, err := st.Doc.Get(name)
		if err != nil {
			return nil, err
		}
		return object.EncodeElement(e), nil
	}
}

// tamper returns data with its first byte flipped, or one byte if empty.
func tamper(data []byte) []byte {
	if len(data) == 0 {
		return []byte{0x66}
	}
	out := append([]byte(nil), data...)
	out[0] ^= 0xff
	return out
}

// handleBind answers obj.bind, the one request a victim sends, with the
// mode's lies: a forger's own key and certificate, a replay's or decoy's
// state, and a batch of elementWire's elements. A warm request, which
// names the certificate it holds, gets the protocol's short answer: no
// key, and the certificate only when it is another one. A liar owes no
// honesty about freshness, so the request's clock reading is ignored.
func (m *MaliciousServer) handleBind(body []byte) ([]byte, error) {
	req, err := object.DecodeBindRequest(body)
	if err != nil {
		return nil, err
	}
	st := m.current()
	key, icert := st.Key.Marshal(), st.Cert.Marshal()
	m.mu.RLock()
	if m.Mode == ForgeCertificate && m.forged != nil {
		// The forger offers its own key too, hoping the client skips
		// self-certification.
		key, icert = m.forged.key.Public().Marshal(), m.forged.cert.Marshal()
	}
	m.mu.RUnlock()
	var nameCerts []byte
	if req.NameCerts {
		nameCerts = object.EncodeCertList(st.NameCerts)
	}
	if req.Have != ([globeid.Size]byte{}) {
		key = nil
		if globeid.HashElement(icert) == req.Have {
			icert = nil
		}
	}
	names := req.Names
	if req.All {
		names = st.Doc.Names()
	}
	return object.EncodeBindReply(key, nameCerts, icert, m.batch(names)), nil
}

// batch answers names with elementWire's lies, declining what it cannot
// serve.
func (m *MaliciousServer) batch(names []string) []object.BatchWireItem {
	items := make([]object.BatchWireItem, 0, len(names))
	for _, name := range names {
		it := object.BatchWireItem{Name: name}
		wire, err := m.elementWire(name)
		if err != nil {
			it.ErrMsg = err.Error()
		} else {
			it.Wire = wire
		}
		items = append(items, it)
	}
	return items
}

// MaliciousLocation wraps a genuine location resolver and redirects every
// lookup to a fixed rogue address — the "malicious Location Service
// server returning false contact points" of §3.1.2.
type MaliciousLocation struct {
	// Rogue is the contact address handed to every client.
	Rogue location.ContactAddress
}

// Lookup implements location.Resolver by lying.
func (m MaliciousLocation) Lookup(_ context.Context, fromSite string, oid globeid.OID) (location.LookupResult, error) {
	return location.LookupResult{Addresses: []location.ContactAddress{m.Rogue}}, nil
}

var _ location.Resolver = MaliciousLocation{}

// ReorderLocation wraps a genuine location resolver and manipulates
// everything the replica Selector consumes instead of hiding the real
// replicas outright: it prepends rogue contact addresses dressed in
// forged advisory metadata (the client's own zone, a huge capacity
// weight), strips the genuine addresses of their metadata, and reverses
// their proximity order. A selector that trusted this advice blindly
// would bind the rogue first and the farthest genuine replica next.
//
// The security argument (§3.1.2, restated for the selection API): zone,
// weight and ordering are routing ADVICE, consumed only by the selector
// to pick a trial order. Every candidate still runs the full
// verification pipeline, so a lying location service can waste the
// client's time on rogues and far replicas — denial of service — but can
// never make a fetch return unverified bytes.
type ReorderLocation struct {
	// Genuine produces the real lookup results to corrupt.
	Genuine location.Resolver
	// Rogue addresses are prepended to every result.
	Rogue []location.ContactAddress
	// ForgeZone and ForgeWeight are stamped onto every rogue address to
	// make it maximally attractive to a zone-aware selector.
	ForgeZone   string
	ForgeWeight uint32
}

// Lookup implements location.Resolver by corrupting the genuine result.
func (m ReorderLocation) Lookup(ctx context.Context, fromSite string, oid globeid.OID) (location.LookupResult, error) {
	res, err := m.Genuine.Lookup(ctx, fromSite, oid)
	if err != nil {
		return res, err
	}
	out := make([]location.ContactAddress, 0, len(m.Rogue)+len(res.Addresses))
	for _, r := range m.Rogue {
		r.Zone = m.ForgeZone
		r.Weight = m.ForgeWeight
		out = append(out, r)
	}
	for i := len(res.Addresses) - 1; i >= 0; i-- {
		a := res.Addresses[i]
		a.Zone = ""
		a.Weight = 0
		out = append(out, a)
	}
	res.Addresses = out
	return res, nil
}

var _ location.Resolver = ReorderLocation{}
