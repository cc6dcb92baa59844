package attack

import (
	"fmt"
	"net"
	"sync/atomic"

	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/server"
	"globedoc/internal/transport"
)

// DeltaMode selects how a malicious primary corrupts obj.getdelta
// replies. The puller hands the state it composes from any reply to the
// same signature/hash validation and installs it only if its
// certificate supersedes the one held, so every one of these lies must
// degrade to denial of service: the victim rejects the delta, asks again
// from version 0 and, where the full answer is honest, converges on
// genuine state.
type DeltaMode int

// Delta attack modes.
const (
	// DeltaHonest relays genuine deltas (control case).
	DeltaHonest DeltaMode = iota
	// DeltaForgeContent flips bytes in a changed element's payload while
	// leaving the certificate and chain intact.
	DeltaForgeContent
	// DeltaTruncate drops a changed item from the reply, so the composed
	// bundle no longer matches the chain head's element-root commitment.
	DeltaTruncate
	// DeltaReorderHeaders swaps chain headers, breaking the monotonic
	// have..new linkage.
	DeltaReorderHeaders
	// DeltaBreakChain corrupts a header's Prev link.
	DeltaBreakChain
	// DeltaLieUnchanged marks a changed element unchanged, trying to pin
	// the victim's stale bytes under the new certificate.
	DeltaLieUnchanged
	// DeltaRollback serves genuine state older than the victim's: the
	// certificate and elements captured when the attacker was made, as a
	// delta linked to the victim's head and as a full reply. The delta's
	// chain goes backwards; every byte of the full reply verifies, and
	// only the supersedes rule stops it.
	DeltaRollback
)

// String names the mode for logs and reports.
func (m DeltaMode) String() string {
	switch m {
	case DeltaHonest:
		return "delta-honest"
	case DeltaForgeContent:
		return "delta-forge-content"
	case DeltaTruncate:
		return "delta-truncate"
	case DeltaReorderHeaders:
		return "delta-reorder-headers"
	case DeltaBreakChain:
		return "delta-break-chain"
	case DeltaLieUnchanged:
		return "delta-lie-unchanged"
	case DeltaRollback:
		return "delta-rollback"
	default:
		return "unknown"
	}
}

// AllDeltaModes lists every adversarial delta mode (excluding the honest
// control).
var AllDeltaModes = []DeltaMode{
	DeltaForgeContent, DeltaTruncate, DeltaReorderHeaders, DeltaBreakChain, DeltaLieUnchanged, DeltaRollback,
}

// MaliciousDeltaPrimary is a wire-compatible primary that answers
// obj.getdelta from a genuine server's state, corrupting delta replies
// according to its Mode and leaving full replies honest (DeltaRollback
// excepted). It models a compromised primary (or a man-in-the-middle on
// the consistency channel) that tries to smuggle unvalidated or
// superseded state through the incremental path.
type MaliciousDeltaPrimary struct {
	Mode DeltaMode

	inner       *server.Server
	captured    map[globeid.OID]*server.DeltaReply // DeltaRollback's old full state
	srv         *transport.Server
	deltaServed atomic.Uint64
}

// NewMaliciousDeltaPrimary wraps a genuine server holding the object's
// true state. In DeltaRollback mode it captures that state now, to serve
// once the owner has moved on.
func NewMaliciousDeltaPrimary(mode DeltaMode, inner *server.Server) *MaliciousDeltaPrimary {
	m := &MaliciousDeltaPrimary{Mode: mode, inner: inner, srv: transport.NewServer()}
	if mode == DeltaRollback {
		m.captured = make(map[globeid.OID]*server.DeltaReply)
		for _, oid := range inner.Hosted() {
			if d, err := inner.DeltaSince(oid, 0); err == nil {
				m.captured[oid] = d
			}
		}
	}
	m.srv.Handle(server.OpGetDelta, m.handleGetDelta)
	return m
}

// Start serves on a background goroutine.
func (m *MaliciousDeltaPrimary) Start(l net.Listener) { m.srv.Start(l) }

// Close shuts the server down.
func (m *MaliciousDeltaPrimary) Close() { m.srv.Close() }

// DeltaServed reports how many obj.getdelta replies were sent, so tests
// can assert the corrupted path was actually exercised.
func (m *MaliciousDeltaPrimary) DeltaServed() uint64 { return m.deltaServed.Load() }

func (m *MaliciousDeltaPrimary) handleGetDelta(body []byte) ([]byte, error) {
	oid, have, err := server.DecodeDeltaRequest(body)
	if err != nil {
		return nil, err
	}
	var d *server.DeltaReply
	if m.Mode == DeltaRollback {
		d, err = m.rollback(oid, have)
	} else if d, err = m.inner.DeltaSince(oid, have); err == nil {
		m.corrupt(d)
	}
	if err != nil {
		return nil, err
	}
	m.deltaServed.Add(1)
	return d.Marshal(), nil
}

// rollback answers with the captured full state: as a delta whose chain
// links the captured head to the victim's head when the genuine server
// still retains have, as the full state otherwise. The captured head
// commits to exactly the captured certificate and element set and carries
// its signed version, so every check of the full reply but the supersedes
// rule passes.
func (m *MaliciousDeltaPrimary) rollback(oid globeid.OID, have uint64) (*server.DeltaReply, error) {
	old, ok := m.captured[oid]
	if !ok {
		return nil, fmt.Errorf("attack: no state captured for %s", oid.Short())
	}
	chain, err := m.inner.VersionChain(oid)
	if err != nil {
		return nil, err
	}
	d, head := *old, *old.Headers[0]
	for _, hd := range chain {
		if have != 0 && hd.Version == have {
			head.Prev = hd.Hash()
			d.FullRequired, d.Headers = false, []*server.VersionHeader{&hd, &head}
		}
	}
	return &d, nil
}

// corrupt applies the mode's lie to a genuine delta reply. The reply
// aliases the inner server's chain headers and element data, so every
// mutation copies first.
func (m *MaliciousDeltaPrimary) corrupt(d *server.DeltaReply) {
	if d.Current || d.FullRequired {
		return
	}
	switch m.Mode {
	case DeltaForgeContent:
		for i := range d.Items {
			if !d.Items[i].Changed {
				continue
			}
			data := append([]byte(nil), d.Items[i].Element.Data...)
			if len(data) == 0 {
				data = []byte{0x66}
			} else {
				data[0] ^= 0xff
			}
			d.Items[i].Element.Data = data
			return
		}
	case DeltaTruncate:
		for i := len(d.Items) - 1; i >= 0; i-- {
			if d.Items[i].Changed {
				d.Items = append(d.Items[:i:i], d.Items[i+1:]...)
				return
			}
		}
	case DeltaReorderHeaders:
		if len(d.Headers) >= 2 {
			hs := append([]*server.VersionHeader(nil), d.Headers...)
			hs[0], hs[len(hs)-1] = hs[len(hs)-1], hs[0]
			d.Headers = hs
		}
	case DeltaBreakChain:
		if n := len(d.Headers); n > 0 {
			hs := append([]*server.VersionHeader(nil), d.Headers...)
			broken := *hs[n-1]
			broken.Prev[0] ^= 0xff
			hs[n-1] = &broken
			d.Headers = hs
		}
	case DeltaLieUnchanged:
		for i := range d.Items {
			if d.Items[i].Changed {
				d.Items[i].Changed = false
				d.Items[i].Element = document.Element{}
				return
			}
		}
	}
}
