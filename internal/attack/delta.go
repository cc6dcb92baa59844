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
// same signature, hash and completeness validation and installs it only
// if its certificate supersedes the one held, so every one of these lies
// must degrade to denial of service: the victim rejects the delta, asks
// again from version 0 and, where the full answer is honest, converges
// on genuine state.
type DeltaMode int

// Delta attack modes.
const (
	// DeltaHonest relays genuine deltas (control case).
	DeltaHonest DeltaMode = iota
	// DeltaForgeContent flips bytes in a changed element's payload while
	// leaving the certificate intact.
	DeltaForgeContent
	// DeltaTruncate drops a changed item from the reply, so the composed
	// bundle lacks an element its certificate lists: the completeness
	// rule refuses it, and a replica never serves part of a version.
	DeltaTruncate
	// DeltaLieUnchanged marks a changed element unchanged, trying to pin
	// the victim's stale bytes under the new certificate.
	DeltaLieUnchanged
	// DeltaRollback serves genuine state older than the victim's: the
	// certificate and elements captured when the attacker was made, as a
	// delta and as a full reply. Every byte of either verifies, and only
	// the supersedes rule stops them.
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
	DeltaForgeContent, DeltaTruncate, DeltaLieUnchanged, DeltaRollback,
}

// MaliciousDeltaPrimary is a wire-compatible primary that answers
// obj.getdelta from a genuine server's state, corrupting delta replies
// according to its Mode and leaving full replies honest (DeltaRollback
// excepted). It models a compromised primary (or a man-in-the-middle on
// the consistency channel) that tries to smuggle unvalidated, partial or
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

// rollback answers with the captured full state: as a delta to a
// request from a version, as the full state to one from version 0.
func (m *MaliciousDeltaPrimary) rollback(oid globeid.OID, have uint64) (*server.DeltaReply, error) {
	old, ok := m.captured[oid]
	if !ok {
		return nil, fmt.Errorf("attack: no state captured for %s", oid.Short())
	}
	d := *old
	d.FullRequired = have == 0
	return &d, nil
}

// corrupt applies the mode's lie to a genuine delta reply, whose element
// data is the caller's own copy.
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
