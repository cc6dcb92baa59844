package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/object"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// Puller implements pull-based replica consistency — the replication
// subobject of a secondary replica LR. Each check is one obj.getdelta
// exchange (DESIGN.md §16): the puller names the version it holds and
// the primary answers "current", a delta moving only the elements whose
// cert-listed hash changed, or the full state when it no longer retains
// that version. Both transfers go down one apply path, which installs a
// state only if its certificate supersedes the one held. A delta that
// does not apply is asked for once more from version 0, which brings the
// full state.
// Combined with the owner's certificate re-issuing this yields the
// "cache with TTL refresh" strategies of internal/replication at runtime.
type Puller struct {
	server *Server
	oid    globeid.OID
	owner  string // principal the local replica is managed under
	client *transport.Client
	// Interval between version checks.
	Interval time.Duration
	// DisableDelta makes every check ask from version 0, so every
	// transfer is the full state (the bench ablation knob and an
	// operational escape hatch).
	DisableDelta bool

	tel atomic.Pointer[telemetry.Telemetry]

	deltaPulls     atomic.Uint64
	bytesFull      atomic.Uint64
	bytesDelta     atomic.Uint64
	deltaDeclines  atomic.Uint64
	deltaFallbacks atomic.Uint64

	mu      sync.Mutex
	stop    chan struct{}
	stopped sync.WaitGroup
}

// NewPuller builds a consistency puller keeping s's replica of oid in
// sync with the primary replica at primaryAddr. owner must be the
// principal the local replica was installed under.
func NewPuller(s *Server, oid globeid.OID, owner, primaryAddr string, dial object.DialTo, interval time.Duration) *Puller {
	return &Puller{
		server:   s,
		oid:      oid,
		owner:    owner,
		client:   transport.NewClient(dial(primaryAddr)),
		Interval: interval,
	}
}

// SetTelemetry wires the puller's transfer counters (puller_pulls_total,
// puller_bytes_total, ...) to tel, surfacing them on /debugz. Unwired
// pullers record to the shared Default().
func (p *Puller) SetTelemetry(tel *telemetry.Telemetry) { p.tel.Store(tel) }

func (p *Puller) telemetry() *telemetry.Telemetry { return telemetry.Or(p.tel.Load()) }

// DeltaPulls returns how many transfers installed a delta.
func (p *Puller) DeltaPulls() uint64 { return p.deltaPulls.Load() }

// BytesFull returns the request+reply payload bytes of exchanges that
// brought the full state.
func (p *Puller) BytesFull() uint64 { return p.bytesFull.Load() }

// BytesDelta returns the request+reply payload bytes of exchanges that
// brought a delta, rejected ones included.
func (p *Puller) BytesDelta() uint64 { return p.bytesDelta.Load() }

// DeltaDeclines returns how many times the primary answered a delta
// request with the full state because it no longer retains the version
// asked from.
func (p *Puller) DeltaDeclines() uint64 { return p.deltaDeclines.Load() }

// DeltaFallbacks returns how many deltas were rejected (bad reply,
// superseded or invalid state) and asked for again from version 0.
func (p *Puller) DeltaFallbacks() uint64 { return p.deltaFallbacks.Load() }

// errSuperseded rejects a transfer whose certificate does not supersede
// the replica's own but is not the one it holds: a rollback to signed
// state the owner has already replaced, or a second certificate at the
// version held, which no honest owner signs.
var errSuperseded = errors.New("server: primary offered state the replica's certificate supersedes")

// CheckOnce asks the primary for the state since the local head and
// installs it. It reports whether the replica changed; a primary that
// answers "current", or with the certificate already held, changes
// nothing.
func (p *Puller) CheckOnce(ctx context.Context) (pulled bool, err error) {
	defer func() {
		if err != nil {
			p.telemetry().PullerFailures.Inc()
		}
	}()
	h, err := p.server.replica(p.oid)
	if err != nil {
		return false, err
	}
	local := h.head()
	have := local.version
	if p.DisableDelta {
		have = 0
	}
	pulled, retry, err := p.pull(ctx, local, have)
	if retry {
		// A lying primary can at worst cost this second round trip.
		p.deltaFallbacks.Add(1)
		p.telemetry().PullerDeltaFallbacks.Inc()
		pulled, _, err = p.pull(ctx, local, 0)
	}
	return pulled, err
}

// pull makes one obj.getdelta exchange from have and applies the reply.
// retry reports a rejected delta (or a reply that did not decode, to a
// request from a version other than 0): the one failure asking again
// from version 0 can mend.
func (p *Puller) pull(ctx context.Context, local *versionSnapshot, have uint64) (pulled, retry bool, err error) {
	req := EncodeDeltaRequest(p.oid, have)
	body, err := p.client.Call(ctx, OpGetDelta, req)
	if err != nil {
		return false, false, fmt.Errorf("server: pulling state: %w", err)
	}
	d, err := UnmarshalDeltaReply(body)
	if err == nil && d.Current {
		return false, false, nil
	}
	// Bytes are charged to the kind of reply that came back; one that
	// did not decode, to the kind asked for.
	full := have == 0
	if err == nil {
		full = d.FullRequired
	}
	mode, counter := "delta", &p.bytesDelta
	if full {
		mode, counter = "full", &p.bytesFull
	}
	moved := uint64(len(req) + len(body))
	counter.Add(moved)
	tel := p.telemetry()
	tel.PullerBytes.With(mode).Add(moved)
	if err != nil {
		return false, !full, err
	}
	if full && have != 0 {
		p.deltaDeclines.Add(1)
		tel.PullerDeltaDeclines.Inc()
	}
	installed, changed, err := p.apply(d, local)
	if !installed {
		return false, err != nil && !full, err
	}
	if !full {
		p.deltaPulls.Add(1)
	}
	tel.PullerPulls.With(mode).Inc()
	tel.PullerElements.With(mode).Add(changed)
	return true, false, nil
}

// apply installs the state a delta or full reply describes over local,
// the replica's head, and reports whether it did and how many element
// bodies the reply moved. A reply carrying the very certificate encoding
// local serves installs nothing and is no error; any other reply whose
// certificate does not supersede the held one is refused. Nothing in the
// reply is trusted before Update's validation passes: the supersedes
// check refuses a rollback cheaply, validation refuses a bundle that
// lacks an element its certificate lists, and the bundle Update
// validates takes local's unchanged elements by reference — no local
// byte is copied.
func (p *Puller) apply(d *DeltaReply, local *versionSnapshot) (installed bool, changed uint64, err error) {
	if !d.Cert.Supersedes(local.cert) {
		if bytes.Equal(d.certWire, local.wire.icert[0]) {
			return false, 0, nil
		}
		return false, 0, errSuperseded
	}
	elems := make([]document.Element, 0, len(d.Items))
	for _, it := range d.Items {
		if !it.Held {
			elems = append(elems, it.Element)
			changed++
			continue
		}
		held, ok := local.wire.element(it.Name)
		if !ok {
			return false, 0, fmt.Errorf("server: delta claims %q held but it is not held locally: %w", it.Name, errNoSuchElement(it.Name))
		}
		elems = append(elems, held.element(it.Name))
	}
	bundle := &Bundle{
		OID:       p.oid,
		Key:       d.Key,
		Elements:  elems,
		Cert:      d.Cert,
		NameCerts: d.NameCerts,
		certWire:  d.certWire,
	}
	// Update validates the bundle (key vs OID, certificate signature,
	// element hashes) before installing.
	if err := p.server.Update(bundle, p.owner); err != nil {
		return false, 0, err
	}
	return true, changed, nil
}

// Start launches the periodic check loop; ctx cancellation and Stop
// both halt it. Calling Start twice without Stop is a no-op.
func (p *Puller) Start(ctx context.Context) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stop != nil {
		return
	}
	stop := make(chan struct{})
	p.stop = stop
	p.stopped.Add(1)
	go func() {
		defer p.stopped.Done()
		ticker := time.NewTicker(p.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			case <-ticker.C:
				_, _ = p.CheckOnce(ctx) // failures are counted; loop continues
			}
		}
	}()
}

// Stop halts the loop and releases the connection.
func (p *Puller) Stop() {
	p.mu.Lock()
	stop := p.stop
	p.stop = nil
	p.mu.Unlock()
	if stop != nil {
		close(stop)
		p.stopped.Wait()
	}
	p.client.Close()
}
