package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/object"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// Errors reported by the object server.
var (
	ErrNotHosted     = errors.New("server: object not hosted here")
	ErrAccessDenied  = errors.New("server: access denied")
	ErrAlreadyHosted = errors.New("server: object already hosted")
	ErrOverCapacity  = errors.New("server: resource limits exceeded")
)

// Limits bounds the resources a server commits to hosted replicas — the
// raw material of the hosting-negotiation mechanism (paper §6).
type Limits struct {
	// MaxObjects caps the number of hosted replicas (0 = unlimited).
	MaxObjects int
	// MaxBytes caps the summed element storage (0 = unlimited).
	MaxBytes int64
}

// hostedReplica is one replica local representative: its identity and
// its retained versions, in signed-version order. Everything a replica
// must store (paper §3.2.2) — the elements, the object key, the integrity
// certificate and the name certificates — lives exactly once, in the last
// version, the immutable head (version.go, DESIGN.md §16). Of the four
// classic Globe subobjects, semantics and replication are that head,
// communication is the shared transport server, and control is the
// handler glue in this package.
type hostedReplica struct {
	oid   globeid.OID
	key   keys.PublicKey
	owner string // principal that created this replica (may manage it)

	// access statistics feeding dynamic replication
	reads atomic.Uint64

	// retained holds the retained versions oldest first; only the last,
	// the head, carries servable state. publish, the one writer, stores a
	// freshly allocated slice and never writes to a published one.
	retained atomic.Pointer[[]*versionSnapshot]
}

// versions returns the retained versions. A handler loads them (or head)
// once and answers from that one view, so a reply never mixes two
// versions (DESIGN.md §9).
func (h *hostedReplica) versions() []*versionSnapshot { return *h.retained.Load() }

// head returns the version currently served.
func (h *hostedReplica) head() *versionSnapshot {
	versions := h.versions()
	return versions[len(versions)-1]
}

// wirePayloads are one version's precomputed wire responses. Handlers
// serve these shared slices copy-free — per-request marshalling,
// dominated by the O(elements) certificate table, would be pure waste —
// so they must never be mutated. The key and certificates are one-buffer
// replies, which a step handler answers with without allocating.
type wirePayloads struct {
	key       [1][]byte
	icert     [1][]byte
	nameCerts [1][]byte
	// names are the version's element names in order, and elements their
	// payloads, index for index with each other and the version's entries.
	names    []string
	elements []elementPayload
}

// element returns the payload of the element named name.
func (w *wirePayloads) element(name string) (elementPayload, bool) {
	i, ok := slices.BinarySearch(w.names, name)
	if !ok {
		return elementPayload{}, false
	}
	return w.elements[i], true
}

// elementPayload is an element's encoded response — the one place the
// server holds its bytes — with what is needed to view the element in it:
// the content is the wire entry's last size bytes (size also feeds the
// served-bytes stats).
type elementPayload struct {
	wire        []byte
	contentType string
	size        int
}

// content is the element's bytes inside its wire entry.
func (p elementPayload) content() []byte { return p.wire[len(p.wire)-p.size:] }

// element views the payload as the element named name; its Data aliases
// the wire entry and must not be mutated.
func (p elementPayload) element(name string) document.Element {
	return document.Element{Name: name, ContentType: p.contentType, Data: p.content()}
}

// errNoSuchElement refuses an element name the served version lacks.
func errNoSuchElement(name string) error {
	return fmt.Errorf("%w: %q", document.ErrNoSuchElement, name)
}

// buildWire precomputes every response payload for a bundle validate
// proved to be v: the certificate encoding it verified, and one payload
// per element in v's order. An element whose hash and content type are
// those of prev's entry (prev, the validated version being superseded,
// may be nil) shares that entry; any other is copied, once, into a new
// one.
func buildWire(b *Bundle, v *validated, prev *versionSnapshot) wirePayloads {
	w := wirePayloads{
		key:       [1][]byte{b.Key.Marshal()},
		icert:     [1][]byte{v.icert},
		nameCerts: [1][]byte{object.EncodeCertList(b.NameCerts)},
		names:     make([]string, len(v.elems)),
		elements:  make([]elementPayload, len(v.elems)),
	}
	for i, e := range v.elems {
		w.names[i] = e.Name
		p, held := prev.payload(e.Name, b.Cert.Entries[i].Hash)
		if !held || p.contentType != e.ContentType {
			p = elementPayload{wire: object.EncodeElement(e), contentType: e.ContentType, size: len(e.Data)}
		}
		w.elements[i] = p
	}
	return w
}

// Server is a Globe object server.
type Server struct {
	// Name identifies the server principal (for peer keystores).
	Name string
	// Site is the location-service site this server lives at.
	Site string

	keystore *keys.Keystore
	identity *keys.KeyPair // the server's own key pair (for pushing to peers)
	limits   Limits

	mu     sync.RWMutex
	hosted map[globeid.OID]*hostedReplica
	bytes  int64

	nonceMu sync.Mutex
	nonces  map[string][]byte

	srv *transport.Server

	// AccessObserver, if set, is called for every element read with the
	// client's advisory site hint (empty when unknown); dynamic
	// replication hooks in here.
	AccessObserver func(oid globeid.OID, element, fromSite string)
}

// New creates an object server. keystore lists the principals allowed to
// create replicas; identity is the server's own key pair, used when this
// server pushes replicas to peers (may be nil for a leaf server).
func New(name, site string, keystore *keys.Keystore, identity *keys.KeyPair, limits Limits) *Server {
	s := &Server{
		Name:     name,
		Site:     site,
		keystore: keystore,
		identity: identity,
		limits:   limits,
		hosted:   make(map[globeid.OID]*hostedReplica),
		nonces:   make(map[string][]byte),
		srv:      transport.NewServer(),
	}
	s.srv.Handle(object.OpPing, func(body []byte) ([]byte, error) { return nil, nil })
	s.srv.HandleCtx(object.OpGetKey, s.traced("serve.getkey", s.handleGetKey))
	s.srv.HandleCtx(object.OpGetCert, s.traced("serve.getcert", s.handleGetCert))
	s.srv.HandleCtx(object.OpGetElement, s.traced("serve.getelement", s.handleGetElement))
	s.srv.HandleCtx(object.OpGetElements, s.traced("serve.getelements", s.handleGetElements))
	s.srv.HandleCtx(object.OpBind, s.traced("serve.bind", s.handleBind))
	s.srv.HandleCtx(OpGetDelta, s.traced("serve.getdelta", s.handleGetDelta))
	s.srv.Handle(OpChallenge, s.handleChallenge)
	s.srv.Handle(OpAdmin, s.handleAdmin)
	return s
}

// SetIdleTimeout bounds how long a client connection may sit silent
// between frames before the server drops it, so stalled or half-dead
// peers cannot pin handler goroutines forever. Call before Start/Serve.
func (s *Server) SetIdleTimeout(d time.Duration) { s.srv.IdleTimeout = d }

// SetTelemetry wires the transport layer's per-RPC spans and
// rpc_served_total counters to tel. Call before Start/Serve.
func (s *Server) SetTelemetry(tel *telemetry.Telemetry) { s.srv.Telemetry = tel }

// Serve accepts connections on l until closed.
func (s *Server) Serve(l net.Listener) error { return s.srv.Serve(l) }

// Start serves on a background goroutine.
func (s *Server) Start(l net.Listener) { s.srv.Start(l) }

// Close shuts the server down.
func (s *Server) Close() { s.srv.Close() }

// Hosted returns the OIDs of all hosted replicas, sorted by string form.
func (s *Server) Hosted() []globeid.OID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	oids := make([]globeid.OID, 0, len(s.hosted))
	for oid := range s.hosted {
		oids = append(oids, oid)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i].String() < oids[j].String() })
	return oids
}

// Hosts reports whether this server has a replica of oid.
func (s *Server) Hosts(oid globeid.OID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.hosted[oid]
	return ok
}

// StoredBytes returns the element bytes currently hosted.
func (s *Server) StoredBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// Install hosts a validated bundle directly (the in-process path used by
// owners co-located with their permanent-storage server; remote callers
// go through the admin protocol). owner is the managing principal.
func (s *Server) Install(b *Bundle, owner string) error {
	return s.publish(b, owner, true)
}

// Update replaces a hosted replica's state; principal must match the
// owner recorded at Install time. This is the in-process owner path; the
// remote path is AdminClient.UpdateReplica.
func (s *Server) Update(b *Bundle, principal string) error {
	return s.publish(b, principal, false)
}

// publish makes b the served version of its object — of a new replica
// owned by principal (install) or of the one principal already owns. It
// is the only writer of hosted state: validate, admit against the limits,
// build the version after the retained ones — refused unless its
// certificate supersedes the head's — and only then swap it in.
func (s *Server) publish(b *Bundle, principal string, install bool) error {
	// The head served now spares validation the elements it holds. It is
	// validated state even if an update supersedes it before s.mu is
	// taken, and appendVersion refuses b if b does not supersede
	// whatever the head is then.
	var held *versionSnapshot
	if !install {
		if h, err := s.replica(b.OID); err == nil {
			held = h.head()
		}
	}
	v, err := b.validate(held)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h, hosted := s.hosted[b.OID]
	var old []*versionSnapshot // the versions b follows: none on install
	switch {
	case install && hosted:
		return fmt.Errorf("%w: %s", ErrAlreadyHosted, b.OID.Short())
	case install:
		if s.limits.MaxObjects > 0 && len(s.hosted) >= s.limits.MaxObjects {
			return fmt.Errorf("%w: object limit %d", ErrOverCapacity, s.limits.MaxObjects)
		}
		h = &hostedReplica{oid: b.OID, key: b.Key, owner: principal}
	case !hosted:
		return fmt.Errorf("%w: %s", ErrNotHosted, b.OID.Short())
	case h.owner != principal:
		return fmt.Errorf("%w: replica owned by %q", ErrAccessDenied, h.owner)
	default:
		old = h.versions()
	}
	growth := v.size
	if len(old) > 0 {
		growth -= old[len(old)-1].size
	}
	if s.limits.MaxBytes > 0 && s.bytes+growth > s.limits.MaxBytes {
		return fmt.Errorf("%w: byte limit %d", ErrOverCapacity, s.limits.MaxBytes)
	}
	versions, err := appendVersion(old, b, v)
	if err != nil {
		return err
	}
	h.retained.Store(&versions)
	s.hosted[b.OID] = h
	s.bytes += growth
	return nil
}

// remove destroys a hosted replica; principal must be the owner.
func (s *Server) remove(oid globeid.OID, principal string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.hosted[oid]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotHosted, oid.Short())
	}
	if h.owner != principal {
		return fmt.Errorf("%w: replica owned by %q", ErrAccessDenied, h.owner)
	}
	s.bytes -= h.head().size
	delete(s.hosted, oid)
	return nil
}

func (s *Server) replica(oid globeid.OID) (*hostedReplica, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h, ok := s.hosted[oid]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotHosted, oid.Short())
	}
	return h, nil
}

// --- public (anonymous) handlers -----------------------------------------

// traced wraps a fetch-path handler in a server-side span that continues
// the trace context the transport layer adopted from the wire (the
// rpc.serve span). The wrapped handler sees a context carrying the new
// span, so it can hang further child spans (e.g. per-element serves)
// under it; handler errors are annotated so errored serves export even
// when the trace is unsampled.
func (s *Server) traced(name string, h transport.HandlerCtx) transport.HandlerCtx {
	return func(ctx context.Context, body []byte) ([][]byte, error) {
		sp := telemetry.Or(s.srv.Telemetry).Tracer.StartSpanFrom(name, telemetry.SpanContextFrom(ctx))
		defer sp.End()
		resp, err := h(telemetry.ContextWith(ctx, sp), body)
		if err != nil {
			sp.Annotate("error", err.Error())
		}
		return resp, err
	}
}

// requested decodes an OID request and returns the replica it names.
func (s *Server) requested(body []byte) (*hostedReplica, error) {
	oid, err := object.DecodeOIDRequest(body)
	if err != nil {
		return nil, err
	}
	return s.replica(oid)
}

func (s *Server) handleGetKey(ctx context.Context, body []byte) ([][]byte, error) {
	h, err := s.requested(body)
	if err != nil {
		return nil, err
	}
	return h.head().wire.key[:], nil
}

func (s *Server) handleGetCert(ctx context.Context, body []byte) ([][]byte, error) {
	h, err := s.requested(body)
	if err != nil {
		return nil, err
	}
	return h.head().wire.icert[:], nil
}

// serveElement counts the replica's read (ReadCount), fires the access
// observer and emits the per-element payload-serve leaf span common to
// the single and batched element paths.
func (s *Server) serveElement(ctx context.Context, h *hostedReplica, name, fromSite string) {
	sp := telemetry.Or(s.srv.Telemetry).Tracer.LeafFrom("serve.element", telemetry.SpanContextFrom(ctx))
	sp.Annotate("element", name)
	h.reads.Add(1)
	if obs := s.AccessObserver; obs != nil {
		obs(h.oid, name, fromSite)
	}
	sp.End()
}

func (s *Server) handleGetElement(ctx context.Context, body []byte) ([][]byte, error) {
	oid, name, fromSite, err := object.DecodeElementRequest(body)
	if err != nil {
		return nil, err
	}
	h, err := s.replica(oid)
	if err != nil {
		return nil, err
	}
	p, ok := h.head().wire.element(name)
	if !ok {
		return nil, errNoSuchElement(name)
	}
	s.serveElement(ctx, h, name, fromSite)
	return [][]byte{p.wire}, nil
}

// handleGetElements serves a whole batch of elements from the replica's
// precomputed wire payloads in one exchange (see batch).
func (s *Server) handleGetElements(ctx context.Context, body []byte) ([][]byte, error) {
	oid, names, fromSite, err := object.DecodeElementsRequest(body)
	if err != nil {
		return nil, err
	}
	h, err := s.replica(oid)
	if err != nil {
		return nil, err
	}
	return object.ElementsResponseBuffers(s.batch(ctx, h, h.head(), names, nil, fromSite, time.Time{}, 0)), nil
}

// handleBind answers obj.bind from one head version, so no reply mixes
// two versions however an update races it: the element batch asked for
// (see batch) with what verifies it — for a cold bind the key, the
// integrity certificate and, when asked, the name certificates; for one
// naming the certificate it holds, the head's only when it is another.
// The reply references the precomputed wire payloads where they lie.
// The comparison with what the request holds needs no history: the
// request names the hashes itself, so a replica whose retained versions
// no longer include the client's answers it as well as one that does.
func (s *Server) handleBind(ctx context.Context, body []byte) ([][]byte, error) {
	req, err := object.DecodeBindRequest(body)
	if err != nil {
		return nil, err
	}
	h, err := s.replica(req.OID)
	if err != nil {
		return nil, err
	}
	v := h.head()
	var key, nameCerts, icert []byte
	switch {
	case req.Have == [globeid.Size]byte{}:
		key, icert = v.wire.key[0], v.wire.icert[0]
	case req.Have != v.certHash:
		icert = v.wire.icert[0]
	}
	if req.NameCerts {
		nameCerts = v.wire.nameCerts[0]
	}
	names := req.Names
	if req.All {
		names = v.wire.names
	}
	items := s.batch(ctx, h, v, names, req.Held, req.FromSite, req.At, len(key)+len(nameCerts)+len(icert))
	return object.BindReplyBuffers(nil, key, nameCerts, icert, items), nil
}

// batch answers names from version v in GetElements' item format. A
// name held (index for index with names, or nil) names under v's own
// certificate hash is answered held, with no bytes: the requester's are
// current. Items that cannot be served are declined one by one: an
// unknown name, an element whose certificate entry is not fresh at the
// client's clock reading at (when at is set), or one that would take the
// reply past the frame budget, of which used bytes are already spoken
// for. The read count and the access observer fire for every carried
// element exactly as they do for serial fetches, and for no held one.
func (s *Server) batch(ctx context.Context, h *hostedReplica, v *versionSnapshot, names []string, held [][globeid.Size]byte, fromSite string, at time.Time, used int) []object.BatchWireItem {
	const budget = transport.MaxFrame - 64*1024 // headroom for item framing
	items := make([]object.BatchWireItem, 0, len(names))
	for i, name := range names {
		it := object.BatchWireItem{Name: name}
		j, ok := slices.BinarySearch(v.wire.names, name)
		var p elementPayload
		if ok {
			p = v.wire.elements[j]
		}
		switch {
		case !ok:
			it.ErrMsg = errNoSuchElement(name).Error()
		case held != nil && held[i] == v.entries[j].Hash:
			it.Held = true
		case !at.IsZero() && !v.freshAt(name, at):
			it.ErrMsg = "certificate entry not fresh at the requested time"
		case used+len(p.wire) > budget:
			it.ErrMsg = "batch response frame budget exceeded; ask for it again in the next exchange"
		default:
			it.Wire = p.wire
			used += len(p.wire)
			s.serveElement(ctx, h, name, fromSite)
		}
		items = append(items, it)
	}
	return items
}

// ReadCount returns how many element reads a hosted replica has served
// (0 for objects not hosted here).
func (s *Server) ReadCount(oid globeid.OID) uint64 {
	h, err := s.replica(oid)
	if err != nil {
		return 0
	}
	return h.reads.Load()
}
