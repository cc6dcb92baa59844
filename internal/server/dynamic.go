package server

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"globedoc/internal/globeid"
	"globedoc/internal/location"
	"globedoc/internal/object"
	"globedoc/internal/replication"
)

// ExportBundle snapshots a hosted replica into a transferable bundle,
// the unit pushed to peer servers during dynamic replication. The whole
// bundle is one version, and its element bytes are the caller's own.
func (s *Server) ExportBundle(oid globeid.OID) (*Bundle, error) {
	h, err := s.replica(oid)
	if err != nil {
		return nil, err
	}
	b := h.head().bundle(h.key)
	for i := range b.Elements {
		b.Elements[i].Data = append([]byte(nil), b.Elements[i].Data...)
	}
	return b, nil
}

// Peer describes a cooperating object server at another site.
type Peer struct {
	Site string
	Addr string
}

// LocationWriter is the slice of the location service the replicator
// needs: recording new contact addresses.
type LocationWriter interface {
	Insert(site string, oid globeid.OID, addr location.ContactAddress) error
	Delete(site string, oid globeid.OID, addr location.ContactAddress) error
}

// Replicator implements dynamic replication (paper §2, §4): it watches
// per-site demand for each hosted object and, when a flash crowd appears
// at a site with a cooperating peer server, pushes a replica there and
// records the new contact address in the location service. This is the
// mechanism the keystore's server-to-server entries exist for.
type Replicator struct {
	server *Server
	peers  map[string]Peer // site -> peer
	dial   object.DialTo
	loc    LocationWriter
	// Now is the clock; tests may replace it.
	Now func() time.Time
	// Threshold and Window configure the flash-crowd trigger per object.
	Threshold int
	Window    time.Duration
	// OnReplicate, if set, is called after each successful push.
	OnReplicate func(oid globeid.OID, site string)
	// Logf, if set, receives diagnostic messages (defaults to log.Printf).
	Logf func(format string, args ...any)

	mu        sync.Mutex
	detectors map[globeid.OID]*replication.FlashCrowdDetector
}

// NewReplicator wires dynamic replication into s: every element read
// observed by s feeds the per-object flash-crowd detector, and triggered
// sites receive a replica via the admin protocol (authenticated with the
// server's own identity key, which must be present in each peer's
// keystore).
func NewReplicator(s *Server, peers []Peer, dial object.DialTo, loc LocationWriter, threshold int, window time.Duration) *Replicator {
	r := &Replicator{
		server:    s,
		peers:     make(map[string]Peer, len(peers)),
		dial:      dial,
		loc:       loc,
		Now:       time.Now,
		Threshold: threshold,
		Window:    window,
		Logf:      log.Printf,
		detectors: make(map[globeid.OID]*replication.FlashCrowdDetector),
	}
	for _, p := range peers {
		r.peers[p.Site] = p
	}
	s.AccessObserver = r.observe
	return r
}

func (r *Replicator) detector(oid globeid.OID) *replication.FlashCrowdDetector {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.detectors[oid]
	if !ok {
		d = replication.NewFlashCrowdDetector(r.Threshold, r.Window)
		r.detectors[oid] = d
	}
	return d
}

// observe is installed as the server's AccessObserver.
func (r *Replicator) observe(oid globeid.OID, element, fromSite string) {
	if fromSite == "" || fromSite == r.server.Site {
		return
	}
	peer, ok := r.peers[fromSite]
	if !ok {
		return // nowhere to replicate to at that site
	}
	if !r.detector(oid).RecordAccess(fromSite, r.Now()) {
		return
	}
	//lint:ignore ctxfirst the AccessObserver callback runs on the serving path, which carries no request context; a replication push owns its own lifetime
	ctx := context.Background()
	if err := r.replicateTo(ctx, oid, peer); err != nil {
		r.detector(oid).MarkRemoved(fromSite) // allow retry
		if r.Logf != nil {
			r.Logf("globedoc: dynamic replication of %s to %s failed: %v", oid.Short(), peer.Site, err)
		}
	}
}

// replicateTo pushes oid's bundle to peer and records the new address.
func (r *Replicator) replicateTo(ctx context.Context, oid globeid.OID, peer Peer) error {
	if r.server.identity == nil {
		return fmt.Errorf("server: %s has no identity key for peer pushes", r.server.Name)
	}
	bundle, err := r.server.ExportBundle(oid)
	if err != nil {
		return err
	}
	admin := NewAdminClient(r.server.Name, r.server.identity, r.dial(peer.Addr))
	defer admin.Close()
	if err := admin.CreateReplica(ctx, bundle); err != nil {
		return err
	}
	if r.loc != nil {
		addr := location.ContactAddress{Address: peer.Addr, Protocol: object.Protocol}
		if err := r.loc.Insert(peer.Site, oid, addr); err != nil {
			return fmt.Errorf("server: registering new replica: %w", err)
		}
	}
	if r.OnReplicate != nil {
		r.OnReplicate(oid, peer.Site)
	}
	return nil
}

// ReplicaSites returns the sites this replicator has pushed oid to.
func (r *Replicator) ReplicaSites(oid globeid.OID) []string {
	return r.detector(oid).ReplicaSites()
}

// WithdrawCold removes replicas that have gone cold: for each site whose
// detector reports no recent traffic, the peer replica is deleted and its
// contact address withdrawn from the location service.
func (r *Replicator) WithdrawCold(ctx context.Context, oid globeid.OID) []string {
	d := r.detector(oid)
	var withdrawn []string
	for _, site := range d.ColdReplicas(r.Now()) {
		peer, ok := r.peers[site]
		if !ok {
			continue
		}
		admin := NewAdminClient(r.server.Name, r.server.identity, r.dial(peer.Addr))
		err := admin.DeleteReplica(ctx, oid)
		admin.Close()
		if err != nil {
			if r.Logf != nil {
				r.Logf("globedoc: withdrawing %s from %s failed: %v", oid.Short(), site, err)
			}
			continue
		}
		if r.loc != nil {
			addr := location.ContactAddress{Address: peer.Addr, Protocol: object.Protocol}
			if err := r.loc.Delete(peer.Site, oid, addr); err != nil && r.Logf != nil {
				r.Logf("globedoc: deregistering %s at %s failed: %v", oid.Short(), site, err)
			}
		}
		d.MarkRemoved(site)
		withdrawn = append(withdrawn, site)
	}
	return withdrawn
}
