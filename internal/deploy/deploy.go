// Package deploy wires complete in-process GlobeDoc deployments: the
// simulated wide-area testbed, a secure naming service, a location
// service, object servers, publishers and secure clients.
//
// Examples, the benchmark harness and integration tests all need the same
// half-page of plumbing — network, services, keys, registration — so it
// lives here once. Nothing in this package adds semantics: it only
// composes the substrates.
package deploy

import (
	"fmt"
	"time"

	"globedoc/internal/cert"
	"globedoc/internal/core"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/location"
	"globedoc/internal/naming"
	"globedoc/internal/netsim"
	"globedoc/internal/object"
	"globedoc/internal/server"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// Service addresses used on the simulated testbed.
const (
	NamingService   = "namesvc"
	LocationService = "locsvc"
	ObjectService   = "objsvc"
)

// World is a running in-process GlobeDoc deployment.
type World struct {
	Net *netsim.Network

	NamingAuthority *naming.Authority
	namingSvc       *naming.Service
	NamingAddr      string

	LocationTree *location.Tree
	locationSvc  *location.Service
	LocationAddr string

	Servers map[string]*server.Server // site -> object server
	Addrs   map[string]string         // site -> object service address

	CA *cert.CA

	opts    Options
	closers []func()
}

// Options configures NewWorld.
type Options struct {
	// TimeScale scales simulated network delays (0 disables sleeping —
	// the right setting for unit tests; 1.0 reproduces the paper's
	// latencies). Ignored when Network is set.
	TimeScale float64
	// Network, when non-nil, is the simulated topology to deploy onto
	// instead of the default four-host paper testbed — e.g.
	// netsim.FleetTestbed for the multi-continent fleet. The world takes
	// ownership and closes it.
	Network *netsim.Network
	// Domains, when non-nil, replaces location.PaperDomains as the
	// location service's domain hierarchy. Every host that runs a server
	// or client must be a site in it.
	Domains *location.DomainSpec
	// ServiceHost is where the naming and location services listen
	// (defaults to the Amsterdam primary; fleet worlds pick one of their
	// own hosts).
	ServiceHost string
	// KeyAlgorithm is used for service and CA keys. Object owners pick
	// their own algorithm per publish. Defaults to Ed25519.
	KeyAlgorithm keys.Algorithm
	// Clock, if non-nil, replaces time.Now for certificate issuance in
	// the naming authority.
	Clock func() time.Time
	// Client carries the transport robustness knobs — dial/call timeouts
	// and retry policy — applied to every naming, location and object
	// client this world builds. The zero value keeps unbounded waits.
	Client transport.Config
	// ServerIdleTimeout, when positive, makes every object server started
	// by this world drop connections idle between frames for that long.
	ServerIdleTimeout time.Duration
	// Telemetry, when non-nil, is wired through every service, server and
	// client this world builds (and into Client.Telemetry unless that is
	// already set), so one registry observes the whole deployment. Nil
	// gives the world a fresh private registry: worlds are independent
	// deployments, and sharing the process-global default would leak
	// per-address replica-health state between them (test worlds reuse
	// the same simulated addresses).
	Telemetry *telemetry.Telemetry
}

// NewWorld stands up the paper's testbed (Table 1) with naming and
// location services on the Amsterdam primary host and a trusted root CA.
func NewWorld(opts Options) (*World, error) {
	if opts.KeyAlgorithm == 0 {
		opts.KeyAlgorithm = keys.Ed25519
	}
	if opts.Telemetry == nil {
		opts.Telemetry = telemetry.New(nil)
	}
	if opts.Client.Telemetry == nil {
		opts.Client.Telemetry = opts.Telemetry
	}
	if opts.Network == nil {
		opts.Network = netsim.PaperTestbed(opts.TimeScale)
	}
	if opts.ServiceHost == "" {
		opts.ServiceHost = netsim.AmsterdamPrimary
	}
	w := &World{
		Net:     opts.Network,
		Servers: make(map[string]*server.Server),
		Addrs:   make(map[string]string),
		opts:    opts,
	}

	auth, err := naming.NewAuthority(opts.KeyAlgorithm)
	if err != nil {
		return nil, err
	}
	if opts.Clock != nil {
		auth.Now = opts.Clock
	}
	w.NamingAuthority = auth
	nl, err := w.Net.Listen(opts.ServiceHost, NamingService)
	if err != nil {
		return nil, err
	}
	w.namingSvc = naming.NewService(auth)
	w.namingSvc.SetTelemetry(opts.Telemetry)
	w.namingSvc.Start(nl)
	w.NamingAddr = opts.ServiceHost + ":" + NamingService
	w.closers = append(w.closers, w.namingSvc.Close)

	domains := location.PaperDomains()
	if opts.Domains != nil {
		domains = *opts.Domains
	}
	tree, err := location.NewTree(domains)
	if err != nil {
		return nil, err
	}
	w.LocationTree = tree
	ll, err := w.Net.Listen(opts.ServiceHost, LocationService)
	if err != nil {
		return nil, err
	}
	w.locationSvc = location.NewService(tree)
	w.locationSvc.SetTelemetry(opts.Telemetry)
	w.locationSvc.Start(ll)
	w.LocationAddr = opts.ServiceHost + ":" + LocationService
	w.closers = append(w.closers, w.locationSvc.Close)

	ca, err := cert.NewCA("GlobeDoc Root CA", opts.KeyAlgorithm)
	if err != nil {
		return nil, err
	}
	w.CA = ca
	return w, nil
}

// Close shuts down every service, server and the network.
func (w *World) Close() {
	for i := len(w.closers) - 1; i >= 0; i-- {
		w.closers[i]()
	}
	w.Net.Close()
}

// StartServer launches an object server at site. keystore lists the
// principals allowed to create replicas (nil for an empty keystore);
// identity is the server's own key (nil for servers that never push).
// The service address is site + ":objsvc".
func (w *World) StartServer(site, name string, keystore *keys.Keystore, identity *keys.KeyPair, limits server.Limits) (*server.Server, error) {
	if keystore == nil {
		keystore = keys.NewKeystore()
	}
	srv := server.New(name, site, keystore, identity, limits)
	if w.opts.ServerIdleTimeout > 0 {
		srv.SetIdleTimeout(w.opts.ServerIdleTimeout)
	}
	srv.SetTelemetry(w.opts.Telemetry)
	l, err := w.Net.Listen(site, ObjectService)
	if err != nil {
		return nil, err
	}
	srv.Start(l)
	w.Servers[site] = srv
	w.Addrs[site] = site + ":" + ObjectService
	w.closers = append(w.closers, srv.Close)
	return srv, nil
}

// DialFrom returns a DialTo rooted at the given client host.
func (w *World) DialFrom(host string) object.DialTo {
	return func(addr string) transport.DialFunc {
		return w.Net.Dialer(host, addr)
	}
}

// NewResolver returns a verifying naming resolver for a client at host.
func (w *World) NewResolver(host string) *naming.Resolver {
	return naming.NewResolver(w.Net.Dialer(host, w.NamingAddr), w.NamingAuthority.RootKey()).
		Configure(w.opts.Client)
}

// NewLocationClient returns a location-service client for a client at
// host.
func (w *World) NewLocationClient(host string) *location.Client {
	return location.NewClient(w.Net.Dialer(host, w.LocationAddr)).Configure(w.opts.Client)
}

// NewBinder assembles the Globe binder for a client at host/site.
func (w *World) NewBinder(host string) *object.Binder {
	return &object.Binder{
		Names:     w.NewResolver(host),
		Locator:   w.NewLocationClient(host),
		Dial:      w.DialFrom(host),
		Site:      host,
		Transport: w.opts.Client,
	}
}

// NewSecureClient assembles the full GlobeDoc security client for a user
// at host whose proxy trusts the world CA, with default options.
func (w *World) NewSecureClient(host string) *core.Client {
	c, err := w.NewSecureClientOpts(host, core.Options{})
	if err != nil {
		// Impossible: the options are the world's own defaults.
		panic(fmt.Sprintf("deploy: default secure client: %v", err))
	}
	return c
}

// NewSecureClientOpts assembles a security client for a user at host with
// caller-chosen options. World defaults (the run's telemetry, trust in
// the world CA, a selector zoned to host) fill any option left zero. The
// client's binder carries the world's transport config
// (Options.Client): its retry policy, which also bounds a warm binding's
// certificate refresh, and its pool bound. A caller wanting other
// settings sets them there, or on the returned client's Binder before
// the first fetch.
func (w *World) NewSecureClientOpts(host string, opts core.Options) (*core.Client, error) {
	if opts.Telemetry == nil {
		opts.Telemetry = w.opts.Telemetry
	}
	if opts.Trust == nil {
		trust := cert.NewTrustStore()
		trust.TrustCA(w.CA.Name, w.CA.Key.Public())
		opts.Trust = trust
	}
	if opts.Selector == nil {
		// Zone-aware default: the client knows which zone its own site is
		// in, so the health-ranked selector can prefer unmeasured replicas
		// advertising the same zone.
		if zone, ok := w.LocationTree.ZoneOf(host); ok {
			opts.Selector = core.HealthRankedSelector{Zone: zone}
		}
	}
	// The client's replica connections must feed the same health tracker
	// its selector reads, so a caller-supplied telemetry overrides the
	// world default on the binder transport too.
	binder := w.NewBinder(host)
	binder.Transport.Telemetry = opts.Telemetry
	return core.NewClient(binder, opts)
}

// Publication is one published GlobeDoc object: the owner-side state
// needed to update and re-sign it.
type Publication struct {
	Name     string
	OID      globeid.OID
	OwnerKey *keys.KeyPair
	Doc      *document.Document
	Cert     *cert.IntegrityCertificate
	NameCert *cert.NameCertificate
	// HomeSite is where the permanent (owner-provided) replica lives.
	HomeSite string
}

// PublishOptions configures Publish.
type PublishOptions struct {
	// Name is the human-readable object name to register.
	Name string
	// Subject is the real-world entity certified by the world CA; empty
	// skips identity certification.
	Subject string
	// HomeSite is the site of the owner's permanent replica (defaults
	// to the Amsterdam primary).
	HomeSite string
	// TTL is the per-element validity duration (defaults to one hour).
	TTL time.Duration
	// KeyAlgorithm for the object key (defaults to RSA2048, matching the
	// paper's prototype).
	KeyAlgorithm keys.Algorithm
	// OwnerKey, when non-nil, is used instead of generating a fresh
	// object key (lets tests reuse pooled keys).
	OwnerKey *keys.KeyPair
	// Clock stamps certificate issuance (defaults to time.Now).
	Clock func() time.Time
}

// Publish creates a GlobeDoc object around doc: generates the object key,
// derives the self-certifying OID, signs the integrity certificate,
// obtains a CA name certificate, installs the permanent replica on the
// home site's object server, and registers the object with the naming and
// location services.
func (w *World) Publish(doc *document.Document, opts PublishOptions) (*Publication, error) {
	if opts.HomeSite == "" {
		opts.HomeSite = netsim.AmsterdamPrimary
	}
	if opts.TTL == 0 {
		opts.TTL = time.Hour
	}
	if opts.KeyAlgorithm == 0 {
		opts.KeyAlgorithm = keys.RSA2048
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	srv, ok := w.Servers[opts.HomeSite]
	if !ok {
		return nil, fmt.Errorf("deploy: no object server at %q", opts.HomeSite)
	}

	ownerKey := opts.OwnerKey
	if ownerKey == nil {
		var err error
		ownerKey, err = keys.Generate(opts.KeyAlgorithm)
		if err != nil {
			return nil, err
		}
	}
	oid := globeid.FromPublicKey(ownerKey.Public())

	now := opts.Clock()
	icert, err := document.IssueCertificate(doc, oid, ownerKey, now, document.UniformTTL(opts.TTL))
	if err != nil {
		return nil, err
	}

	pub := &Publication{
		Name:     opts.Name,
		OID:      oid,
		OwnerKey: ownerKey,
		Doc:      doc,
		Cert:     icert,
		HomeSite: opts.HomeSite,
	}

	var nameCerts []*cert.NameCertificate
	if opts.Subject != "" {
		nc, err := w.CA.IssueNameCertificate(oid, opts.Subject, now, now.Add(365*24*time.Hour))
		if err != nil {
			return nil, err
		}
		pub.NameCert = nc
		nameCerts = append(nameCerts, nc)
	}

	bundle := server.BundleFromDocument(oid, ownerKey.Public(), doc, icert, nameCerts)
	if err := srv.Install(bundle, "owner:"+opts.Name); err != nil {
		return nil, err
	}

	if opts.Name != "" {
		if err := w.NamingAuthority.Register(opts.Name, oid); err != nil {
			return nil, err
		}
	}
	addr := location.ContactAddress{Address: w.Addrs[opts.HomeSite], Protocol: object.Protocol}
	if err := w.LocationTree.Insert(opts.HomeSite, oid, addr); err != nil {
		return nil, err
	}
	return pub, nil
}

// Reissue re-signs the publication's certificate over the document's
// current state and pushes the new bundle to the home replica, the
// owner-side update path.
func (w *World) Reissue(pub *Publication, ttl time.Duration, now time.Time) error {
	icert, err := document.IssueCertificate(pub.Doc, pub.OID, pub.OwnerKey, now, document.UniformTTL(ttl))
	if err != nil {
		return err
	}
	pub.Cert = icert
	var nameCerts []*cert.NameCertificate
	if pub.NameCert != nil {
		nameCerts = append(nameCerts, pub.NameCert)
	}
	bundle := server.BundleFromDocument(pub.OID, pub.OwnerKey.Public(), pub.Doc, icert, nameCerts)
	return w.Servers[pub.HomeSite].Update(bundle, "owner:"+pub.Name)
}

// PushUpdate propagates the publication's current state and certificate
// to the replicas at the given sites (owner-driven consistency: the
// "server replication" strategies push full state on update).
func (w *World) PushUpdate(pub *Publication, sites ...string) error {
	var nameCerts []*cert.NameCertificate
	if pub.NameCert != nil {
		nameCerts = append(nameCerts, pub.NameCert)
	}
	bundle := server.BundleFromDocument(pub.OID, pub.OwnerKey.Public(), pub.Doc, pub.Cert, nameCerts)
	for _, site := range sites {
		srv, ok := w.Servers[site]
		if !ok {
			return fmt.Errorf("deploy: no object server at %q", site)
		}
		if err := srv.Update(bundle, "owner:"+pub.Name); err != nil {
			return fmt.Errorf("deploy: updating replica at %q: %w", site, err)
		}
	}
	return nil
}

// ReplicateTo installs a copy of the publication on the object server at
// site and records its contact address — the static replication path
// (dynamic replication lives in server.Replicator).
func (w *World) ReplicateTo(pub *Publication, site string) error {
	srv, ok := w.Servers[site]
	if !ok {
		return fmt.Errorf("deploy: no object server at %q", site)
	}
	var nameCerts []*cert.NameCertificate
	if pub.NameCert != nil {
		nameCerts = append(nameCerts, pub.NameCert)
	}
	bundle := server.BundleFromDocument(pub.OID, pub.OwnerKey.Public(), pub.Doc, pub.Cert, nameCerts)
	if err := srv.Install(bundle, "owner:"+pub.Name); err != nil {
		return err
	}
	addr := location.ContactAddress{Address: w.Addrs[site], Protocol: object.Protocol}
	return w.LocationTree.Insert(site, pub.OID, addr)
}
