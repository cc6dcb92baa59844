package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"globedoc/internal/attack"
	"globedoc/internal/cert"
	"globedoc/internal/core"
	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keyfile"
	"globedoc/internal/keys"
	"globedoc/internal/location"
	"globedoc/internal/naming"
	"globedoc/internal/netsim"
	"globedoc/internal/object"
	"globedoc/internal/proxy"
	"globedoc/internal/server"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
	"globedoc/internal/vcache"
)

// now is the benchmark's wall clock (the repo's injectable-default
// idiom); every latency sample and window boundary reads it.
var now = time.Now

// fixtureKeys is how many committed RSA-2048 owner key pairs
// testdata/keys holds. RSA generation costs 0.1–0.5 s of random time
// apiece, which would swamp setup_s, so object keys are fixtures.
const fixtureKeys = 8

// Sites the workloads use, named as on the paper's Table-1 testbed. On
// the TCP fabric they are only location-tree sites; every hop is
// loopback.
const (
	serverSite = netsim.AmsterdamPrimary
	clientSite = netsim.Paris
)

// loadOwnerKeys reads the first n committed fixture key pairs.
func loadOwnerKeys(dir string, n int) ([]*keys.KeyPair, error) {
	out := make([]*keys.KeyPair, n)
	for i := range out {
		kp, err := keyfile.LoadKeyPair(filepath.Join(dir, fmt.Sprintf("owner-%d.key", i)))
		if err != nil {
			return nil, fmt.Errorf("loading fixture key %d: %w", i, err)
		}
		out[i] = kp
	}
	return out, nil
}

// stack is one running GlobeDoc deployment — naming, location, object
// servers, a CA — reachable over a fabric: the netsim testbed through
// deploy.World, or loopback TCP wired the way cmd/globedoc-* wire it.
// Workloads see only this type, so the same client, canary and baseline
// code runs over either fabric.
type stack struct {
	world *deploy.World // nil on the TCP fabric

	tel       *telemetry.Telemetry
	ca        *cert.CA
	trust     *cert.TrustStore
	authority *naming.Authority
	tree      *location.Tree
	servers   map[string]*server.Server // site -> object server
	addrs     map[string]string         // site -> object service address

	namingAddr, locationAddr string

	// listen opens a service endpoint at site and returns the address
	// clients dial; dial connects to addr from a client at fromSite.
	listen func(site, service string) (net.Listener, string, error)
	dial   func(fromSite, addr string) transport.DialFunc

	// clock stamps certificates and drives client freshness checks. The
	// real clock everywhere except update-churn, which expires
	// certificates on a virtual one.
	clock func() time.Time

	closers []func()
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	if s.world != nil {
		s.world.Close()
	}
}

// newNetsimStack stands up the paper testbed through deploy.World.
func newNetsimStack(timeScale float64, clock func() time.Time) (*stack, error) {
	tel := telemetry.New(nil)
	w, err := deploy.NewWorld(deploy.Options{TimeScale: timeScale, Telemetry: tel})
	if err != nil {
		return nil, err
	}
	s := &stack{
		world:        w,
		tel:          tel,
		ca:           w.CA,
		authority:    w.NamingAuthority,
		tree:         w.LocationTree,
		servers:      w.Servers,
		addrs:        w.Addrs,
		namingAddr:   w.NamingAddr,
		locationAddr: w.LocationAddr,
		clock:        clock,
		listen: func(site, service string) (net.Listener, string, error) {
			l, err := w.Net.Listen(site, service)
			return l, site + ":" + service, err
		},
		dial: func(fromSite, addr string) transport.DialFunc { return w.Net.Dialer(fromSite, addr) },
	}
	s.trustCA()
	return s, nil
}

// newTCPStack wires naming, location and (via startServer) object
// servers on 127.0.0.1:0 listeners with a TCP dialer, exactly as
// cmd/globedoc-services, -server and -proxy do. writev, socket buffers
// and kernel copies are invisible on net.Pipe, so the per-byte workload
// runs here.
func newTCPStack(clock func() time.Time) (*stack, error) {
	s := &stack{
		tel:     telemetry.New(nil),
		servers: make(map[string]*server.Server),
		addrs:   make(map[string]string),
		clock:   clock,
		listen: func(_, _ string) (net.Listener, string, error) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, "", err
			}
			return l, l.Addr().String(), nil
		},
		dial: func(_, addr string) transport.DialFunc {
			return func() (net.Conn, error) { return net.Dial("tcp", addr) }
		},
	}
	var err error
	if s.authority, err = naming.NewAuthority(keys.Ed25519); err != nil {
		return nil, err
	}
	nl, addr, err := s.listen(serverSite, deploy.NamingService)
	if err != nil {
		return nil, err
	}
	namingSvc := naming.NewService(s.authority)
	namingSvc.SetTelemetry(s.tel)
	namingSvc.Start(nl)
	s.namingAddr = addr
	s.closers = append(s.closers, namingSvc.Close)

	if s.tree, err = location.NewTree(location.PaperDomains()); err != nil {
		s.close()
		return nil, err
	}
	ll, addr, err := s.listen(serverSite, deploy.LocationService)
	if err != nil {
		s.close()
		return nil, err
	}
	locationSvc := location.NewService(s.tree)
	locationSvc.SetTelemetry(s.tel)
	locationSvc.Start(ll)
	s.locationAddr = addr
	s.closers = append(s.closers, locationSvc.Close)

	if s.ca, err = cert.NewCA("GlobeDoc Root CA", keys.Ed25519); err != nil {
		s.close()
		return nil, err
	}
	s.trustCA()
	return s, nil
}

func (s *stack) trustCA() {
	s.trust = cert.NewTrustStore()
	s.trust.TrustCA(s.ca.Name, s.ca.Key.Public())
}

// startServer launches an object server at site.
func (s *stack) startServer(site, name string) (*server.Server, error) {
	if s.world != nil {
		return s.world.StartServer(site, name, nil, nil, server.Limits{})
	}
	srv := server.New(name, site, keys.NewKeystore(), nil, server.Limits{})
	srv.SetTelemetry(s.tel)
	l, addr, err := s.listen(site, deploy.ObjectService)
	if err != nil {
		return nil, err
	}
	srv.Start(l)
	s.servers[site] = srv
	s.addrs[site] = addr
	s.closers = append(s.closers, srv.Close)
	return srv, nil
}

// certSubject is the identity the world CA certifies every published
// object under, so each cold fetch also pays the name-certificate steps.
const certSubject = "GlobeDoc Benchmark Owner"

// publish creates a GlobeDoc object around doc under owner's key at the
// server site: integrity certificate, CA name certificate, permanent
// replica, naming record and location record.
func (s *stack) publish(doc *document.Document, name string, owner *keys.KeyPair, ttl time.Duration) (*deploy.Publication, error) {
	if s.world != nil {
		return s.world.Publish(doc, deploy.PublishOptions{
			Name: name, Subject: certSubject, HomeSite: serverSite,
			TTL: ttl, OwnerKey: owner, Clock: s.clock,
		})
	}
	// The TCP fabric has no deploy.World; this is World.Publish's body.
	oid := globeid.FromPublicKey(owner.Public())
	issued := s.clock()
	icert, err := document.IssueCertificate(doc, oid, owner, issued, document.UniformTTL(ttl))
	if err != nil {
		return nil, err
	}
	nc, err := s.ca.IssueNameCertificate(oid, certSubject, issued, issued.Add(365*24*time.Hour))
	if err != nil {
		return nil, err
	}
	bundle := server.BundleFromDocument(oid, owner.Public(), doc, icert, []*cert.NameCertificate{nc})
	if err := s.servers[serverSite].Install(bundle, "owner:"+name); err != nil {
		return nil, err
	}
	if err := s.authority.Register(name, oid); err != nil {
		return nil, err
	}
	addr := location.ContactAddress{Address: s.addrs[serverSite], Protocol: object.Protocol}
	if err := s.tree.Insert(serverSite, oid, addr); err != nil {
		return nil, err
	}
	return &deploy.Publication{
		Name: name, OID: oid, OwnerKey: owner, Doc: doc,
		Cert: icert, NameCert: nc, HomeSite: serverSite,
	}, nil
}

// secureClient is a core.Client plus the naming and location clients
// its binder dials through. core.Client.Close drops only replica
// bindings; a workload that builds a client per request must release
// all three or it leaks two connections a fetch.
type secureClient struct {
	*core.Client
	names *naming.Resolver
	loc   *location.Client
}

func (c *secureClient) close() {
	c.Client.Close()
	c.names.Close()
	c.loc.Close()
}

// newClient assembles the production proxy configuration for a client at
// clientSite: warm bindings, the given verified-content cache, trust in
// the deployment's CA, default selector and pool sizes. tel overrides
// the deployment's registry (the canary keeps its deliberate failure out
// of the counters the workload cross-checks); tp, when non-nil, taps
// every boundary of the binder for the traced run.
func (s *stack) newClient(vc *vcache.Cache, tel *telemetry.Telemetry, tp *tap) (*secureClient, error) {
	if tel == nil {
		tel = s.tel
	}
	cfg := transport.Config{Telemetry: tel}
	dialTo := func(addr string) transport.DialFunc { return tp.wrapDial(s.dial(clientSite, addr)) }
	names := naming.NewResolver(dialTo(s.namingAddr), s.authority.RootKey()).Configure(cfg)
	loc := location.NewClient(dialTo(s.locationAddr)).Configure(cfg)
	binder := &object.Binder{
		Names:     tp.wrapNames(names),
		Locator:   tp.wrapLocator(loc),
		Dial:      dialTo,
		Site:      clientSite,
		Transport: cfg,
	}
	c, err := core.NewClient(binder, core.Options{
		Trust:         s.trust,
		CacheBindings: true,
		VCache:        vc,
		Telemetry:     tel,
		Now:           s.clock,
	})
	if err != nil {
		names.Close()
		loc.Close()
		return nil, err
	}
	return &secureClient{Client: c, names: names, loc: loc}, nil
}

// front is the one loopback-TCP HTTP listener the browser-side generator
// talks to. The handler behind it can be swapped between requests, which
// is how first-visit puts a brand-new proxy behind every GET without
// paying for a new listener.
type front struct {
	url     string
	srv     *http.Server
	handler atomic.Pointer[http.Handler]
	done    chan struct{}
}

func newFront(tp *tap) (*front, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &front{url: "http://" + l.Addr().String(), done: make(chan struct{})}
	f.srv = &http.Server{Handler: tp.wrapHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*f.handler.Load()).ServeHTTP(w, r)
	}))}
	go func() {
		defer close(f.done)
		_ = f.srv.Serve(l) // returns ErrServerClosed from close
	}()
	return f, nil
}

func (f *front) serve(h http.Handler) { f.handler.Store(&h) }

func (f *front) close() {
	_ = f.srv.Close() // closes the listener and every connection
	<-f.done
}

// newProxy puts a GlobeDoc proxy over c as globedoc-proxy configures it:
// c's telemetry, and the command's default 30 s fetch deadline.
func newProxy(c *secureClient, tel *telemetry.Telemetry) *proxy.Proxy {
	p := proxy.New(c.Client)
	p.Telemetry = tel
	p.FetchTimeout = 30 * time.Second
	return p
}

// runCanary proves the stack under test still refuses forged content:
// it publishes an object whose only replica is an
// attack.MaliciousServer that flips a byte of every element, fetches it
// through a production-configured proxy, and requires the paper's
// "Security Check Failed" answer — HTTP 403 and none of the replica's
// bytes in the body. A change that gets faster by skipping a check
// fails here, before any number is measured.
func (s *stack) runCanary(ctx context.Context, seed uint64) error {
	owner, err := keys.Generate(keys.Ed25519)
	if err != nil {
		return err
	}
	const name, element = "canary.bench", "canary.bin"
	oid := globeid.FromPublicKey(owner.Public())
	doc := document.New()
	content := newRand(seed, "canary").Bytes(1024)
	if err := doc.Put(document.Element{Name: element, Data: content}); err != nil {
		return err
	}
	icert, err := document.IssueCertificate(doc, oid, owner, s.clock(), document.UniformTTL(time.Hour))
	if err != nil {
		return err
	}
	evil := attack.NewMaliciousServer(attack.TamperContent,
		attack.ReplicaState{OID: oid, Key: owner.Public(), Doc: doc, Cert: icert})
	l, evilAddr, err := s.listen(serverSite, "evil")
	if err != nil {
		return err
	}
	evil.Start(l)
	defer evil.Close()
	if err := s.authority.Register(name, oid); err != nil {
		return err
	}
	rogue := location.ContactAddress{Address: evilAddr, Protocol: object.Protocol}
	if err := s.tree.Insert(serverSite, oid, rogue); err != nil {
		return err
	}
	defer func() { _ = s.tree.Delete(serverSite, oid, rogue) }() // the record was just inserted

	tel := telemetry.New(nil)
	c, err := s.newClient(vcache.New(vcache.Config{}), tel, nil)
	if err != nil {
		return err
	}
	defer c.close()
	f, err := newFront(nil)
	if err != nil {
		return err
	}
	defer f.close()
	f.serve(newProxy(c, tel))

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.url+proxy.HybridURL(name, element), nil)
	if err != nil {
		return err
	}
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("canary request: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("canary response: %w", err)
	}
	// The replica flips only byte 0, so bytes 1.. appear in both the
	// genuine and the altered element: their presence means content
	// from the lying replica reached the browser.
	if resp.StatusCode != http.StatusForbidden || bytes.Contains(body, content[1:65]) {
		return fmt.Errorf("%w: status %d, %d body bytes", errCanaryPassed, resp.StatusCode, len(body))
	}
	if tel.SecurityCheckFailures.Total() == 0 {
		return fmt.Errorf("%w: 403 without a recorded security check failure", errCanaryPassed)
	}
	return nil
}

// errCanaryPassed means tampered content was not refused: the stack
// under test no longer enforces the paper's invariant and no number
// measured on it means anything.
var errCanaryPassed = errors.New("tamper canary was not refused")
