// Command globedoc-proxy runs the GlobeDoc client proxy over TCP: point
// a browser (or curl) at it and request hybrid URLs.
//
//	globedoc-proxy -listen :8080 \
//	    -naming 127.0.0.1:7001 -rootkey naming-root.pub \
//	    -location 127.0.0.1:7002 -site amsterdam \
//	    -ca-keystore trusted-cas.json -debug-addr 127.0.0.1:8081
//
//	curl -x '' http://127.0.0.1:8080/GlobeDoc/home.vu.nl/index.html
//
// Every fetched element passes the full security pipeline: secure name
// resolution against the root key, replica location, self-certification
// of the object key, integrity-certificate verification and per-element
// authenticity/freshness/consistency checks. Failures render the
// "Security Check Failed" page.
//
// Verified elements are cached by content hash for as long as their
// integrity certificate is valid; repeat requests are served from memory
// (marked X-GlobeDoc-Cache: hit) without contacting a replica. Tune with
// -vcache-max-bytes / -vcache-max-signatures / -max-bindings, or ablate
// with -disable-vcache.
//
// With -debug-addr the proxy serves /debugz (metrics + recent pipeline
// spans as JSON, plus /debug/pprof) on a separate listener; -trace-out
// appends every finished span to a JSON-lines file.
//
// SIGINT or SIGTERM drains the proxy: it stops accepting, gives the
// requests in flight -fetch-timeout and a second more to finish (30 s
// when fetches are unbounded), closes the secure client and its service
// connections, and exits 0 — or 1 if a request was still running when
// the grace period ended. A second signal stops it at once.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"globedoc/internal/cert"
	"globedoc/internal/cliflags"
	"globedoc/internal/core"
	"globedoc/internal/keyfile"
	"globedoc/internal/keys"
	"globedoc/internal/location"
	"globedoc/internal/naming"
	"globedoc/internal/object"
	"globedoc/internal/proxy"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// config is the proxy's parsed command line.
type config struct {
	namingAddr, rootKey, locAddr, site, caStore string
	requireID, warm                             bool
	client                                      transport.Config
	cache                                       *cliflags.CacheFlags
	fetchTimeout                                time.Duration
	tel                                         *telemetry.Telemetry
	debug                                       *cliflags.DebugFlags
}

func main() {
	var (
		listen     = flag.String("listen", ":8080", "proxy listen address")
		namingAddr = flag.String("naming", "127.0.0.1:7001", "naming service address")
		rootKey    = flag.String("rootkey", "naming-root.pub", "naming root public key file")
		locAddr    = flag.String("location", "127.0.0.1:7002", "location service address")
		site       = flag.String("site", "", "this client's site (for nearest-replica lookups)")
		caStore    = flag.String("ca-keystore", "", "keystore of CAs the user trusts for identity certificates")
		requireID  = flag.Bool("require-identity", false, "refuse objects without a trusted identity certificate")
		warm       = flag.Bool("cache-bindings", true, "reuse verified bindings across requests")
		fetchTO    = flag.Duration("fetch-timeout", 30*time.Second, "whole-pipeline deadline per browser request (0 = unbounded)")
		clientFl   = cliflags.RegisterClientFlags(nil)
		cacheFl    = cliflags.RegisterCacheFlags(nil)
		debugFl    = cliflags.RegisterDebugFlags(nil)
	)
	flag.Parse()
	tel := telemetry.New(nil)
	cfg := config{
		namingAddr: *namingAddr, rootKey: *rootKey, locAddr: *locAddr, site: *site, caStore: *caStore,
		requireID: *requireID, warm: *warm, client: clientFl.Config(tel), cache: cacheFl,
		fetchTimeout: *fetchTO, tel: tel, debug: debugFl,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	// The first signal starts the drain and hands the signals back, so a
	// second one kills the process as usual.
	context.AfterFunc(ctx, stop)
	l, err := net.Listen("tcp", *listen)
	if err == nil {
		err = run(ctx, l, cfg)
	}
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "globedoc-proxy:", err)
		os.Exit(1)
	}
}

func tcpDial(addr string) transport.DialFunc {
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

// run serves the proxy on l until ctx ends, then drains it: l stops
// accepting, the requests in flight get drainGrace to finish, and the
// secure client and its naming and location connections are closed.
func run(ctx context.Context, l net.Listener, cfg config) error {
	defer l.Close()
	rootKey, err := keyfile.LoadPublicKey(cfg.rootKey)
	if err != nil {
		return fmt.Errorf("loading naming root key: %w", err)
	}
	names := naming.NewResolver(tcpDial(cfg.namingAddr), rootKey).Configure(cfg.client)
	defer names.Close()
	locator := location.NewClient(tcpDial(cfg.locAddr)).Configure(cfg.client)
	defer locator.Close()
	binder := &object.Binder{
		Names:     names,
		Locator:   locator,
		Dial:      tcpDial,
		Site:      cfg.site,
		Transport: cfg.client,
	}
	opts := core.Options{
		CacheBindings:   cfg.warm,
		RequireIdentity: cfg.requireID,
		Telemetry:       cfg.tel,
	}
	cfg.cache.Apply(&opts)
	if cfg.caStore != "" {
		ks, err := keys.LoadKeystore(cfg.caStore)
		if err != nil {
			return fmt.Errorf("loading CA keystore: %w", err)
		}
		trust := cert.NewTrustStore()
		for _, name := range ks.Names() {
			pk, _ := ks.Get(name)
			trust.TrustCA(name, pk)
		}
		opts.Trust = trust
	}
	secure, err := core.NewClient(binder, opts)
	if err != nil {
		return fmt.Errorf("configuring secure client: %w", err)
	}
	defer secure.Close()

	stopDebug, err := cfg.debug.Start(cfg.tel)
	if err != nil {
		return err
	}
	defer stopDebug()

	p := proxy.New(secure)
	p.FetchTimeout = cfg.fetchTimeout
	p.Telemetry = cfg.tel
	p.PassthroughDial = func(host string) transport.DialFunc {
		return tcpDial(host + ":80")
	}
	fmt.Printf("globedoc proxy on %s (site %q, naming %s, location %s)\n",
		l.Addr(), cfg.site, cfg.namingAddr, cfg.locAddr)
	served := make(chan error, 1)
	go func() { served <- p.Serve(l) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	drain, cancel := context.WithTimeout(context.Background(), drainGrace(cfg.fetchTimeout))
	defer cancel()
	err = p.Shutdown(drain)
	<-served // http.ErrServerClosed, once the listener is closed
	if err != nil {
		return fmt.Errorf("draining in-flight requests: %w", err)
	}
	return nil
}

// drainGrace is how long a drain lets requests in flight run: the fetch
// deadline and a second to write the response, so every fetch the proxy
// would have let finish does — or 30 s when fetches are unbounded.
func drainGrace(fetchTimeout time.Duration) time.Duration {
	if fetchTimeout <= 0 {
		return 30 * time.Second
	}
	return fetchTimeout + time.Second
}
