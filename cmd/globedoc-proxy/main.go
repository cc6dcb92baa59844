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
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"globedoc/internal/cert"
	"globedoc/internal/core"
	"globedoc/internal/deploy"
	"globedoc/internal/keyfile"
	"globedoc/internal/keys"
	"globedoc/internal/location"
	"globedoc/internal/naming"
	"globedoc/internal/object"
	"globedoc/internal/proxy"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

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
		clientFl   = deploy.RegisterClientFlags(nil)
		cacheFl    = deploy.RegisterCacheFlags(nil)
		debugFl    = deploy.RegisterDebugFlags(nil)
	)
	flag.Parse()
	tel := telemetry.New(nil)
	cfg := clientFl.Config(tel)
	if err := run(*listen, *namingAddr, *rootKey, *locAddr, *site, *caStore,
		*requireID, *warm, cfg, cacheFl, *fetchTO, tel, debugFl); err != nil {
		fmt.Fprintln(os.Stderr, "globedoc-proxy:", err)
		os.Exit(1)
	}
}

func tcpDial(addr string) transport.DialFunc {
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

func run(listen, namingAddr, rootKeyPath, locAddr, site, caStore string, requireID, warm bool,
	cfg transport.Config, cacheFl *deploy.CacheFlags, fetchTO time.Duration,
	tel *telemetry.Telemetry, debugFl *deploy.DebugFlags) error {
	rootKey, err := keyfile.LoadPublicKey(rootKeyPath)
	if err != nil {
		return fmt.Errorf("loading naming root key: %w", err)
	}
	binder := &object.Binder{
		Names:     naming.NewResolver(tcpDial(namingAddr), rootKey).Configure(cfg),
		Locator:   location.NewClient(tcpDial(locAddr)).Configure(cfg),
		Dial:      tcpDial,
		Site:      site,
		Transport: cfg,
	}
	opts := core.Options{
		CacheBindings:   warm,
		RequireIdentity: requireID,
		Telemetry:       tel,
	}
	cacheFl.Apply(&opts)
	if caStore != "" {
		ks, err := keys.LoadKeystore(caStore)
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

	stopDebug, err := debugFl.Start(tel)
	if err != nil {
		return err
	}
	defer stopDebug()

	p := proxy.New(secure)
	p.FetchTimeout = fetchTO
	p.Telemetry = tel
	p.PassthroughDial = func(host string) transport.DialFunc {
		return tcpDial(host + ":80")
	}
	l, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	fmt.Printf("globedoc proxy on %s (site %q, naming %s, location %s)\n",
		l.Addr(), site, namingAddr, locAddr)
	return p.Serve(l)
}
