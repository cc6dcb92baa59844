// Command globedoc-server runs a Globe object server over TCP: the
// process that hosts GlobeDoc replica local representatives and serves
// the anonymous read protocol plus the authenticated admin protocol.
//
//	globedoc-server -listen :7010 -name srv-ams -site amsterdam \
//	    -keystore server-keystore.json -max-objects 100 -max-bytes 104857600
//
// The keystore lists the principals (owners and peer servers) allowed to
// create replicas here; manage it with globedoc-keygen.
//
// With -debug-addr the server serves /debugz (rpc_served_total per
// operation, per-RPC spans, /debug/pprof) on a separate listener.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"globedoc/internal/cliflags"
	"globedoc/internal/keyfile"
	"globedoc/internal/keys"
	"globedoc/internal/server"
	"globedoc/internal/telemetry"
)

func main() {
	var (
		listen   = flag.String("listen", ":7010", "listen address")
		name     = flag.String("name", "objsrv", "server principal name")
		site     = flag.String("site", "", "location-service site this server lives at")
		ksPath   = flag.String("keystore", "", "keystore of principals allowed to create replicas")
		identity = flag.String("identity", "", "this server's own key pair (enables pushing replicas to peers)")
		maxObj   = flag.Int("max-objects", 0, "max hosted replicas (0 = unlimited)")
		maxBytes = flag.Int64("max-bytes", 0, "max hosted element bytes (0 = unlimited)")
		idleTO   = flag.Duration("idle-timeout", 2*time.Minute, "drop client connections idle this long (0 = never)")
		debugFl  = cliflags.RegisterDebugFlags(nil)
	)
	flag.Parse()
	if err := run(*listen, *name, *site, *ksPath, *identity, *maxObj, *maxBytes, *idleTO, debugFl); err != nil {
		fmt.Fprintln(os.Stderr, "globedoc-server:", err)
		os.Exit(1)
	}
}

func run(listen, name, site, ksPath, identity string, maxObj int, maxBytes int64,
	idleTO time.Duration, debugFl *cliflags.DebugFlags) error {
	ks := keys.NewKeystore()
	if ksPath != "" {
		loaded, err := keys.LoadKeystore(ksPath)
		if err != nil {
			return fmt.Errorf("loading keystore: %w", err)
		}
		ks = loaded
	}
	var idKey *keys.KeyPair
	if identity != "" {
		kp, err := keyfile.LoadKeyPair(identity)
		if err != nil {
			return fmt.Errorf("loading identity key: %w", err)
		}
		idKey = kp
	}
	tel := telemetry.New(nil)
	stopDebug, err := debugFl.Start(tel)
	if err != nil {
		return err
	}
	defer stopDebug()
	srv := server.New(name, site, ks, idKey, server.Limits{MaxObjects: maxObj, MaxBytes: maxBytes})
	srv.SetIdleTimeout(idleTO)
	srv.SetTelemetry(tel)
	l, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	fmt.Printf("object server %q (site %q) on %s; %d authorized principals\n",
		name, site, l.Addr(), ks.Len())
	return srv.Serve(l)
}
