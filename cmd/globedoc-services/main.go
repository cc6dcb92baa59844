// Command globedoc-services runs the two GlobeDoc infrastructure
// services over TCP: the secure naming service (DNSsec-like, storing
// self-certifying OIDs) and the location service (the distributed search
// tree mapping OIDs to contact addresses).
//
//	globedoc-services -naming :7001 -location :7002 \
//	    -rootkey-out naming-root.pub \
//	    -sites world/europe/amsterdam,world/europe/paris,world/northamerica/ithaca
//
// The naming root public key is written to -rootkey-out; clients (the
// proxy) use it as their trust anchor. Zones listed in -zones are created
// under the root at startup.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"

	"globedoc/internal/cliflags"
	"globedoc/internal/keyfile"
	"globedoc/internal/keys"
	"globedoc/internal/location"
	"globedoc/internal/naming"
	"globedoc/internal/telemetry"
)

func main() {
	var (
		namingAddr   = flag.String("naming", ":7001", "naming service listen address")
		locationAddr = flag.String("location", ":7002", "location service listen address")
		rootKeyOut   = flag.String("rootkey-out", "naming-root.pub", "file to write the naming root public key to")
		algo         = flag.String("algo", "ed25519", "zone key algorithm")
		zones        = flag.String("zones", "", "comma-separated zones to create under the root (e.g. nl,vu.nl)")
		sites        = flag.String("sites", "world/europe/amsterdam,world/europe/paris,world/northamerica/ithaca",
			"comma-separated site paths defining the location domain tree")
		debugFl = cliflags.RegisterDebugFlags(nil)
	)
	flag.Parse()
	if err := run(*namingAddr, *locationAddr, *rootKeyOut, *algo, *zones, *sites, debugFl); err != nil {
		fmt.Fprintln(os.Stderr, "globedoc-services:", err)
		os.Exit(1)
	}
}

func run(namingAddr, locationAddr, rootKeyOut, algo, zones, sites string, debugFl *cliflags.DebugFlags) error {
	alg, err := keys.ParseAlgorithm(algo)
	if err != nil {
		return err
	}
	auth, err := naming.NewAuthority(alg)
	if err != nil {
		return err
	}
	for _, zone := range splitNonEmpty(zones) {
		parent := naming.Root
		if i := strings.Index(zone, "."); i >= 0 {
			// Nested zones must be listed parent-first; find the longest
			// existing parent.
			for _, existing := range auth.Zones() {
				if existing != naming.Root && strings.HasSuffix(zone, "."+existing) {
					parent = existing
				}
			}
		}
		if err := auth.CreateZone(parent, zone); err != nil {
			return fmt.Errorf("creating zone %q: %w", zone, err)
		}
	}
	if err := keyfile.SavePublicKey(rootKeyOut, auth.RootKey()); err != nil {
		return err
	}

	tree, err := location.NewTree(parseDomains(sites))
	if err != nil {
		return err
	}

	nl, err := net.Listen("tcp", namingAddr)
	if err != nil {
		return err
	}
	ll, err := net.Listen("tcp", locationAddr)
	if err != nil {
		return err
	}
	fmt.Printf("naming service on %s (root key in %s, zones: %v)\n", nl.Addr(), rootKeyOut, auth.Zones())
	fmt.Printf("location service on %s, sites: %v\n", ll.Addr(), tree.Sites())

	tel := telemetry.New(nil)
	stopDebug, err := debugFl.Start(tel)
	if err != nil {
		return err
	}
	defer stopDebug()

	namingSvc := naming.NewService(auth)
	namingSvc.SetTelemetry(tel)
	namingSvc.Start(nl)
	locationSvc := location.NewService(tree)
	locationSvc.SetTelemetry(tel)
	errCh := make(chan error, 1)
	go func() { errCh <- locationSvc.Serve(ll) }()
	return <-errCh
}

// parseDomains turns "world/europe/ams,world/europe/paris" into a
// DomainSpec tree.
func parseDomains(spec string) location.DomainSpec {
	root := location.DomainSpec{Name: "world"}
	for _, path := range splitNonEmpty(spec) {
		parts := strings.Split(strings.Trim(path, "/"), "/")
		if len(parts) > 0 && parts[0] == root.Name {
			parts = parts[1:]
		}
		insert(&root, parts)
	}
	return root
}

func insert(node *location.DomainSpec, parts []string) {
	if len(parts) == 0 {
		return
	}
	for i := range node.Children {
		if node.Children[i].Name == parts[0] {
			insert(&node.Children[i], parts[1:])
			return
		}
	}
	node.Children = append(node.Children, location.DomainSpec{Name: parts[0]})
	insert(&node.Children[len(node.Children)-1], parts[1:])
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
