// Command globedoc-admin publishes and manages GlobeDoc objects from the
// owner's machine.
//
// Publish a directory as a GlobeDoc object (signs the integrity
// certificate, uploads the replica, registers name and contact address):
//
//	globedoc-admin publish -dir ./site -key owner.key -principal alice \
//	    -server 127.0.0.1:7010 -server-site amsterdam \
//	    -naming 127.0.0.1:7001 -location 127.0.0.1:7002 \
//	    -name home.vu.nl -ttl 1h
//
// List / delete replicas on a server:
//
//	globedoc-admin list   -key owner.key -principal alice -server 127.0.0.1:7010
//	globedoc-admin delete -key owner.key -principal alice -server 127.0.0.1:7010 -oid <hex>
//
// Inspect the integrity certificate that would be issued for a directory:
//
//	globedoc-admin cert -dir ./site -key owner.key -ttl 1h
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keyfile"
	"globedoc/internal/keys"
	"globedoc/internal/location"
	"globedoc/internal/naming"
	"globedoc/internal/object"
	"globedoc/internal/server"
	"globedoc/internal/sitepub"
	"globedoc/internal/transport"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		dir        = fs.String("dir", "", "directory with page elements")
		keyPath    = fs.String("key", "", "owner key pair file")
		principal  = fs.String("principal", "", "admin principal name (in the server keystore)")
		serverAddr = fs.String("server", "", "object server address")
		serverSite = fs.String("server-site", "", "location-service site of the server")
		namingAddr = fs.String("naming", "", "naming service address (optional)")
		locAddr    = fs.String("location", "", "location service address (optional)")
		name       = fs.String("name", "", "object name to register")
		ttl        = fs.Duration("ttl", time.Hour, "per-element validity duration")
		oidHex     = fs.String("oid", "", "object ID (hex) for delete")
	)
	fs.Parse(os.Args[2:])

	var err error
	switch cmd {
	case "publish":
		err = publish(*dir, *keyPath, *principal, *serverAddr, *serverSite, *namingAddr, *locAddr, *name, *ttl)
	case "publish-site":
		err = publishSite(*dir, *keyPath, *principal, *serverAddr, *serverSite, *namingAddr, *locAddr, *name, *ttl)
	case "list":
		err = list(*keyPath, *principal, *serverAddr)
	case "delete":
		err = del(*keyPath, *principal, *serverAddr, *oidHex)
	case "cert":
		err = showCert(*dir, *keyPath, *ttl)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "globedoc-admin %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: globedoc-admin <publish|publish-site|list|delete|cert> [flags]

  publish       publish one directory as a single GlobeDoc object
  publish-site  compile a site tree (one object per top-level directory,
                cross-document links rewritten to hybrid URLs; -name is
                the site domain) and publish every object
  list          list replicas hosted on a server
  delete        destroy a replica
  cert          print the integrity certificate a directory would get

run "globedoc-admin <cmd> -h" for per-command flags`)
}

func tcpDial(addr string) transport.DialFunc {
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

// buildBundle loads a directory, signs its certificate, and assembles the
// replica bundle.
func buildBundle(dir, keyPath string, ttl time.Duration) (*server.Bundle, *document.Document, error) {
	kp, err := keyfile.LoadKeyPair(keyPath)
	if err != nil {
		return nil, nil, err
	}
	doc, err := document.FromFS(os.DirFS(dir), ".")
	if err != nil {
		return nil, nil, err
	}
	if doc.Len() == 0 {
		return nil, nil, fmt.Errorf("directory %q has no elements", dir)
	}
	oid := globeid.FromPublicKey(kp.Public())
	icert, err := document.IssueCertificate(doc, oid, kp, time.Now(), document.UniformTTL(ttl))
	if err != nil {
		return nil, nil, err
	}
	return server.BundleFromDocument(oid, kp.Public(), doc, icert, nil), doc, nil
}

func publish(dir, keyPath, principal, serverAddr, serverSite, namingAddr, locAddr, name string, ttl time.Duration) error {
	if dir == "" || keyPath == "" || principal == "" || serverAddr == "" {
		return fmt.Errorf("publish requires -dir, -key, -principal and -server")
	}
	bundle, doc, err := buildBundle(dir, keyPath, ttl)
	if err != nil {
		return err
	}
	kp, err := keyfile.LoadKeyPair(keyPath)
	if err != nil {
		return err
	}
	admin := server.NewAdminClient(principal, kp, tcpDial(serverAddr))
	defer admin.Close()
	if err := admin.CreateReplica(context.Background(), bundle); err != nil {
		return fmt.Errorf("uploading replica: %w", err)
	}
	fmt.Printf("published %d elements (%d bytes) as object %s\n",
		doc.Len(), doc.TotalSize(), bundle.OID)

	if namingAddr != "" && name != "" {
		c := transport.NewClient(tcpDial(namingAddr))
		defer c.Close()
		if err := naming.Register(context.Background(), c, name, bundle.OID); err != nil {
			return fmt.Errorf("registering name: %w", err)
		}
		fmt.Printf("registered name %q\n", name)
	}
	if locAddr != "" && serverSite != "" {
		lc := location.NewClient(tcpDial(locAddr))
		defer lc.Close()
		addr := location.ContactAddress{Address: serverAddr, Protocol: object.Protocol}
		if err := lc.Insert(context.Background(), serverSite, bundle.OID, addr); err != nil {
			return fmt.Errorf("registering contact address: %w", err)
		}
		fmt.Printf("registered contact address %s at site %q\n", serverAddr, serverSite)
	}
	return nil
}

// publishSite compiles dir as a multi-document site under the domain
// given by -name and publishes every object. Each object gets its own
// key pair, derived OID, signed certificate and name registration; keys
// are written next to the owner key as <owner>.<objectName>.key.
func publishSite(dir, keyPath, principal, serverAddr, serverSite, namingAddr, locAddr, domain string, ttl time.Duration) error {
	if dir == "" || keyPath == "" || principal == "" || serverAddr == "" || domain == "" {
		return fmt.Errorf("publish-site requires -dir, -key, -principal, -server and -name (the site domain)")
	}
	compiled, err := sitepub.Compile(os.DirFS(dir), ".", domain)
	if err != nil {
		return err
	}
	for _, diag := range compiled.Diagnostics {
		fmt.Fprintf(os.Stderr, "warning: %s\n", diag)
	}
	adminKey, err := keyfile.LoadKeyPair(keyPath)
	if err != nil {
		return err
	}
	admin := server.NewAdminClient(principal, adminKey, tcpDial(serverAddr))
	defer admin.Close()

	return compiled.PublishAll(func(objectName string, doc *document.Document) error {
		objKey, err := keys.Generate(adminKey.Algorithm())
		if err != nil {
			return err
		}
		oid := globeid.FromPublicKey(objKey.Public())
		icert, err := document.IssueCertificate(doc, oid, objKey, time.Now(), document.UniformTTL(ttl))
		if err != nil {
			return err
		}
		bundle := server.BundleFromDocument(oid, objKey.Public(), doc, icert, nil)
		if err := admin.CreateReplica(context.Background(), bundle); err != nil {
			return err
		}
		objKeyPath := keyPath + "." + objectName + ".key"
		if err := keyfile.SaveKeyPair(objKeyPath, objKey); err != nil {
			return err
		}
		fmt.Printf("published %-24s %s (%d elements, key in %s)\n",
			objectName, oid.Short(), doc.Len(), objKeyPath)
		if namingAddr != "" {
			c := transport.NewClient(tcpDial(namingAddr))
			defer c.Close()
			if err := naming.Register(context.Background(), c, objectName, oid); err != nil {
				return fmt.Errorf("registering name %q: %w", objectName, err)
			}
		}
		if locAddr != "" && serverSite != "" {
			lc := location.NewClient(tcpDial(locAddr))
			defer lc.Close()
			addr := location.ContactAddress{Address: serverAddr, Protocol: object.Protocol}
			if err := lc.Insert(context.Background(), serverSite, oid, addr); err != nil {
				return fmt.Errorf("registering address for %q: %w", objectName, err)
			}
		}
		return nil
	})
}

func list(keyPath, principal, serverAddr string) error {
	if keyPath == "" || principal == "" || serverAddr == "" {
		return fmt.Errorf("list requires -key, -principal and -server")
	}
	kp, err := keyfile.LoadKeyPair(keyPath)
	if err != nil {
		return err
	}
	admin := server.NewAdminClient(principal, kp, tcpDial(serverAddr))
	defer admin.Close()
	oids, err := admin.ListReplicas(context.Background())
	if err != nil {
		return err
	}
	for _, oid := range oids {
		fmt.Println(oid)
	}
	fmt.Printf("%d replicas hosted\n", len(oids))
	return nil
}

func del(keyPath, principal, serverAddr, oidHex string) error {
	if keyPath == "" || principal == "" || serverAddr == "" || oidHex == "" {
		return fmt.Errorf("delete requires -key, -principal, -server and -oid")
	}
	kp, err := keyfile.LoadKeyPair(keyPath)
	if err != nil {
		return err
	}
	oid, err := globeid.Parse(oidHex)
	if err != nil {
		return err
	}
	admin := server.NewAdminClient(principal, kp, tcpDial(serverAddr))
	defer admin.Close()
	if err := admin.DeleteReplica(context.Background(), oid); err != nil {
		return err
	}
	fmt.Printf("deleted replica %s\n", oid.Short())
	return nil
}

func showCert(dir, keyPath string, ttl time.Duration) error {
	if dir == "" || keyPath == "" {
		return fmt.Errorf("cert requires -dir and -key")
	}
	bundle, _, err := buildBundle(dir, keyPath, ttl)
	if err != nil {
		return err
	}
	fmt.Printf("object:  %s\n", bundle.OID)
	fmt.Printf("version: %d\n", bundle.Cert.Version)
	fmt.Printf("issued:  %s\n", bundle.Cert.Issued.Format(time.RFC3339))
	fmt.Printf("entries:\n")
	for _, e := range bundle.Cert.Entries {
		fmt.Printf("  %-40s sha1=%x expires=%s\n", e.Name, e.Hash, e.Expires.Format(time.RFC3339))
	}
	return nil
}
